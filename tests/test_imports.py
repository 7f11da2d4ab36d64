"""Every imported name in the package and its tests is referenced.

No linter runs on this tree, so an import that outlives its last use would
stay unnoticed. A name counts as used where it appears in the code or inside
a string annotation (``"SyntheticSpec | None"``, which ``typing.get_type_hints``
resolves in the module's globals). The package's ``__init__.py`` only
re-exports, so it is not scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_names(tree):
    """(name, line) of each name the module's import statements bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """The names the code reads, those inside string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for part in ast.walk(annotation) if annotation else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= used_names(ast.parse(part.value, mode="eval"))
    return names


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "cnsopt").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in paths if path.name != "__init__.py"
              for name, line in unused_imports(path.read_text())]
    assert not unused


def test_a_name_in_a_string_annotation_counts_as_used():
    source = ("import numpy.linalg\nfrom a import Spec, Unused as U\n\n\n"
              "def f(x: \"Spec | None\") -> 'list[int]': ...\n")
    assert unused_imports(source) == [("numpy", 1), ("U", 2)]


def test_no_package_module_imports_a_private_name():
    # a private helper has one home: RDA once imported prox._soft_threshold
    # and kept a second copy of the prox around it
    private = [f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name}"
               for path in sorted((ROOT / "src" / "cnsopt").glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.name.startswith("_")]
    assert not private
