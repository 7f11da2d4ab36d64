"""Process set-up shared by the benchmark entry point and its tests.

``prepare()`` pins every BLAS / OpenMP pool to one thread and puts the
checkout's ``src`` directory first on the import path. It must run before
numpy is imported: the thread pools read their size once, at load time.
``describe()`` records what a result depends on besides the code.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class MissingProgram(RuntimeError):
    """The checkout holds no cnsopt sources to benchmark."""


def use_checkout_sources():
    """Make ``import cnsopt`` load this checkout's ``src``, and nothing else."""
    if not (SRC / "cnsopt" / "__init__.py").is_file():
        raise MissingProgram(f"no cnsopt package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cnsopt

    if Path(cnsopt.__file__).resolve().parent != SRC / "cnsopt":
        raise MissingProgram(f"cnsopt imported from {cnsopt.__file__}, not from {SRC}")


def prepare():
    """Pin thread pools to one thread, then ``use_checkout_sources()``."""
    if "numpy" in sys.modules:
        raise RuntimeError("env.prepare() must run before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    use_checkout_sources()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_hash():
    digest = hashlib.sha256()
    for path in sorted((SRC / "cnsopt").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def describe():
    """Run environment: threads, cores, library versions, code identity."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_hash(),
    }
