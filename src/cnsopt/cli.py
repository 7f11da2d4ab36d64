"""Command-line harness.

Subcommands: ``run`` (one experiment, CSV trace out), ``sweep`` (many config
files through a worker pool), ``tune`` (step-size grid search on a 20%
subset), ``compare`` (summarize traces against a reference optimum), and
``synth`` (generate a synthetic dataset as LIBSVM text).

Every RunConfig field (and each ``synth-*`` option) is a kebab-case flag; a
``key = value`` config file can supply any of them, parsed by the flag's type,
and explicit flags win over the file.
"""

import argparse
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields

from .bench import (
    METHODS,
    RunConfig,
    compare_report,
    default_worker_count,
    read_trace,
    render_report,
    run_experiment,
    tune_stepsize,
    write_trace,
)
from .datasets import CLASSIFICATION, REGRESSION, SyntheticSpec, make_synthetic, serialize_libsvm
from .errors import CnsError
from .smoothing import LOSSES, dual_spec

# SyntheticSpec options that ``synth --<name>`` and ``run --synth-<name>`` both
# take; one left out keeps SyntheticSpec's default
_SYNTH_OPTIONS = ("sparsity", "noise", "norm_lo", "norm_hi")
_SYNTH_TYPES = {"synth_n": int, "synth_d": int,
                **{f"synth_{name}": float for name in _SYNTH_OPTIONS}}


def _option_type(hint):
    """(parse type, optional) of an annotation such as ``float`` or ``int | None``."""
    kinds = [kind for kind in typing.get_args(hint) if kind is not type(None)]
    return (kinds[0], True) if kinds else (hint, False)


# every run/tune option: the RunConfig fields (``synthetic`` is built from the
# synth_* ones), then the synthetic options, which may all be left unset
_HINTS = typing.get_type_hints(RunConfig)
_RUN_OPTIONS = {f.name: _option_type(_HINTS[f.name])
                for f in fields(RunConfig) if f.name != "synthetic"}
_RUN_OPTIONS.update({key: (kind, True) for key, kind in _SYNTH_TYPES.items()})
_CHOICES = {"method": METHODS, "loss": LOSSES}
_HELP = {
    "dataset": "LIBSVM path (.gz ok)",
    "test_dataset": "LIBSVM path for the test metric",
    "solver": "inner solver override (prox-gd, apg, prox-svrg, acc-prox-svrg)",
    "synth_n": "samples for a synthetic run",
    "synth_d": "features for a synthetic run",
}


def read_config_file(path):
    """Parse ``key = value`` lines; '#' starts a comment; keys may use dashes.

    Each value is parsed by its flag's type, and ``none`` (or nothing) unsets
    an optional key; a mistyped value or an unknown key raises ValueError
    naming it.
    """
    values, unknown = {}, []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value', "
                                 f"got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip().replace("-", "_"), value.strip()
            if key not in _RUN_OPTIONS:
                unknown.append(key)
                continue
            kind, optional = _RUN_OPTIONS[key]
            if optional and value.lower() in ("none", ""):
                values[key] = None
                continue
            try:
                values[key] = kind(value)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: {key}: expected {kind.__name__}, "
                                 f"got {value!r}") from None
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
    return values


def _add_run_flags(parser):
    parser.add_argument("--config", help="key = value file supplying any flag below")
    for name, (kind, _) in _RUN_OPTIONS.items():
        parser.add_argument(f"--{name.replace('_', '-')}", type=None if kind is str else kind,
                            choices=_CHOICES.get(name), help=_HELP.get(name))


def _synthetic_spec(n, d, task, seed, sparsity=None, noise=None, norm_lo=None, norm_hi=None):
    """A SyntheticSpec; an option left None keeps SyntheticSpec's default."""
    lo, hi = SyntheticSpec.feature_norm_range
    return SyntheticSpec(
        n=n,
        d=d,
        task=task,
        sparsity=SyntheticSpec.sparsity if sparsity is None else sparsity,
        noise=SyntheticSpec.noise if noise is None else noise,
        seed=seed,
        feature_norm_range=(lo if norm_lo is None else norm_lo, hi if norm_hi is None else norm_hi),
    )


def build_run_config(args):
    """Merge config file < flags into a RunConfig (flags win)."""
    merged = read_config_file(args.config) if args.config else {}
    for key in _RUN_OPTIONS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value

    synth_args = {key.removeprefix("synth_"): merged.pop(key, None) for key in _SYNTH_TYPES}
    given = sorted(f"synth_{key}" for key, value in synth_args.items() if value is not None)
    synth = None
    if synth_args["n"] is not None:
        n, d = synth_args.pop("n"), synth_args.pop("d")
        task = dual_spec(merged.get("loss", RunConfig.loss)).task
        synth = _synthetic_spec(n, 50 if d is None else d, task,
                                merged.get("seed", RunConfig.seed), **synth_args)
    elif given:
        raise ValueError(f"synthetic keys without synth_n: {given}")

    if "method" not in merged:
        raise ValueError("--method is required (flag or config file)")
    return RunConfig(synthetic=synth, **merged)


def _cmd_run(args):
    cfg = build_run_config(args)
    rows = run_experiment(cfg)
    last = rows[-1]
    print(
        f"{cfg.method}: {last.cumulative_iterations} iterations, "
        f"objective {last.objective_original:.6g}, test metric {last.test_metric:.6g}, "
        f"nnz {last.nnz}"
        + (f" -> {cfg.output}" if cfg.output else "")
    )
    return 0


def _sweep_one(path):
    cfg = build_run_config(argparse.Namespace(config=path))
    rows = run_experiment(cfg)
    return cfg.output, rows[-1].objective_original


def _cmd_sweep(args):
    """Run every config; a config that fails is reported and the rest still run."""
    failed = 0
    with ProcessPoolExecutor(max_workers=default_worker_count()) as pool:
        futures = [pool.submit(_sweep_one, path) for path in args.configs]
        for path, future in zip(args.configs, futures):
            try:
                output, objective = future.result()
            except (CnsError, ValueError, OSError) as exc:
                failed += 1
                print(f"{path}: failed: {exc}")
                continue
            print(f"{path}: objective {objective:.6g}" + (f" -> {output}" if output else ""))
    return 1 if failed else 0


def _cmd_tune(args):
    cfg = build_run_config(args)
    grid = [float(v) for v in args.grid.split(",") if v]
    best = tune_stepsize(cfg, grid)
    print(f"best step scale: {best:g}")
    return 0


def _cmd_compare(args):
    traces = {}
    for item in args.traces:
        name, _, path = item.partition("=")
        if not path:
            raise ValueError(f"expected name=path, got {item!r}")
        if name in traces:
            raise ValueError(f"trace name {name!r} given twice")
        traces[name] = read_trace(path)
    summaries = compare_report(traces, args.target_gap, args.reference)
    print(render_report(summaries, args.target_gap))
    return 0


def _cmd_synth(args):
    task = CLASSIFICATION if args.task == "classification" else REGRESSION
    spec = _synthetic_spec(args.n, args.d, task, args.seed,
                           **{name: getattr(args, name) for name in _SYNTH_OPTIONS})
    dataset, _ = make_synthetic(spec)
    serialize_libsvm(dataset, args.output)
    print(f"wrote {dataset.n} x {dataset.d} {task} dataset to {args.output}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="cnsopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write its trace")
    _add_run_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run many config files in a worker pool")
    p_sweep.add_argument("configs", nargs="+")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_tune = sub.add_parser("tune", help="grid-search the step scale on a 20% subset")
    _add_run_flags(p_tune)
    p_tune.add_argument("--grid", required=True, help="comma-separated candidates")
    p_tune.set_defaults(func=_cmd_tune)

    p_cmp = sub.add_parser("compare", help="summarize traces against a reference")
    p_cmp.add_argument("--traces", nargs="+", required=True, metavar="NAME=PATH")
    p_cmp.add_argument("--reference", type=float, required=True)
    p_cmp.add_argument("--target-gap", type=float, default=1e-3)
    p_cmp.set_defaults(func=_cmd_compare)

    p_synth = sub.add_parser("synth", help="generate a synthetic LIBSVM dataset")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--d", type=int, required=True)
    p_synth.add_argument("--task", choices=("classification", "regression"),
                         default="classification")
    for name in _SYNTH_OPTIONS:
        p_synth.add_argument(f"--{name.replace('_', '-')}", type=float)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--output", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
