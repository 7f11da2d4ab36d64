"""Command-line harness.

Subcommands: ``run`` (one experiment, CSV trace out), ``sweep`` (many config
files through a worker pool), ``tune`` (step-size grid search on a 20%
subset), ``compare`` (summarize traces against a reference optimum), and
``synth`` (generate a synthetic dataset as LIBSVM text).

Every RunConfig field is exposed as a kebab-case flag; a ``key = value``
config file can supply any of them, and explicit flags win over the file.
"""

import argparse
import sys
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

_SYNTH_KEYS = ("synth_n", "synth_d", "synth_sparsity", "synth_noise", "synth_norm_lo", "synth_norm_hi")


def _coerce(text):
    lowered = text.lower()
    if lowered in ("none", ""):
        return None
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def read_config_file(path):
    """Parse ``key = value`` lines; '#' starts a comment; keys may use dashes."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = _coerce(value.strip())
    return values


def _add_run_flags(parser):
    parser.add_argument("--config", help="key = value file supplying any flag below")
    parser.add_argument("--method", choices=METHODS)
    parser.add_argument("--loss", choices=("hinge", "absolute"))
    parser.add_argument("--dataset", help="LIBSVM path (.gz ok)")
    parser.add_argument("--test-dataset", help="LIBSVM path for the test metric")
    parser.add_argument("--nu1", type=float)
    parser.add_argument("--nu2", type=float)
    parser.add_argument("--gamma1", type=float)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--t1", type=int)
    parser.add_argument("--lam1", type=float)
    parser.add_argument("--stages", type=int)
    parser.add_argument("--solver", help="inner solver override (prox-gd, apg, prox-svrg, acc-prox-svrg)")
    parser.add_argument("--theta", type=float)
    parser.add_argument("--p", type=float)
    parser.add_argument("--batch-size", type=int)
    parser.add_argument("--step-scale", type=float)
    parser.add_argument("--eta0", type=float)
    parser.add_argument("--rda-scale", type=float)
    parser.add_argument("--averaging-exponent", type=float)
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--cadence", type=int)
    parser.add_argument("--time-budget", type=float)
    parser.add_argument("--output")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--synth-n", type=int, help="samples for a synthetic run")
    parser.add_argument("--synth-d", type=int, help="features for a synthetic run")
    parser.add_argument("--synth-sparsity", type=float)
    parser.add_argument("--synth-noise", type=float)
    parser.add_argument("--synth-norm-lo", type=float)
    parser.add_argument("--synth-norm-hi", type=float)


def build_run_config(args):
    """Merge config file < flags into a RunConfig (flags win)."""
    merged = {}
    if args.config:
        merged.update(read_config_file(args.config))
    for key, value in vars(args).items():
        if key in ("config", "command", "func", "grid", "traces", "reference",
                   "target_gap"):
            continue
        if value is not None:
            merged[key] = value

    synth = None
    if merged.get("synth_n") is not None:
        loss = merged.get("loss", "hinge")
        synth = SyntheticSpec(
            n=merged["synth_n"],
            d=merged.get("synth_d", 50),
            task=CLASSIFICATION if loss == "hinge" else REGRESSION,
            sparsity=merged.get("synth_sparsity", 0.2),
            noise=merged.get("synth_noise", 0.1),
            seed=merged.get("seed", 0),
            feature_norm_range=(
                merged.get("synth_norm_lo", 1.0),
                merged.get("synth_norm_hi", 1.0),
            ),
        )
    for key in _SYNTH_KEYS:
        merged.pop(key, None)

    allowed = {f.name for f in fields(RunConfig)}
    unknown = set(merged) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
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
        traces[name] = read_trace(path)
    summaries = compare_report(traces, args.target_gap, args.reference)
    print(render_report(summaries, args.target_gap))
    return 0


def _cmd_synth(args):
    task = CLASSIFICATION if args.task == "classification" else REGRESSION
    spec = SyntheticSpec(
        n=args.n,
        d=args.d,
        task=task,
        sparsity=args.sparsity,
        noise=args.noise,
        seed=args.seed,
        feature_norm_range=(args.norm_lo, args.norm_hi),
    )
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
    p_synth.add_argument("--sparsity", type=float, default=0.2)
    p_synth.add_argument("--noise", type=float, default=0.1)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--norm-lo", type=float, default=1.0)
    p_synth.add_argument("--norm-hi", type=float, default=1.0)
    p_synth.add_argument("--output", required=True)
    p_synth.set_defaults(func=_cmd_synth)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
