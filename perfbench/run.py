"""cnsopt benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sc-dense --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
Inputs are generated from ``--seed`` and handed to the program only as a
``RunConfig`` (a synthetic spec or a LIBSVM file), through
``cnsopt.bench.run_experiment``, which is what ``cnsopt run`` calls.

``--trace 0`` measures the end-to-end metrics: the workload's method race,
repeated over the run's instances with LIBSVM write and set-up samples in
between, until ``--seconds`` have passed; then the reference optimum (cached,
never timed) and the gap metrics. See README.md for how each metric is
computed from the samples. ``--trace 1`` alternates untraced
and traced races on the first instance for ``--seconds`` and reports the
per-layer metrics from the spans; its traces must match the untraced ones
bit for bit, wall time aside.

The last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A copy with the run environment is
written to ``perfbench/out/results/``. Exit code 2 means the checkout holds
no program to benchmark.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import env

# numpy, scipy, cnsopt and the modules beside this one are imported inside
# functions: they may load only after env.prepare() has pinned the threads.

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("write_s", "s", "lower"),
    ("run_wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "fraction", "higher"),
    ("cns_a.time_to_gap_s", "s", "lower"),
    ("cns_a.iters_to_gap", "count", "lower"),
    ("cns_a.us_per_iter", "us", "lower"),
    ("cns_a.final_gap_digits", "digits", "higher"),
    ("cns_na.time_to_gap_s", "s", "lower"),
    ("cns_na.us_per_iter", "us", "lower"),
    ("fobos.time_to_gap_s", "s", "lower"),
    ("fobos.us_per_iter", "us", "lower"),
    ("apg.time_to_gap_s", "s", "lower"),
    ("apg.us_per_iter", "us", "lower"),
)

# set-up and write timings are taken in every cycle of the measuring loop, so
# that their samples spread over the whole run: each cycle repeats them for at
# least SAMPLE_SECONDS (and at least once)
SAMPLE_SECONDS = 0.1

# write_s is timed in row blocks, written one serialize_libsvm call each, one
# after another into the input's file (the same text as a single call): a
# block of a few milliseconds often falls in one of the host's short
# uncontended spells, a whole 50-100 ms write seldom does.
WRITE_BLOCK_ROWS = 25


@dataclass
class MethodRun:
    label: str
    rows: list = field(default_factory=list)
    wall: float = 0.0
    error: "str | None" = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_samples(fn):
    """Call ``fn()`` until SAMPLE_SECONDS have passed; return the durations."""
    samples = []
    while not samples or sum(samples) < SAMPLE_SECONDS:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return samples


def row_blocks(data):
    """``data`` cut into consecutive datasets of WRITE_BLOCK_ROWS rows."""
    from cnsopt.datasets import SparseDataset

    return [SparseDataset(data.features[a:a + WRITE_BLOCK_ROWS],
                          data.labels[a:a + WRITE_BLOCK_ROWS], data.task)
            for a in range(0, data.n, WRITE_BLOCK_ROWS)]


def block_write_samples(serialize, blocks, path):
    """Write ``blocks`` into ``path`` with one ``serialize`` call each, again
    until SAMPLE_SECONDS have passed; return each write's block durations."""
    samples = []
    while not samples or sum(map(sum, samples)) < SAMPLE_SECONDS:
        durations = []
        with open(path, "w") as fh:
            for block in blocks:
                t0 = time.perf_counter()
                serialize(block, fh)
                durations.append(time.perf_counter() - t0)
        samples.append(durations)
    return samples


def race(bench, workload, inp, path, work, before_method=None):
    """Run every method of the workload once on one input."""
    runs = {}
    for method in workload.methods:
        cfg = workload.run_config(method, inp, path, work / f"{method.label}.csv")
        if before_method is not None:
            before_method(method.label)
        run = MethodRun(method.label)
        t0 = time.perf_counter()
        try:
            run.rows = bench.run_experiment(cfg)
        except Exception:  # a failed method run is counted, and the race goes on
            run.error = traceback.format_exc(limit=3)
        run.wall = time.perf_counter() - t0
        runs[method.label] = run
    return runs


def same_bits(a, b):
    """Bit-level equality of two float64 arrays."""
    import numpy as np

    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def round_trip_error(original, parsed):
    """None when the parsed LIBSVM text reproduces the generated dense arrays
    exactly."""
    if not same_bits(original.labels, parsed.labels):
        return "labels differ after the LIBSVM round trip"
    if not same_bits(original.features, parsed.features.toarray()):
        return "features differ after the LIBSVM round trip"
    return None


def evaluate(run, p_star, target, final_bound, cadence):
    """Gap metrics of one method run, or the reason it failed its checks.
    Chunk rates come from snapshot intervals of exactly ``cadence``
    iterations, which all do the same work (the last interval of a stage can
    be shorter)."""
    if run.error is not None:
        return None, f"{run.label} raised: {run.error.strip().splitlines()[-1]}"
    rows = run.rows
    if not rows or rows[-1].cumulative_iterations < 1:
        return None, f"{run.label}: empty trace"
    gaps = [r.objective_original - p_star for r in rows]
    if not all(g == g and abs(g) != float("inf") for g in gaps):
        return None, f"{run.label}: non-finite objective (diverged)"
    hit = next((r for r, g in zip(rows, gaps) if g <= target), None)
    if hit is None:
        return None, f"{run.label}: never reached the target gap {target:g} (final {gaps[-1]:.3g})"
    if gaps[-1] > final_bound:
        return None, f"{run.label}: final gap {gaps[-1]:.3g} above the bound {final_bound:g}"
    if gaps[-1] <= 0:
        return None, f"{run.label}: final objective below the reference optimum"
    return {
        "wall_to_gap_s": hit.wall_time_s,
        "iters_to_gap": hit.cumulative_iterations,
        "final_gap": gaps[-1],
        "chunk_us_per_iter": [
            (b.wall_time_s - a.wall_time_s) / (b.cumulative_iterations - a.cumulative_iterations)
            * 1e6 for a, b in zip(rows, rows[1:])
            if b.cumulative_iterations - a.cumulative_iterations == cadence],
    }, None


def trace_key(rows):
    """Trace columns other than wall time, as exact bit patterns."""
    return [(r.cumulative_iterations, r.stage, float(r.objective_original).hex(),
             float(r.test_metric).hex(), r.nnz) for r in rows]


def pooled(per_instance, over_instances):
    """Median of each instance's samples, combined over instances by
    ``over_instances``; None if empty. Iterations to the target gap use the
    mean, so that every instance weighs the same: they cluster by stage, and a
    median of a few instances would jump between clusters."""
    meds = [statistics.median(v) for v in per_instance.values() if v]
    return over_instances(meds) if meds else None


class Runner:
    def __init__(self, workload, seed, seconds, work):
        from cnsopt import bench, datasets

        import reference

        self.bench = bench
        self.datasets = datasets
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.cache = reference.ReferenceCache(str(env.OUT / "cache"))
        self.failures = []
        self.attempted = 0
        self.failed_runs = 0
        self.checks = {}

    def prepare_inputs(self, count):
        seeds = self.workload.instance_seeds(self.seed)[:count]
        inputs = [self.workload.generate(s) for s in seeds]
        paths = [self.work / f"input{j}.svm" for j in range(len(inputs))]
        return inputs, paths

    def references(self, problems, races):
        """P* per instance, plus the checks that the reference is usable."""
        w = self.workload
        refs = {}
        for j, problem in problems.items():
            ref = self.cache.get(w, problem)
            refs[j] = ref
            bracket = ref["p_upper"] - ref["p_star"]
            if bracket > 0.01 * w.target_gap:
                self.failures.append(f"instance {j}: reference bracket {bracket:.3g} is not "
                                     f"below 1% of the target gap")
            p0 = next((run.rows[0].objective_original for j2, runs in races if j2 == j
                       for run in runs.values() if run.rows), None)
            if p0 is not None and w.target_gap > 0.2 * (p0 - ref["p_star"]):
                self.failures.append(f"instance {j}: P(0)={p0:.6g} is not clearly above "
                                     f"P*={ref['p_star']:.6g}")
        self.checks["reference"] = dict(refs)
        return refs

    def score(self, races, refs, bad_inputs=()):
        """Evaluate every method run; returns per-label per-instance results."""
        results = {}
        for j, runs in races:
            for label, run in runs.items():
                self.attempted += 1
                out, why = evaluate(run, refs[j]["p_star"], self.workload.target_gap,
                                    self.workload.final_gap_bound,
                                    self.workload.method(label).options["cadence"])
                if j in bad_inputs:
                    why = f"{label}: input failed its LIBSVM round trip"
                if why is not None:
                    self.failed_runs += 1
                    self.failures.append(f"instance {j}: {why}")
                    continue
                results.setdefault(label, {}).setdefault(j, []).append(out)
        return results

    def end_to_end(self):
        w, datasets = self.workload, self.datasets
        inputs, paths = self.prepare_inputs(w.instances)
        blocks = [row_blocks(inp.data) for inp in inputs]
        problems, write, setup, races = {}, [], [], []

        def set_up(j):
            problems[j] = w.setup(inputs[j], paths[j])

        start = time.perf_counter()
        while len(races) < len(inputs) or time.perf_counter() - start < self.seconds:
            j = len(races) % len(inputs)
            write += block_write_samples(datasets.serialize_libsvm, blocks[j], paths[j])
            setup += timed_samples(lambda: set_up(j))
            races.append((j, race(self.bench, w, inputs[j], paths[j], self.work)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        bad_inputs = set()
        for j, inp in enumerate(inputs):
            parsed = (problems[j].data if w.libsvm
                      else datasets.parse_libsvm(paths[j], task=w.task))
            why = round_trip_error(inp.data, parsed)
            if why is not None:
                self.failures.append(f"instance {j}: {why}")
                bad_inputs.add(j)
        refs = self.references(problems, races)
        results = self.score(races, refs, bad_inputs)

        metrics = {
            "setup_s": min(setup),
            "write_s": sum(min(durations) for durations in zip(*write)),
            "run_wall_s": statistics.median(sum(r.wall for r in runs.values())
                                            for _, runs in races),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - self.failed_runs / self.attempted,
        }

        def over_instances(label, key, how):
            per = results.get(label, {})
            return pooled({j: [o[key] for o in outs] for j, outs in per.items()}, how)

        # the spread of the chunk rates shows how much the host's load slowed the run
        self.checks["chunk_us_per_iter_percentiles"] = {}
        for label in ("cns_a", "cns_na", "fobos", "apg"):
            chunks = [r for outs in results.get(label, {}).values() for o in outs
                      for r in o["chunk_us_per_iter"]]
            rate = min(chunks, default=None)
            if chunks:
                ordered = sorted(chunks)
                self.checks["chunk_us_per_iter_percentiles"][label] = {
                    q: ordered[len(ordered) * q // 100] for q in (0, 1, 5, 10, 25, 50)}
            iters = over_instances(label, "iters_to_gap", statistics.mean)
            metrics[f"{label}.us_per_iter"] = rate
            metrics[f"{label}.time_to_gap_s"] = (
                None if rate is None or iters is None else iters * rate * 1e-6)
        metrics["cns_a.iters_to_gap"] = over_instances("cns_a", "iters_to_gap", statistics.mean)
        final_gap = over_instances("cns_a", "final_gap", statistics.median)
        metrics["cns_a.final_gap_digits"] = None if final_gap is None else -math.log10(final_gap)
        self.checks.update(races=len(races), setup_samples=setup,
                           write_samples=[sum(durations) for durations in write])
        self.checks["per_instance"] = {
            label: {j: [{k: v for k, v in o.items() if k != "chunk_us_per_iter"} for o in outs]
                    for j, outs in per.items()}
            for label, per in results.items()}
        self.checks["race_walls"] = [(j, {k: r.wall for k, r in runs.items()}) for j, runs in races]
        return metrics, END_TO_END

    def per_layer(self):
        import tracing

        w, datasets = self.workload, self.datasets
        inputs, paths = self.prepare_inputs(1)
        inp, path = inputs[0], paths[0]
        recorder = tracing.SpanRecorder()
        with recorder.installed():
            recorder.set_run("setup")
            w.generate(inp.seed)
            datasets.serialize_libsvm(inp.data, path)
            problem = w.setup(inp, path)
            parsed = problem.data if w.libsvm else datasets.parse_libsvm(path, task=w.task)
        why = round_trip_error(inp.data, parsed)
        if why is not None:
            self.failures.append(why)

        untraced, traced, traced_runs = [], [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < self.seconds:
            k = len(traced)
            untraced.append(race(self.bench, w, inp, path, self.work))
            with recorder.installed():
                runs = race(self.bench, w, inp, path, self.work,
                            before_method=lambda label: recorder.set_run(f"{k}:{label}"))
            traced.append(runs)
            for label, run in runs.items():
                if run.rows:
                    traced_runs.append((f"{k}:{label}", label, run.rows[-1].cumulative_iterations))
                if trace_key(run.rows) != trace_key(untraced[k][label].rows):
                    self.failed_runs += 1
                    self.failures.append(f"race {k}: traced {label} trace differs from untraced")

        all_races = [(0, r) for r in untraced] + [(0, r) for r in traced]
        refs = self.references({0: problem}, all_races)
        self.score(all_races, refs, {0} if why else set())

        def wall(runs):
            return sum(run.wall for run in runs.values())

        overhead = (statistics.median(wall(r) for r in traced)
                    - statistics.median(wall(r) for r in untraced))
        values = tracing.per_layer_values(recorder, traced_runs, os.path.getsize(path), overhead)
        self.checks["traced_races"] = len(traced)
        self.checks["spans"] = len(recorder.start)
        env.OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
        recorder.save(env.OUT / "results" / f"{w.name}-seed{self.seed}-spans.npz")
        return values, tracing.per_layer_metrics()


def main(argv=None):
    args = parse_args(argv)
    try:
        env.prepare()
    except env.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = env.OUT / "work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, args.seed, args.seconds, work)
        values, specs = runner.per_layer() if args.trace else runner.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name, _, _ in specs if values.get(name) is None]
    for name in missing:
        runner.failures.append(f"metric {name} has no value")
    failed = max(runner.failed_runs, 1) if runner.failures else 0
    result = {
        "correct": not runner.failures,
        "attempted": max(runner.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit, _ in specs},
    }
    for name, unit, _ in specs:
        value = values.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{workload.name} {name}: {shown} {unit}")
    for why in runner.failures:
        print(f"perfbench: check failed: {why}", file=sys.stderr)

    env.OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.describe(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instance_seeds": workload.instance_seeds(args.seed),
        "environment": env.describe(),
        "checks": runner.checks,
        "failures": runner.failures,
        "result": result,
    }
    out = env.OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
