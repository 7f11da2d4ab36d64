"""Checks of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest -q perfbench/selftest.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import env

if "numpy" in sys.modules:
    env.use_checkout_sources()
else:
    env.prepare()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cnsopt import bench, datasets  # noqa: E402
from cnsopt.continuation import cns_strongly_convex, reference_objective  # noqa: E402
from cnsopt.problem import objective_original  # noqa: E402


def test_certificate_bounds_the_oracle_gap_on_sc_dense():
    """On sc-dense seed 0 the dual certificate at the final cns-a iterate is an
    upper bound on the gap measured against the long reference run, and a
    tight one."""
    w = workloads.SC_DENSE
    inp = w.generate(0)
    problem = w.problem(inp.data)
    cfg = bench.continuation_config(w.run_config(w.method("cns_a"), inp, path=None))
    x, reports = cns_strongly_convex(problem, cfg)
    certified = reference.certified_gap(inp.data.features, inp.data.labels, x, w.nu1, w.nu2,
                                        reports[-1].gamma)
    oracle = objective_original(problem, x) - reference_objective(
        problem, gamma=1e-7, iterations=60_000)
    print(f"certified gap {certified:.4g}, oracle gap {oracle:.4g}")
    assert oracle > 0
    assert oracle <= certified <= 1.25 * oracle


def test_dense_and_csr_inputs_give_the_same_cns_a_objectives(tmp_path):
    """gc-libsvm's CSR input and its dense copy give the same cns-a trace."""
    w = workloads.GC_LIBSVM
    inp = w.generate(0)
    path = tmp_path / "gc.svm"
    datasets.serialize_libsvm(inp.data, path)
    method = w.method("cns_a")
    csr_rows = bench.run_experiment(w.run_config(method, inp, path))
    dense_cfg = dataclasses.replace(w.run_config(method, inp, path), dataset=None,
                                    synthetic=inp.spec)
    dense_rows = bench.run_experiment(dense_cfg)
    assert [r.cumulative_iterations for r in csr_rows] == [
        r.cumulative_iterations for r in dense_rows]
    csr = np.array([r.objective_original for r in csr_rows])
    dense = np.array([r.objective_original for r in dense_rows])
    np.testing.assert_allclose(csr, dense, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_libsvm_round_trip_is_bit_exact(name, tmp_path):
    w = workloads.WORKLOADS[name]
    inp = w.generate(3)
    path = tmp_path / "x.svm"
    datasets.serialize_libsvm(inp.data, path)
    parsed = datasets.parse_libsvm(path, task=w.task)
    assert run.round_trip_error(inp.data, parsed) is None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_block_write_gives_the_text_of_one_write(name, tmp_path):
    inp = workloads.WORKLOADS[name].generate(4)
    path = tmp_path / "x.svm"
    run.block_write_samples(datasets.serialize_libsvm, run.row_blocks(inp.data), path)
    assert path.read_text() == datasets.libsvm_dumps(inp.data)


def test_tracing_leaves_traces_unchanged():
    w = workloads.SC_DENSE
    inp = w.generate(1)
    cfg = w.run_config(w.method("cns_na"), inp, path=None)
    plain = bench.run_experiment(cfg)
    recorder = tracing.SpanRecorder()
    with recorder.installed():
        traced = bench.run_experiment(cfg)
    assert run.trace_key(traced) == run.trace_key(plain)
    assert bench.run_experiment.__name__ == "run_experiment"
    spans = recorder.arrays()
    assert len(spans["name"]) > 1000
    assert (spans["self"] >= -1e-9).all()
    assert "continuation.driver" in recorder.span_names


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        tracing.per_layer_metrics())
    assert spec["paths"] == ["perfbench"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(env.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sc-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
