import argparse
import csv
import hashlib
import io
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import cnsopt
from cnsopt import (
    DivergenceError,
    RunConfig,
    SyntheticSpec,
    TuningError,
    compare_report,
    make_synthetic,
    run_experiment,
    serialize_libsvm,
    tune_stepsize,
)
from cnsopt import bench
from cnsopt.bench import TraceRow, gap_slope, read_trace, render_report, write_trace
from cnsopt.bench import test_metric as eval_metric
from cnsopt.cli import _add_run_flags, build_run_config, main, read_config_file

SYNTH = SyntheticSpec(n=120, d=10, task="classification", noise=0.2, separation=1.2,
                      seed=0)


def _config(**kw):
    base = dict(method="cns-a", loss="hinge", nu1=0.01, nu2=0.05, synthetic=SYNTH,
                gamma1=0.02, tau=2.0, t1=20, stages=3, batch_size=20, cadence=10,
                seed=0)
    base.update(kw)
    return RunConfig(**base)


def test_run_config_validation():
    with pytest.raises(ValueError):
        _config(method="sgd")
    with pytest.raises(ValueError):
        RunConfig(method="cns-a")  # neither dataset nor synthetic
    with pytest.raises(ValueError):
        _config(dataset="x.libsvm")  # both sources
    with pytest.raises(ValueError):
        _config(cadence=0)
    for method in ("cns-a", "fobos"):  # a continuation method and a baseline
        with pytest.raises(ValueError, match="time_budget"):
            _config(method=method, time_budget=-1.0)


def test_run_experiment_stage_tags_and_rows():
    rows = run_experiment(_config())
    assert rows[0].cumulative_iterations == 0 and rows[0].stage == 0
    # stages 1..3 with budgets 20/29/40 at cadence 10
    tags = [(r.cumulative_iterations, r.stage) for r in rows[1:]]
    assert tags[0] == (10, 1) and tags[1] == (20, 1)
    assert tags[-1][0] == 89 and tags[-1][1] == 3
    objectives = [r.objective_original for r in rows]
    assert objectives[-1] < objectives[0]
    assert all(np.isfinite(r.test_metric) for r in rows)


def test_run_experiment_cadence_larger_than_run():
    rows = run_experiment(_config(cadence=10_000))
    assert len(rows) == 2
    assert rows[0].cumulative_iterations == 0
    assert rows[1].cumulative_iterations == 89


def test_run_experiment_baseline_rows():
    rows = run_experiment(_config(method="fobos", eta0=0.5, iterations=35, cadence=10))
    assert [r.cumulative_iterations for r in rows] == [0, 10, 20, 30, 35]
    assert all(r.stage == -1 for r in rows)


def test_wall_time_monotone():
    rows = run_experiment(_config())
    times = [r.wall_time_s for r in rows]
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_csv_round_trip_and_determinism(tmp_path):
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    rows1 = run_experiment(_config(method="cns-na", solver="prox-svrg", output=p1))
    rows2 = run_experiment(_config(method="cns-na", solver="prox-svrg", output=p2))

    def strip_wall(path):
        with open(path) as fh:
            table = list(csv.reader(fh))
        header = table[0]
        drop = header.index("wall_time_s")
        return [[c for i, c in enumerate(row) if i != drop] for row in table]

    assert strip_wall(p1) == strip_wall(p2)
    back = read_trace(p1)
    assert len(back) == len(rows1)
    assert back[-1].objective_original == rows1[-1].objective_original
    assert back[-1].nnz == rows1[-1].nnz


def test_eval_metric_classification_and_regression():
    from cnsopt import SparseDataset

    ds = SparseDataset(np.array([[1.0], [1.0], [-1.0]]), np.array([1.0, -1.0, -1.0]),
                       "classification")
    # sign(z'x) with x = 1 predicts +1, +1, -1: one error in three
    assert eval_metric(ds, np.array([1.0])) == pytest.approx(1 / 3)
    dr = SparseDataset(np.array([[1.0], [2.0]]), np.array([1.0, 1.0]), "regression")
    assert eval_metric(dr, np.array([1.0])) == pytest.approx(0.5)


def test_time_budget_stops_early():
    cfg = _config(method="poly-sgd", eta0=0.2, iterations=500_000, cadence=50,
                  time_budget=0.05)
    rows = run_experiment(cfg)
    assert rows[-1].cumulative_iterations < 500_000


def test_compare_report_identical_traces():
    rows = run_experiment(_config())
    ref = min(r.objective_original for r in rows) - 1e-3
    summaries = compare_report({"a": rows, "b": rows}, 1e-2, ref)
    text = render_report(summaries, 1e-2)
    line_a, line_b = text.splitlines()[1:3]
    assert line_a.replace("a:", "") == line_b.replace("b:", "")


def test_compare_report_unreached():
    rows = [TraceRow(0.0, 0, -1, 1.0, 0.5, 3), TraceRow(1.0, 10, -1, 0.5, 0.4, 3)]
    summaries = compare_report({"x": rows, "y": rows}, 1e-6, 0.0)
    assert not summaries[0].reached
    assert "unreached" in render_report(summaries, 1e-6)
    with pytest.raises(ValueError):
        compare_report({"x": rows}, 1e-3, 0.0)


def test_gap_slope_recovers_power_law():
    rows = [TraceRow(0.0, t, -1, 1e-2 * t ** -1.5, 0.0, 1) for t in (10, 20, 40, 80, 160)]
    slope = gap_slope(rows, 0.0)
    assert slope == pytest.approx(-1.5, abs=1e-6)


def test_tune_stepsize_singleton_grid():
    cfg = _config(method="fobos", iterations=40)
    assert tune_stepsize(cfg, [0.7]) == 0.7


@pytest.mark.parametrize("method, grid, best, edge", (
    ("fobos", [0.1, 0.5, 1.0], 0.1, "lower"),
    ("cns-a", [0.1, 0.5, 1.0], 1.0, "upper"),
    ("fobos", [1.0, 0.01, 0.3, 0.03, 0.1], 0.1, None),  # unsorted, picked inside
    ("fobos", [0.7], 0.7, None),
))
def test_tune_stepsize_warns_on_a_grid_edge(caplog, method, grid, best, edge):
    cfg = _config(method=method, iterations=40)
    with caplog.at_level(logging.WARNING, logger="cnsopt.bench"):
        assert tune_stepsize(cfg, grid) == best
    warnings = [r.getMessage() for r in caplog.records if r.name == "cnsopt.bench"]
    if edge is None:
        assert warnings == []
    else:
        assert warnings == [f"{method}: tuned step {best:g} is the {edge} edge of the grid {grid}"]


def test_tune_stepsize_rejects_divergent():
    cfg = _config(method="poly-sgd", iterations=40)
    best = tune_stepsize(cfg, [1e9, 0.5])
    assert best == 0.5


def test_tune_stepsize_deterministic():
    cfg = _config(method="fobos", iterations=40)
    grid = [0.1, 0.5, 1.0]
    assert tune_stepsize(cfg, grid) == tune_stepsize(cfg, grid)


def test_tune_stepsize_all_divergent():
    cfg = _config(method="poly-sgd", iterations=40)
    with pytest.raises(TuningError):
        tune_stepsize(cfg, [1e300])


@pytest.mark.parametrize("method", ("cns-a", "fobos"))
def test_tune_stepsize_propagates_bugs(monkeypatch, method):
    def broken(*args, **kwargs):
        raise KeyError("bug in a candidate run")

    monkeypatch.setattr(bench, "cns_strongly_convex", broken)
    monkeypatch.setattr(bench.bl, "run_baseline", broken)
    with pytest.raises(KeyError):
        tune_stepsize(_config(method=method, iterations=40), [0.5, 1.0])


def test_tune_stepsize_skips_cns_errors(monkeypatch):
    calls = []

    def diverge_first(problem, ccfg, **kwargs):
        calls.append(ccfg.solver.step_scale)
        if len(calls) == 1:
            raise DivergenceError("diverged")
        return np.zeros(problem.d), []

    monkeypatch.setattr(bench, "cns_strongly_convex", diverge_first)
    assert tune_stepsize(_config(), [0.5, 1.0]) == 1.0
    assert calls == [0.5, 1.0]


@pytest.mark.parametrize("method", ("cns-a", "cns-na", "fobos"))
@pytest.mark.parametrize("loss", ("hinge", "absolute"))
def test_libsvm_run_matches_in_memory_run(tmp_path, method, loss):
    task = "classification" if loss == "hinge" else "regression"
    spec = SyntheticSpec(n=120, d=10, task=task, noise=0.2, separation=1.2, seed=0)
    path = tmp_path / "train.libsvm"
    serialize_libsvm(make_synthetic(spec)[0], str(path))
    # absolute loss + pure l1 takes the general convex driver
    reg = dict(nu1=0.01, nu2=0.05) if loss == "hinge" else dict(nu1=0.01, nu2=0.0, lam1=1e-3)
    common = dict(method=method, loss=loss, eta0=0.5, iterations=60, **reg)
    in_memory = run_experiment(_config(synthetic=spec, **common))
    from_file = run_experiment(_config(synthetic=None, dataset=str(path), **common))

    def columns(rows):
        return [(r.cumulative_iterations, r.stage, r.objective_original, r.nnz) for r in rows]

    assert columns(from_file) == columns(in_memory)


# --- CLI ------------------------------------------------------------------


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\nmethod = cns-a\nnu1 = 0.01\nstages = 3  # inline\nsolver = apg\n"
    )
    values = read_config_file(str(path))
    assert values == {"method": "cns-a", "nu1": 0.01, "stages": 3, "solver": "apg"}
    # a value is parsed by its flag's type, not by its look
    path.write_text("gamma1 = 1\ndataset = 7\nt1 = none\n")
    values = read_config_file(str(path))
    assert values == {"gamma1": 1.0, "dataset": "7", "t1": None}
    assert type(values["gamma1"]) is float


def test_config_file_line_without_equals_names_its_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("method = cns-a\n# comment\nseed 4\n")
    with pytest.raises(ValueError, match=r"bad.cfg: line 3: expected 'key = value', "
                                         r"got 'seed 4'"):
        read_config_file(str(path))


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("method = fobos\nseed = 4\nsynth-n = 50\nsynth-d = 6\n")
    ns = argparse.Namespace(
        **{k: None for k in (
            "method loss dataset test_dataset nu1 nu2 gamma1 tau t1 lam1 stages "
            "solver theta batch_size step_scale eta0 rda_scale averaging_exponent "
            "iterations cadence time_budget output seed synth_n synth_d "
            "synth_sparsity synth_noise synth_norm_lo synth_norm_hi"
        ).split()}
    )
    ns.config = str(path)
    ns.method = "rda"  # flag wins
    cfg = build_run_config(ns)
    assert cfg.method == "rda"
    assert cfg.seed == 4
    assert cfg.synthetic is not None and cfg.synthetic.n == 50


@pytest.mark.parametrize("stray", (["--synth-d", "20"],
                                   ["--synth-noise", "0.3", "--synth-norm-hi", "2"]))
def test_synthetic_flags_without_synth_n_are_rejected(tmp_path, stray):
    # a dataset run given synthetic flags fails instead of ignoring them
    data = tmp_path / "toy.libsvm"
    main(["synth", "--n", "20", "--d", "4", "--output", str(data)])
    with pytest.raises(ValueError, match="without synth_n") as err:
        main(["run", "--method", "cns-a", "--dataset", str(data)] + stray)
    for flag in stray[::2]:
        assert flag[2:].replace("-", "_") in str(err.value)


def test_synthetic_defaults_come_from_synthetic_spec(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("method = cns-a\nsynth-n = 30\nloss = absolute\nseed = 5\n")
    cfg = build_run_config(argparse.Namespace(config=str(path)))
    assert cfg.synthetic == SyntheticSpec(n=30, d=50, task="regression", seed=5)


def test_cli_synth_and_run(tmp_path):
    data = tmp_path / "toy.libsvm"
    rc = main(["synth", "--n", "60", "--d", "8", "--noise", "0.2", "--seed", "3",
               "--output", str(data)])
    assert rc == 0 and data.exists()

    trace = tmp_path / "trace.csv"
    rc = main([
        "run", "--method", "fobos", "--dataset", str(data), "--loss", "hinge",
        "--nu1", "0.01", "--nu2", "0.05", "--eta0", "0.5", "--iterations", "60",
        "--cadence", "20", "--batch-size", "10", "--output", str(trace),
    ])
    assert rc == 0
    rows = read_trace(str(trace))
    assert rows[-1].cumulative_iterations == 60


def test_cli_compare(tmp_path, capsys):
    rows = run_experiment(_config())
    path = tmp_path / "t.csv"
    write_trace(rows, str(path))
    rc = main(["compare", "--traces", f"run={path}", f"dup={path}",
               "--reference", "0.0", "--target-gap", "10.0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "run:" in out and "dup:" in out


def test_cli_run_rejects_a_budget_only_solver_before_reading_data(tmp_path):
    # the dataset does not exist: the solver id fails first, by name
    missing = tmp_path / "absent.libsvm"
    with pytest.raises(ValueError, match="unknown solver 'saga'"):
        main(["run", "--method", "cns-na", "--solver", "saga", "--dataset", str(missing)])
    with pytest.raises(ValueError, match="unknown solver 'miso'"):
        _config(solver="miso")


def _trace_file(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    return str(path)


_TRACE_HEADER = "wall_time_s,cumulative_iterations,stage,objective_original,test_metric,nnz\n"


def test_read_trace_names_the_line_of_a_bad_cell(tmp_path):
    path = _trace_file(tmp_path, _TRACE_HEADER + "0,0,0,1.5,0.5,0\n0.1,x,1,1.2,0.4,3\n")
    with pytest.raises(ValueError, match=r"t.csv: line 3: cumulative_iterations: "
                                         r"expected int, got 'x'"):
        read_trace(path)


def test_read_trace_names_a_missing_column(tmp_path):
    # a column absent from the header, then a row one cell short
    for header in (_TRACE_HEADER.replace(",nnz", ""), _TRACE_HEADER):
        path = _trace_file(tmp_path, header + "0,0,0,1.5,0.5\n")
        with pytest.raises(ValueError, match="t.csv: line 2: nnz: expected int, got None"):
            read_trace(path)


def test_read_trace_rejects_a_trace_without_rows(tmp_path):
    path = _trace_file(tmp_path, _TRACE_HEADER)
    with pytest.raises(ValueError, match="t.csv: no trace rows"):
        read_trace(path)


def test_cli_compare_rejects_a_repeated_name(tmp_path):
    path = tmp_path / "t.csv"
    write_trace(run_experiment(_config()), str(path))
    with pytest.raises(ValueError, match="trace name 'a' given twice"):
        main(["compare", "--traces", f"a={path}", f"a={path}", "--reference", "0.0"])


def test_cli_tune(capsys):
    rc = main([
        "tune", "--method", "fobos", "--synth-n", "80", "--synth-d", "6",
        "--loss", "hinge", "--nu1", "0.01", "--nu2", "0.05", "--iterations", "40",
        "--batch-size", "20", "--grid", "0.5,1.0",
    ])
    assert rc == 0
    assert "best step scale" in capsys.readouterr().out


def test_worker_count_names_a_bad_environment_value(monkeypatch):
    monkeypatch.setenv("CNSOPT_WORKERS", "two")
    with pytest.raises(ValueError, match="CNSOPT_WORKERS must be an integer, got 'two'"):
        bench.default_worker_count()
    monkeypatch.setenv("CNSOPT_WORKERS", "3")
    assert bench.default_worker_count() == 3


def test_cli_sweep(tmp_path, capsys):
    cfgs = []
    for i in range(2):
        trace = tmp_path / f"trace{i}.csv"
        cfg = tmp_path / f"run{i}.cfg"
        cfg.write_text(
            "method = fobos\nloss = hinge\nnu1 = 0.01\nnu2 = 0.05\neta0 = 0.5\n"
            f"iterations = 40\ncadence = 20\nbatch-size = 20\nseed = {i}\n"
            f"synth-n = 60\nsynth-d = 6\noutput = {trace}\n"
        )
        cfgs.append(str(cfg))
    env_before = os.environ.get("CNSOPT_WORKERS")
    os.environ["CNSOPT_WORKERS"] = "2"
    try:
        rc = main(["sweep", *cfgs])
    finally:
        if env_before is None:
            os.environ.pop("CNSOPT_WORKERS", None)
        else:
            os.environ["CNSOPT_WORKERS"] = env_before
    assert rc == 0
    assert (tmp_path / "trace0.csv").exists() and (tmp_path / "trace1.csv").exists()


@pytest.mark.parametrize("bad_source, reason", (
    ("synth-n = 60\nbogus-key = 1\n", "unknown config keys"),
    ("dataset = {bad}\n", "line 2:"),  # a LibsvmFormatError crosses the pool
    ("synth-n = 60\nstages = 2.5\n", "stages"),
    ("synth-n = 60\nstages = none\n", "stages"),
))
def test_cli_sweep_reports_a_failing_config_and_finishes(tmp_path, capsys, monkeypatch,
                                                         bad_source, reason):
    monkeypatch.setenv("CNSOPT_WORKERS", "2")
    bad_data = tmp_path / "bad.libsvm"
    bad_data.write_text("1 1:0.5\n-1 2:x\n")
    common = ("method = fobos\nloss = hinge\nnu1 = 0.01\nnu2 = 0.05\neta0 = 0.5\n"
              "iterations = 40\ncadence = 20\nbatch-size = 20\n")
    texts = {"a.cfg": common + "synth-n = 60\nseed = 1\n",
             "bad.cfg": common + bad_source.format(bad=bad_data),
             "b.cfg": common + "synth-n = 60\nseed = 2\n"}
    paths = []
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    rc = main(["sweep", *paths])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert [line.split(": ")[0] for line in lines] == paths
    assert lines[0].startswith(f"{paths[0]}: objective ")
    assert lines[1].startswith(f"{paths[1]}: failed: ") and reason in lines[1]
    assert lines[2].startswith(f"{paths[2]}: objective ")


def test_cli_entry_point_runs():
    # the subprocess imports the same cnsopt as this test, wherever it lives
    package_root = os.path.dirname(os.path.dirname(cnsopt.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cnsopt", "--help"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "sweep" in proc.stdout


# --- golden: the written traces and the run flags ----------------------------

# one seeded 60x6 hinge + elastic net instance; every method writes its trace
_GOLDEN_ARGS = ["--synth-n", "60", "--synth-d", "6", "--nu1", "0.01", "--nu2", "0.05",
                "--gamma1", "0.02", "--t1", "20", "--stages", "3", "--batch-size", "10",
                "--eta0", "0.5", "--iterations", "60", "--cadence", "15", "--seed", "3"]

# sha256 of each written CSV without its wall_time_s column
_GOLDEN_TRACES = {
    "cns-a": "4edcf4c0b6918c443e08d737f90095a5d75d68e5128051bd5688eef087bb023f",
    "cns-na": "82273b8aa6deb86cb40b102bae7dc29e04cd7a3592a988118bc090f88026f3dc",
    "fixed-gamma": "ddf26263dca35dc58dbc8c40a90f08a20ab3e8ebaa7f141d87e32d70d7312ccf",
    "fobos": "fc25af5eda5dbe65eeab65c2a728b73c6dbe539148ca2dc8a1d7550dc97466a9",
    "rda": "ee55ff7e6071dcc3f13391d8f7ea0d8727e34aaff2de4f12d989f7e61d69f28c",
    "poly-sgd": "fd95754bfcf2e17d4c842dba188d07653da75f16d62239eb961f86ef2bf11054",
}

_METHODS = ("cns-a", "cns-na", "fixed-gamma", "fobos", "rda", "poly-sgd")

# flag -> (type name, choices) of ``cnsopt run`` (and ``tune``, less --grid)
_RUN_FLAGS = {
    "--config": (None, None),
    "--method": (None, _METHODS),
    "--loss": (None, ("hinge", "absolute")),
    "--dataset": (None, None),
    "--test-dataset": (None, None),
    "--solver": (None, None),
    "--output": (None, None),
    "--nu1": ("float", None),
    "--nu2": ("float", None),
    "--gamma1": ("float", None),
    "--tau": ("float", None),
    "--lam1": ("float", None),
    "--theta": ("float", None),
    "--step-scale": ("float", None),
    "--eta0": ("float", None),
    "--rda-scale": ("float", None),
    "--averaging-exponent": ("float", None),
    "--time-budget": ("float", None),
    "--t1": ("int", None),
    "--stages": ("int", None),
    "--batch-size": ("int", None),
    "--iterations": ("int", None),
    "--cadence": ("int", None),
    "--seed": ("int", None),
    "--synth-n": ("int", None),
    "--synth-d": ("int", None),
    "--synth-sparsity": ("float", None),
    "--synth-noise": ("float", None),
    "--synth-norm-lo": ("float", None),
    "--synth-norm-hi": ("float", None),
}


@pytest.mark.parametrize("method", _METHODS)
def test_run_writes_the_golden_trace(tmp_path, method):
    out = tmp_path / "trace.csv"
    assert main(["run", "--method", method, *_GOLDEN_ARGS, "--output", str(out)]) == 0
    lines = [line.split(b",") for line in out.read_bytes().split(b"\r\n")]
    drop = lines[0].index(b"wall_time_s")
    stripped = b"\r\n".join(b",".join(c for i, c in enumerate(cells) if i != drop)
                             for cells in lines)
    assert hashlib.sha256(stripped).hexdigest() == _GOLDEN_TRACES[method]


def test_run_flags_are_pinned():
    parser = argparse.ArgumentParser()
    _add_run_flags(parser)
    flags = {a.option_strings[0]: (getattr(a.type, "__name__", None), a.choices)
             for a in parser._actions if a.dest != "help"}
    assert {k: (t, None if c is None else tuple(c)) for k, (t, c) in flags.items()} == _RUN_FLAGS
