import argparse
import csv
import hashlib
import logging
import math
import os
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sparse

import cnsopt
from cnsopt import (
    DivergenceError,
    LibsvmFormatError,
    RunConfig,
    SparseDataset,
    SyntheticSpec,
    TuningError,
    compare_report,
    make_synthetic,
    run_experiment,
    serialize_libsvm,
    tune_stepsize,
)
from cnsopt import bench, cli
from cnsopt.bench import TraceRow, gap_slope, read_trace, render_report, write_trace
from cnsopt.bench import test_metric as eval_metric
from cnsopt.cli import _add_run_flags, build_run_config, main, read_config_file, run_cli

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
    # both once failed only after the run had generated its datasets
    with pytest.raises(ValueError, match="hinge loss requires a classification dataset"):
        _config(synthetic=SyntheticSpec(n=20, d=3, task="regression"))
    with pytest.raises(ValueError, match="iterations must be >= 1, got 0"):
        _config(method="fobos", iterations=0)
    # a synthetic run's test set is its spec at seed + 1: a test file was
    # once accepted and never opened
    with pytest.raises(ValueError, match="test_dataset needs a dataset"):
        _config(method="fobos", test_dataset="x.libsvm")
    # no driver runs nu2 = lam1 = 0; it was once rejected only after the data
    # was read, and tune_stepsize skipped every candidate as a divergence
    for method in ("cns-a", "cns-na"):
        with pytest.raises(ValueError, match=r"needs nu2 > 0 .* or lam1 > 0"):
            _config(method=method, nu2=0.0)
    # checked with the RunConfig, before any data is read
    for method, field in (("cns-a", "nu1"), ("fobos", "nu2"), ("cns-a", "gamma1"),
                          ("cns-na", "tau"), ("cns-a", "lam1"), ("cns-a", "step_scale"),
                          ("fobos", "eta0"), ("rda", "eta0"), ("fobos", "tau"),
                          ("cns-a", "eta0")):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                _config(method=method, **{field: value})
    # a NaN candidate was once skipped without a word, as a divergence
    with pytest.raises(ValueError, match="step_scale must be finite"):
        tune_stepsize(_config(), [math.nan, 1.0])


@pytest.mark.parametrize("bad, message", [
    (dict(tau=0.5), "tau must be >= 1"),
    (dict(stages=0), "stages must be >= 1"),
    (dict(batch_size=0), "batch_size must be >= 1"),
    (dict(method="fobos", eta0=0.0), "eta0 must be positive"),
    (dict(tau=1.0, t1=None), "needs a t1"),
])
def test_run_config_checks_the_methods_own_settings(bad, message):
    # the method's ContinuationConfig or BaselineSpec is built with the RunConfig
    with pytest.raises(ValueError, match=message):
        _config(**bad)


def test_cli_run_rejects_a_bad_setting_before_reading_data(tmp_path):
    missing = tmp_path / "absent.libsvm"
    with pytest.raises(ValueError, match="tau must be >= 1"):
        main(["run", "--method", "cns-a", "--dataset", str(missing), "--tau", "0.5"])
    # fixed smoothing is tau = 1, where the automatic t1 has nothing to seek
    with pytest.raises(ValueError, match="needs a t1"):
        main(["run", "--method", "cns-a", "--dataset", str(missing), "--tau", "1"])
    # ... and has no method of its own: neither a flag nor a config file names one
    with pytest.raises(SystemExit):
        main(["run", "--method", "fixed-gamma", "--dataset", str(missing), "--t1", "20"])
    config = tmp_path / "fixed.cfg"
    config.write_text(f"method = fixed-gamma\ndataset = {missing}\nnu2 = 0.05\nt1 = 20\n")
    with pytest.raises(ValueError, match="unknown method 'fixed-gamma'"):
        main(["run", "--config", str(config)])
    # a negative seed was once checked only by numpy, after the data was read
    for method in ("fobos", "cns-a"):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
            main(["run", "--method", method, "--nu2", "0.05", "--dataset", str(missing),
                  "--seed", "-1"])
    # ... and a bad grid value only when its candidate ran
    for method, knob in (("fobos", "eta0"), ("cns-a", "step_scale")):
        for value in ("-1", "0", "nan", "inf"):
            with pytest.raises(ValueError, match=f"grid value {value}: {knob} must be finite "
                               "and positive"):
                main(["tune", "--method", method, "--nu2", "0.05", "--dataset", str(missing),
                      "--grid", f"0.5,{value}"])


def test_cli_run_names_a_malformed_dataset(tmp_path, capsys):
    bad = tmp_path / "bad.libsvm"
    bad.write_text("1 1:0.5\n-1 x:2\n")
    assert run_cli(["run", "--method", "cns-a", "--nu2", "0.05", "--dataset", str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"cnsopt: error: {bad}: line 2: bad feature token 'x:2'\n")


def test_cli_run_names_a_malformed_test_dataset(tmp_path, capsys):
    # the training file parses, so the error is the test file's, by name
    data, _ = make_synthetic(SyntheticSpec(n=30, d=4, task="classification", seed=1))
    train, bad = tmp_path / "train.libsvm", tmp_path / "test.libsvm"
    serialize_libsvm(data, train)
    bad.write_text("1 1:0.5\n\n-1 3:1 2:1\n")
    argv = ["run", "--method", "fobos", "--dataset", str(train), "--test-dataset", str(bad),
            "--iterations", "5"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == (
        f"cnsopt: error: {bad}: line 3: feature indices not strictly ascending at 2\n")


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
    ds = SparseDataset(np.array([[1.0], [1.0], [-1.0]]), np.array([1.0, -1.0, -1.0]),
                       "classification")
    # sign(z'x) with x = 1 predicts +1, +1, -1: one error in three
    assert eval_metric(ds, np.array([1.0])) == pytest.approx(1 / 3)
    dr = SparseDataset(np.array([[1.0], [2.0]]), np.array([1.0, 1.0]), "regression")
    assert eval_metric(dr, np.array([1.0])) == pytest.approx(0.5)


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
    # these once printed "unreached (final gap nan)" and exited 0
    with pytest.raises(ValueError, match="reference must be finite"):
        compare_report({"x": rows, "y": rows}, 1e-3, math.nan)
    with pytest.raises(ValueError, match="target_gap must be > 0, got -1"):
        compare_report({"x": rows, "y": rows}, -1.0, 0.0)


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
    with pytest.raises(ValueError, match="grid must be nonempty"):
        tune_stepsize(cfg, [])


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
    # without a test set, the file run's metric is on its training rows: record
    # the iterate of each snapshot
    iterates = []
    metric = bench.test_metric

    def recording(dataset, x, scores=None):
        iterates.append(x.copy())
        return metric(dataset, x, scores)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "test_metric", recording)
        from_file = run_experiment(_config(synthetic=None, dataset=str(path), **common))

    def columns(rows):
        return [(r.cumulative_iterations, r.stage, r.objective_original, r.nnz) for r in rows]

    assert columns(from_file) == columns(in_memory)
    dense = make_synthetic(spec)[0]
    assert len(iterates) == len(from_file)
    assert ([r.test_metric for r in from_file]
            == [eval_metric(dense, x) for x in iterates])


@pytest.mark.parametrize("loss", ("hinge", "absolute"))
def test_csr_kept_as_csr_matches_its_dense_copy(loss):
    # 600 x 50 rows at 10% density: the problem solves on the CSR as is
    task = "classification" if loss == "hinge" else "regression"
    data, w = make_synthetic(SyntheticSpec(n=600, d=50, task=task, seed=4))
    rows = data.features * (np.random.default_rng(5).random(data.features.shape) < 0.1)
    labels = data.labels
    if loss == "absolute":
        # the planted model's standardized scores on the kept entries, with
        # the same noise: labels that the full rows fit leave x = 0 optimal
        scores = rows.dot(w)
        labels = labels - data.features.dot(w) + scores / scores.std()
    reg = dict(nu1=0.01, nu2=0.05) if loss == "hinge" else dict(nu1=0.01, nu2=0.0, lam1=1e-3)
    problems = [cnsopt.CompositeProblem(SparseDataset(feats, labels, task), loss,
                                        cnsopt.Regularizer(nu1=reg["nu1"], nu2=reg["nu2"]))
                for feats in (sparse.csr_matrix(rows), rows)]
    assert sparse.issparse(problems[0].features) and not sparse.issparse(problems[1].features)
    for method, solver in (("cns-a", None), ("cns-na", None), ("cns-a", "apg"),
                           ("cns-a", "prox-gd"), ("fobos", None), ("rda", None),
                           ("poly-sgd", None)):
        cfg = _config(method=method, loss=loss, solver=solver, synthetic=None,
                      dataset="unread.libsvm", t1=30, stages=4, batch_size=20,
                      iterations=200, eta0=1.0 if method == "rda" else 0.3, **reg)
        xs = [bench._run_method(cfg, problem)[0] for problem in problems]
        values = [cnsopt.objective_original(problem, x) for problem, x in zip(problems, xs)]
        assert np.max(np.abs(xs[0] - xs[1])) <= 1e-12, (method, solver)
        assert abs(values[0] - values[1]) <= 1e-13 * abs(values[1]), (method, solver)


def _libsvm_config(path, **kw):
    return _config(synthetic=None, dataset=str(path), **kw)


def test_load_problem_parses_a_file_content_once(tmp_path):
    path = tmp_path / "train.libsvm"
    serialize_libsvm(make_synthetic(SYNTH)[0], str(path))
    first, _ = bench.load_problem(_libsvm_config(path))
    assert bench.load_problem(_libsvm_config(path, method="fobos"))[0].data is first.data
    # the same bytes written again: the same dataset
    path.write_bytes(path.read_bytes())
    assert bench.load_problem(_libsvm_config(path))[0].data is first.data
    # the same bytes under another name, too
    other = tmp_path / "copy.libsvm"
    other.write_bytes(path.read_bytes())
    assert bench.load_problem(_libsvm_config(other))[0].data is first.data


def test_load_problem_parses_a_same_size_rewrite_with_the_old_mtime(tmp_path):
    path = tmp_path / "train.libsvm"
    path.write_text("+1 1:0.5 2:0.25\n-1 1:0.75\n")
    stat = os.stat(path)
    first, _ = bench.load_problem(_libsvm_config(path))
    path.write_text("+1 1:0.5 2:0.75\n-1 1:0.25\n")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size
    assert os.stat(path).st_mtime_ns == stat.st_mtime_ns
    second, _ = bench.load_problem(_libsvm_config(path))
    assert second.data is not first.data
    assert second.data.features.toarray().tolist() == [[0.5, 0.75], [0.25, 0.0]]


def test_load_problem_names_a_malformed_file_on_every_call(tmp_path):
    path = tmp_path / "bad.libsvm"
    path.write_text("+1 1:0.5\n-1 x:2\n")
    for _ in range(2):
        with pytest.raises(LibsvmFormatError) as err:
            bench.load_problem(_libsvm_config(path))
        assert str(err.value) == f"{path}: line 2: bad feature token 'x:2'"
    path.write_text("+1 1:0.5\n-1 2:2\n")
    assert bench.load_problem(_libsvm_config(path))[0].n == 2


def _dataset_arrays(data):
    feats = data.features
    if sparse.issparse(feats):
        return [feats.data, feats.indices, feats.indptr, data.labels]
    return [feats, data.labels]


@pytest.mark.parametrize("loss", ("hinge", "absolute"))
@pytest.mark.parametrize("density", (1.0, 0.1))
def test_remembered_datasets_are_read_only_and_no_run_writes_them(tmp_path, loss, density):
    task = "classification" if loss == "hinge" else "regression"
    data = make_synthetic(SyntheticSpec(n=120, d=10, task=task, noise=0.2, seed=1))[0]
    if density < 1.0:
        # a CSR sparse enough that the problem solves on it as is
        keep = np.random.default_rng(0).random(data.features.shape) < density
        data = SparseDataset(sparse.csr_matrix(data.features * keep), data.labels, task)
    path = tmp_path / "train.libsvm"
    serialize_libsvm(data, str(path))
    reg = dict(nu1=0.01, nu2=0.05) if loss == "hinge" else dict(nu1=0.01, nu2=0.0, lam1=1e-3)
    configs = [_libsvm_config(path, method=m, loss=loss, eta0=0.5, iterations=40, **reg)
               for m in bench.METHODS]
    configs.append(_config(method="cns-a", loss=loss, eta0=0.5,
                           synthetic=SyntheticSpec(n=60, d=5, task=task, seed=2), **reg))
    for cfg in configs:
        problem, test = bench.load_problem(cfg)
        assert sparse.issparse(problem.features) == (density < 1.0 and cfg.dataset is not None)
        held = [a for ds in (problem.data, test) if ds is not None for a in _dataset_arrays(ds)]
        assert not any(a.flags.writeable for a in held)
        before = [a.copy() for a in held]
        run_experiment(cfg)
        assert bench.load_problem(cfg)[0].data is problem.data
        assert all(np.array_equal(a, b) for a, b in zip(held, before))


def test_load_problem_remembers_the_last_two_inputs(tmp_path):
    paths = []
    for seed in range(3):
        data = make_synthetic(SyntheticSpec(n=20, d=4, task="classification", seed=seed))[0]
        paths.append(tmp_path / f"input{seed}.libsvm")
        serialize_libsvm(data, str(paths[-1]))
    loaded = [bench.load_problem(_libsvm_config(p))[0].data for p in paths]
    assert len(bench._RECENT_INPUTS) == 2
    # the two last stay; the first was dropped and is parsed again
    assert bench.load_problem(_libsvm_config(paths[2]))[0].data is loaded[2]
    assert bench.load_problem(_libsvm_config(paths[1]))[0].data is loaded[1]
    assert bench.load_problem(_libsvm_config(paths[0]))[0].data is not loaded[0]
    assert len(bench._RECENT_INPUTS) == 2
    # a synthetic run holds its training and its test set
    problem, test = bench.load_problem(_config())
    assert len(bench._RECENT_INPUTS) == 2
    again, again_test = bench.load_problem(_config(method="fobos"))
    assert again.data is problem.data and again_test is test


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
    # a key given twice once ran with its last value
    path.write_text("method = cns-a\nseed = 1\nmethod = fobos\n")
    with pytest.raises(ValueError, match=r"bad.cfg: line 3: method given twice "
                                         r"\(first on line 1\)"):
        read_config_file(str(path))


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("method = fobos\nseed = 4\nsynth-n = 50\nsynth-d = 6\n")
    ns = argparse.Namespace(
        **{k: None for k in (
            "method loss dataset test_dataset nu1 nu2 gamma1 tau t1 lam1 stages "
            "solver theta batch_size step_scale eta0 "
            "iterations cadence output seed synth_n synth_d "
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


def test_synthetic_defaults_come_from_synthetic_spec(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("method = cns-a\nsynth-n = 30\nloss = absolute\nseed = 5\nlam1 = 1e-3\n")
    cfg = build_run_config(argparse.Namespace(config=str(path)))
    assert cfg.synthetic == SyntheticSpec(n=30, d=50, task="regression", seed=5)
    # cnsopt synth without --d takes the same default
    out = tmp_path / "synth.libsvm"
    assert main(["synth", "--n", "30", "--output", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 30 x 50 classification dataset to {out}\n"


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
    assert main(["sweep", *cfgs]) == 0
    assert (tmp_path / "trace0.csv").exists() and (tmp_path / "trace1.csv").exists()


def test_cli_sweep_runs_one_worker_per_config_at_most_one_per_cpu(tmp_path, monkeypatch):
    asked = []

    def pool(max_workers):
        asked.append(max_workers)
        return ThreadPoolExecutor(max_workers)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    cfgs = []
    for i in range(2):
        cfg = tmp_path / f"run{i}.cfg"
        cfg.write_text("method = fobos\nnu1 = 0.01\nnu2 = 0.05\niterations = 20\n"
                       f"cadence = 10\nbatch-size = 20\nseed = {i}\nsynth-n = 40\n")
        cfgs.append(str(cfg))
    # os.cpu_count() may be None
    for cpus in (8, 1, None):
        monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
        assert main(["sweep", *cfgs]) == 0
    assert asked == [2, 1, 1]


@pytest.mark.parametrize("bad_source, reason", (
    ("synth-n = 60\nbogus-key = 1\n", "unknown config keys"),
    ("dataset = {bad}\n", "line 2:"),  # a LibsvmFormatError crosses the pool
    ("synth-n = 60\nstages = 2.5\n", "stages"),
    ("synth-n = 60\nstages = none\n", "stages"),
))
def test_cli_sweep_reports_a_failing_config_and_finishes(tmp_path, capsys, bad_source,
                                                         reason):
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


def test_cli_sweep_names_the_malformed_dataset_of_a_failing_config(tmp_path, capsys):
    # the error crosses the process pool with its path, line and message
    bad = tmp_path / "bad.libsvm"
    bad.write_text("1 1:0.5\n-1 x:2\n")
    common = ("method = fobos\nloss = hinge\nnu1 = 0.01\nnu2 = 0.05\neta0 = 0.5\n"
              "iterations = 40\ncadence = 20\nbatch-size = 20\n")
    good, failing = tmp_path / "good.cfg", tmp_path / "failing.cfg"
    good.write_text(common + "synth-n = 60\nseed = 1\n")
    failing.write_text(common + f"dataset = {bad}\n")
    assert main(["sweep", str(good), str(failing)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"{good}: objective ")
    assert lines[1] == f"{failing}: failed: {bad}: line 2: bad feature token 'x:2'"


def _python_m_cnsopt(*args, cwd=None):
    # the subprocess imports the same cnsopt as this test, wherever it lives;
    # a command that hangs fails the test with TimeoutExpired
    package_root = os.path.dirname(os.path.dirname(cnsopt.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cnsopt", *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=60, cwd=cwd,
    )


def test_cli_entry_point_runs():
    proc = _python_m_cnsopt("--help")
    assert proc.returncode == 0
    assert "run" in proc.stdout and "sweep" in proc.stdout


def test_readme_cli_walkthrough_runs(tmp_path):
    # the README's "## CLI" sh block, one command per line once its
    # continuations are joined, run in order in an empty directory
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme) as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.strip()]
    assert [argv[:2] for argv in commands] == [["cnsopt", "synth"], ["cnsopt", "run"],
                                               ["cnsopt", "run"], ["cnsopt", "compare"]]
    for argv in commands:
        proc = _python_m_cnsopt(*argv[1:], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    # the reference is the dataset's P*, rounded down: both methods reach the
    # target gap, cns-a in far fewer iterations
    report = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in report[1:]] == ["cns-a", "fobos"]
    assert all(": reached in " in line for line in report[1:])
    cns_a, fobos = (int(line.split(" reached in ")[1].split()[0]) for line in report[1:])
    assert cns_a < fobos


def test_cli_entry_point_reports_an_input_error_in_one_line(tmp_path, capsys):
    absent = str(tmp_path / "absent.libsvm")
    synth_out = str(tmp_path / "synth.libsvm")
    # time-budget was a RunConfig field once: a config file naming it now fails
    stale = tmp_path / "stale.cfg"
    stale.write_text("method = fobos\nsynth-n = 40\ntime-budget = 1\n")
    fractional = tmp_path / "fractional.cfg"
    fractional.write_text("method = cns-a\nnu2 = 0.1\nsynth-n = 40\nt1 = 2.5\n")
    no_driver = ("a continuation run needs nu2 > 0 (the strongly convex driver) "
                 "or lam1 > 0 (the general convex one)")
    cases = [
        (["run", "--method", "cns-na", "--solver", "saga", "--dataset", absent],
         "unknown solver 'saga'"),
        # tau = inf once ended in an OverflowError traceback from stage_budget
        (["run", "--method", "cns-a", "--nu2", "0.05", "--tau", "inf", "--synth-n", "40"],
         "tau must be finite, got inf"),
        # a finite tau once gave stage 2 about 5e100 iterations, and ran on
        (["run", "--method", "cns-a", "--nu2", "0.05", "--tau", "1e200", "--stages", "3",
          "--synth-n", "40", "--t1", "5"],
         "tau = 1e+200 grows the stage budgets from t1 = 5 past 2**53"),
        # ... or an OverflowError traceback, after tau**2 overflowed
        (["run", "--method", "cns-na", "--loss", "absolute", "--nu1", "0.01", "--lam1", "1e-5",
          "--tau", "1e200", "--stages", "2", "--synth-n", "40", "--t1", "5"],
         "tau = 1e+200 grows the stage budgets from t1 = 5 past 2**53"),
        # the Lipschitz bound overflowed to a zero step, after an overflow warning
        (["run", "--method", "cns-a", "--nu2", "0.05", "--gamma1", "1e-320", "--synth-n", "40",
          "--t1", "5"],
         "gamma = 9.99989e-321 is too small: the Lipschitz bound max ||z_i||^2 / gamma "
         "overflows"),
        # a synthetic run once exited 0 without opening its test file
        (["run", "--method", "fobos", "--synth-n", "40", "--test-dataset", absent,
          "--iterations", "20", "--cadence", "10"],
         "test_dataset needs a dataset: a synthetic run tests on its spec at seed + 1"),
        # nu2 = lam1 = 0 fits no driver: once the missing file's error, and in
        # tune "every step-size candidate diverged"
        (["run", "--method", "cns-a", "--dataset", absent], no_driver),
        (["tune", "--method", "cns-a", "--synth-n", "40", "--t1", "5", "--grid", "0.5,1"],
         no_driver),
        (["run", "--config", str(stale)], f"{stale}: unknown config keys: ['time_budget']"),
        # a negative seed once failed in numpy ("expected non-negative
        # integer"), naming no setting, after the data was read or generated
        (["run", "--method", "fobos", "--seed", "-1", "--dataset", absent],
         "seed must be a nonnegative integer, got -1"),
        (["run", "--method", "cns-a", "--nu2", "0.1", "--t1", "5", "--stages", "2", "--seed",
          "-1", "--synth-n", "40"], "seed must be a nonnegative integer, got -1"),
        (["synth", "--n", "10", "--seed", "-1", "--output", synth_out],
         "seed must be a nonnegative integer, got -1"),
        # a bad grid value once failed only when its candidate ran, and after
        # a missing file's error
        (["tune", "--method", "fobos", "--synth-n", "60", "--grid", "0.5,1,-1"],
         "grid value -1: eta0 must be finite and positive"),
        (["tune", "--method", "fobos", "--dataset", absent, "--grid", "-1"],
         "grid value -1: eta0 must be finite and positive"),
        # a negative noise once failed in numpy ("scale < 0"), or generated data
        (["synth", "--n", "10", "--task", "regression", "--noise", "-1", "--output", synth_out],
         "noise must be nonnegative, got -1.0"),
        (["synth", "--n", "10", "--noise", "-1", "--output", synth_out],
         "noise must be nonnegative, got -1.0"),
        # a grid token that is not a number once named neither the flag nor the token
        (["tune", "--method", "fobos", "--synth-n", "40", "--grid", "0.5,abc"],
         "--grid: expected float, got 'abc'"),
        # each setting is checked by its declared domain, before any data is made
        (["run", "--config", str(fractional)],
         f"{fractional}: line 4: t1: expected int, got '2.5'"),
        (["run", "--method", "fobos", "--synth-n", "0"], "n must be >= 1, got 0"),
        (["run", "--method", "fobos", "--dataset", absent, "--iterations", "0"],
         "iterations must be >= 1, got 0"),
        (["run", "--method", "cns-a", "--dataset", absent, "--nu2", "-1"],
         "nu2 must be nonnegative, got -1.0"),
    ]
    # one case through ``python -m cnsopt`` proves the entry point runs ``run_cli``
    args, message = cases[0]
    proc = _python_m_cnsopt(*args)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"cnsopt: error: {message}"]
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    for args, message in cases[1:]:
        assert run_cli(args) == 1, args
        out, err = capsys.readouterr()
        assert err.splitlines() == [f"cnsopt: error: {message}"] and out == ""
    assert not os.path.exists(synth_out)


# --- golden: the written traces and the run flags ----------------------------

# one seeded 60x6 hinge + elastic net instance; every method writes its trace
_GOLDEN_ARGS = ["--synth-n", "60", "--synth-d", "6", "--nu1", "0.01", "--nu2", "0.05",
                "--gamma1", "0.02", "--t1", "20", "--stages", "3", "--batch-size", "10",
                "--eta0", "0.5", "--iterations", "60", "--cadence", "15", "--seed", "3"]

# sha256 of each written CSV without its wall_time_s column, by the method
# and the flags the case adds; fixed smoothing is cns-a at tau = 1
_GOLDEN_TRACES = {
    "cns-a": "4edcf4c0b6918c443e08d737f90095a5d75d68e5128051bd5688eef087bb023f",
    "cns-na": "82273b8aa6deb86cb40b102bae7dc29e04cd7a3592a988118bc090f88026f3dc",
    "cns-a --tau 1": "ddf26263dca35dc58dbc8c40a90f08a20ab3e8ebaa7f141d87e32d70d7312ccf",
    "fobos": "fc25af5eda5dbe65eeab65c2a728b73c6dbe539148ca2dc8a1d7550dc97466a9",
    "rda": "ee55ff7e6071dcc3f13391d8f7ea0d8727e34aaff2de4f12d989f7e61d69f28c",
    "poly-sgd": "fd95754bfcf2e17d4c842dba188d07653da75f16d62239eb961f86ef2bf11054",
}

_METHODS = ("cns-a", "cns-na", "fobos", "rda", "poly-sgd")

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


def _without_wall_time(path):
    """The bytes of a written trace CSV without its wall_time_s column."""
    lines = [line.split(b",") for line in path.read_bytes().split(b"\r\n")]
    drop = lines[0].index(b"wall_time_s")
    return b"\r\n".join(b",".join(c for i, c in enumerate(cells) if i != drop)
                        for cells in lines)


@pytest.mark.parametrize("case", _GOLDEN_TRACES)
def test_run_writes_the_golden_trace(tmp_path, case):
    out = tmp_path / "trace.csv"
    method, *flags = case.split()
    # the rda trace was pinned at a step scale of 1
    step = ["--eta0", "1"] if method == "rda" else []
    assert main(["run", "--method", method, *_GOLDEN_ARGS, *flags, *step,
                 "--output", str(out)]) == 0
    assert hashlib.sha256(_without_wall_time(out)).hexdigest() == _GOLDEN_TRACES[case]


def test_run_flags_are_pinned():
    parser = argparse.ArgumentParser()
    _add_run_flags(parser)
    flags = {a.option_strings[0]: (getattr(a.type, "__name__", None), a.choices)
             for a in parser._actions if a.dest != "help"}
    assert {k: (t, None if c is None else tuple(c)) for k, (t, c) in flags.items()} == _RUN_FLAGS
