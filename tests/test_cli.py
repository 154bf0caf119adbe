"""End-to-end command line runs: exit codes, file sets, determinism."""

import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

import fatkpp
from fatkpp import cli, errors, output
from fatkpp.cli import main
from fatkpp.config import READS, parse_config
from fatkpp.hj import (HJSolution, Hamiltonian, comparison_times,
                       cross_validate, solve_constrained_hj, window_nodes)
from fatkpp.mutation import mutation_initial_data, mutation_run
from fatkpp.propagation import read_window


def _cfg(tmp_path, doc, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _manifest(outdir):
    return json.load(open(os.path.join(outdir, "run.json")))


def test_missing_config_file_exits_4(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.json")]) == 4
    assert "cannot read" in capsys.readouterr().err


def test_bad_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{")
    assert main(["--config", str(p)]) == 2
    assert "line" in capsys.readouterr().err


def test_invalid_config_lists_issues_and_exits_2(tmp_path, capsys):
    doc = {"experiment": "Simulate",
           "kernel": {"family": "SubExponential", "alpha": 1.5},
           "grid": {"L": 100, "N": 1024},
           "solver": {"t_end": 1}}
    assert main(["--config", _cfg(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and "alpha" in err


def test_kernel_without_a_tail_bound_is_a_config_issue(tmp_path, capsys):
    """beta = 1.01 (mu = 1.01) is admissible, but no radius up to 1e300
    bounds its tail within the quadrature budget: building the kernel
    fails, and validation reports that as a kernel issue, warning-free."""
    doc = {"experiment": "KernelValidate",
           "kernel": {"family": "LogLinear", "beta": 1.01}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", _cfg(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "kernel: fitting the tail bound" in err
    assert "Traceback" not in err


def test_kernel_parameters_the_family_does_not_read_are_refused(
        tmp_path, capsys):
    """Polynomial reads alpha only; beta and sigma were once ignored."""
    doc = {"experiment": "KernelValidate",
           "kernel": {"family": "Polynomial", "alpha": 4, "beta": 7,
                      "sigma": 2}}
    out = tmp_path / "out"
    assert main(["--config", _cfg(tmp_path, doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "kernel.beta: not read by Polynomial" in err
    assert "kernel.sigma: not read by Polynomial" in err
    assert not out.exists()


def test_every_error_class_has_an_exit_code():
    """Inadmissible input exits 2, a failed run 3, a malformed config 2
    and an output failure 4; each class reads its code from itself."""
    classes = [c for c in vars(errors).values() if isinstance(c, type)
               and issubclass(c, errors.FatKppError)
               and c is not errors.FatKppError]
    assert len(classes) == 15
    for c in classes:
        if issubclass(c, errors.InvalidParams) or c is errors.ParseError:
            assert c.exit_code == 2, c.__name__
        elif c is errors.IoError:
            assert c.exit_code == 4, c.__name__
        else:
            assert c.exit_code == 3, c.__name__


def test_an_output_directory_under_a_file_exits_4(tmp_path, capsys):
    doc = {"experiment": "KernelValidate",
           "kernel": {"family": "LogLinear", "beta": 3}}
    cfg = _cfg(tmp_path, doc)
    (tmp_path / "file").write_text("")
    before = sorted(os.listdir(tmp_path))
    assert main(["--config", cfg, "--out",
                 str(tmp_path / "file" / "out"), "--quiet"]) == 4
    assert "cannot create" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


def test_kernel_validate_writes_the_report(tmp_path):
    doc = {"experiment": "KernelValidate",
           "kernel": {"family": "LogLinear", "beta": 3},
           "output": {"directory": str(tmp_path / "out")}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    doc = _manifest(str(tmp_path / "out"))
    assert doc["manifest"]["hypotheses_passed"] is True
    assert doc["manifest"]["mu"] == pytest.approx(3.0)
    assert doc["report"]["mutation_eligible"] is True
    assert doc["aborted"] is False


def test_kernel_validate_classifies_the_thin_tailed_control(tmp_path):
    doc = {"experiment": "KernelValidate",
           "kernel": {"family": "Gaussian", "sigma": 1.0},
           "output": {"directory": str(tmp_path / "out")}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    doc = _manifest(str(tmp_path / "out"))
    assert doc["manifest"]["hypotheses_passed"] is True
    assert doc["report"]["mutation_eligible"] is False
    assert doc["report"]["ratio_tail_max"] > 1.0


def test_kernel_validate_survives_a_mass_quadrature_that_fails(
        tmp_path, capsys):
    """beta = 1.05 builds, but its unit-mass check cannot converge: the
    quadrature toward s = 0 ends in NoConvergence, which the report
    records as an infinite mass error, with no traceback."""
    doc = {"experiment": "KernelValidate",
           "kernel": {"family": "LogLinear", "beta": 1.05},
           "output": {"directory": str(tmp_path / "out")}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    doc = _manifest(str(tmp_path / "out"))
    assert doc["report"]["mass_error"] == float("inf")
    assert doc["manifest"]["hypotheses_passed"] is False


SIMULATE = {
    "experiment": "Simulate",
    "kernel": {"family": "Gaussian", "sigma": 1.0},
    "grid": {"L": 50, "N": 1024},
    "solver": {"t_end": 0.5, "dt": 0.05, "snapshots": [0.25, 0.5]},
}


def test_simulate_writes_snapshots_and_monitors(tmp_path, capsys):
    out = str(tmp_path / "out")
    doc = dict(SIMULATE)
    doc["output"] = {"directory": out, "stride": 4}
    assert main(["--config", _cfg(tmp_path, doc)]) == 0
    assert "finished" in capsys.readouterr().out
    for name in ("snapshot_t0.25.csv", "snapshot_t0.5.csv",
                 "monitors.csv", "density.svg", "run.json"):
        assert os.path.exists(os.path.join(out, name)), name
    back = np.loadtxt(os.path.join(out, "snapshot_t0.5.csv"),
                      delimiter=",", skiprows=1)
    assert back.shape == (1024 // 4, 2)
    mon = np.loadtxt(os.path.join(out, "monitors.csv"), delimiter=",",
                     skiprows=1)
    assert mon[:, 2].max() <= 1.0 + 1e-12


def test_quiet_suppresses_stdout_and_out_overrides(tmp_path, capsys):
    out = str(tmp_path / "elsewhere")
    doc = dict(SIMULATE)
    doc["output"] = {"directory": str(tmp_path / "ignored")}
    assert main(["--config", _cfg(tmp_path, doc), "--out", out,
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert os.path.exists(os.path.join(out, "run.json"))
    assert not os.path.exists(str(tmp_path / "ignored"))


# a small CrossValidate run: mutation CSVs, the HJ solution and a plot
CROSSVAL_SMALL = {
    "experiment": "CrossValidate",
    "kernel": {"family": "LogLinear", "beta": 3},
    "grid": {"L": 50, "N": 8192},
    "solver": {"t_end": 0.25, "dt": 0.025, "snapshots": [0.125, 0.25]},
    "analysis": {"eps": [0.25, 0.2], "A": 0.25, "compact": [-5, 5]},
}


def test_data_files_are_deterministic_across_runs(tmp_path):
    for base, names in (
            (SIMULATE, ("snapshot_t0.5.csv", "monitors.csv",
                        "density.svg")),
            (CROSSVAL_SMALL, ("mutation_eps0.25.csv", "mutation_eps0.2.csv",
                              "hj_solution.csv", "crossval.svg"))):
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / base["experiment"] / name)
            doc = dict(base)
            doc["output"] = {"directory": out}
            assert main(["--config", _cfg(tmp_path, doc, name + ".json"),
                         "--quiet"]) == 0
            outs.append(out)
        for name in names:
            b1 = open(os.path.join(outs[0], name), "rb").read()
            b2 = open(os.path.join(outs[1], name), "rb").read()
            assert b1 == b2, name


def test_contaminated_run_exits_3_with_partial_outputs(tmp_path, capsys):
    out = str(tmp_path / "out")
    doc = {"experiment": "Simulate",
           "kernel": {"family": "Gaussian", "sigma": 2.0},
           "grid": {"L": 10, "N": 256},
           "solver": {"t_end": 5, "dt": 0.05},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 3
    assert "aborted" in capsys.readouterr().err
    man = _manifest(out)
    assert man["aborted"] is True
    assert "boundary density" in man["abort_reason"]
    assert os.path.exists(os.path.join(out, "monitors.csv"))
    assert man["write_s"] > 0.0         # the partial outputs took time


def test_cauchy_data_past_the_guard_is_refused_before_any_output(
        tmp_path, capsys):
    """min(C J(L-dx), 1) = 1.081e-04 at the edge of this grid already
    reaches the boundary guard, so the run could only abort at t = 0."""
    out = str(tmp_path / "out")
    doc = {"experiment": "Simulate",
           "kernel": {"family": "LogLinear", "beta": 3},
           "grid": {"L": 20, "N": 4096},
           "solver": {"t_end": 1, "dt": 0.05},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "fatkpp: invalid config:",
        "  - grid.L: the initial edge density min(C J(L-dx), 1) = 1.081e-04 "
        "(C = 1) reaches solver.boundary_guard = 0.0001"]
    assert not os.path.exists(out)


_POLY4 = {"family": "Polynomial", "alpha": 4}


@pytest.mark.parametrize("doc, blocked, code, written, message", [
    ({"experiment": "Front", "kernel": _POLY4, "grid": {"L": 10, "N": 1024},
      "solver": {"dt": 0.05, "t_end": 0.2, "snapshots": [0.1, 0.2]},
      "output": {"plot": False}},
     None, 2, ["front.csv"], "kernel support covers the whole grid"),
    ({"experiment": "Front", "kernel": _POLY4,
      "grid": {"L": 1000, "N": 16384},
      "solver": {"t_end": 0, "snapshots": [0], "C": 0.1}},
     None, 4, ["envelope.csv", "front.csv"], "nothing to plot"),
    ({"experiment": "Simulate", "kernel": _POLY4,
      "grid": {"L": 1000, "N": 16384},
      "solver": {"dt": 0.05, "t_end": 1, "snapshots": [0.5, 1]},
      "output": {"plot": False}},
     "snapshot_t1.csv", 4, ["snapshot_t0.5.csv", "snapshot_t1.csv"],
     "cannot write"),
], ids=["grid-wide-kernel", "empty-plot", "unwritable-snapshot"])
def test_a_late_failure_keeps_its_files_and_leaves_run_json(
        tmp_path, capsys, doc, blocked, code, written, message):
    """A failure after the output directory exists, whatever its class,
    exits with its class's code, keeps what was written and leaves a
    run.json naming the cause."""
    out = tmp_path / "out"
    if blocked is not None:     # a directory where the run writes a file
        (out / blocked).mkdir(parents=True)
    assert main(["--config", _cfg(tmp_path, doc), "--out", str(out),
                 "--quiet"]) == code
    assert message in capsys.readouterr().err
    assert sorted(os.listdir(out)) == sorted(written + ["run.json"])
    man = _manifest(str(out))
    assert man["aborted"] is True
    assert message in man["abort_reason"]


def test_run_json_reports_the_seconds_spent_writing(tmp_path, monkeypatch):
    """write_s counts this invocation's file writing, CSV formatting
    included: above zero and below the whole invocation, whatever earlier
    calls in the same process wrote."""
    monkeypatch.setattr(output, "write_s", 1000.0)
    out = str(tmp_path / "out")
    doc = dict(SIMULATE, output={"directory": out})
    t0 = time.perf_counter()
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    elapsed = time.perf_counter() - t0
    assert 0.0 < _manifest(out)["write_s"] < elapsed


def test_run_json_reports_the_peak_resident_size(tmp_path):
    """peak_rss_mb is the process's peak resident size when the run ends:
    no less than that peak before the call, no more than after it."""
    def peak_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    out = str(tmp_path / "out")
    doc = dict(SIMULATE, output={"directory": out})
    before = peak_mb()
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    assert before <= _manifest(out)["peak_rss_mb"] <= peak_mb()


def test_front_writes_tracks_envelope_and_plot(tmp_path):
    out = str(tmp_path / "out")
    doc = {"experiment": "Front",
           "kernel": {"family": "Polynomial", "alpha": 4},
           "grid": {"L": 300, "N": 8192},
           "solver": {"t_end": 2, "dt": 0.05, "snapshots": [1, 2]},
           "analysis": {"levels": [0.25, 0.5]},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    front = np.loadtxt(os.path.join(out, "front.csv"), delimiter=",",
                       skiprows=1)
    assert front.shape == (4, 7)
    assert set(front[:, 1]) == {0.25, 0.5}
    assert os.path.exists(os.path.join(out, "envelope.csv"))
    assert os.path.exists(os.path.join(out, "front.svg"))
    man = _manifest(out)["manifest"]
    assert man["levels"] == [0.25, 0.5]
    # the convolution's shape: block_count equal tiles cover the grid,
    # and each block of block_length holds a tile and 2 kernel_cells more
    K, B, nb = (man[k] for k in ("kernel_cells", "block_length",
                                 "block_count"))
    assert K >= 1 and 8192 % nb == 0 and B - 2 * K >= 8192 // nb
    # the stepper's pace: four convolutions per RK4 step
    assert man["steps_taken"] == 40
    assert man["convolutions"] == 4 * man["steps_taken"]
    assert man["steps_per_s"] == man["steps_taken"] / man["wall_time_s"]


def test_front_samples_the_kernel_once(tmp_path, monkeypatch):
    """The run and its envelope report share one sampled kernel."""
    real = fatkpp.gridops.discretize_kernel
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name.split(".")[0] == "fatkpp"
                and getattr(mod, "discretize_kernel", None) is real):
            monkeypatch.setattr(mod, "discretize_kernel", counted)
    out = str(tmp_path / "out")
    doc = {"experiment": "Front",
           "kernel": {"family": "Polynomial", "alpha": 4},
           "grid": {"L": 300, "N": 4096},
           "solver": {"t_end": 1, "dt": 0.05, "snapshots": [0.5, 1]},
           "analysis": {"levels": [0.5]},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    assert len(calls) == 1
    assert os.path.exists(os.path.join(out, "envelope.csv"))


def test_hopf_cole_reports_sup_errors(tmp_path):
    out = str(tmp_path / "out")
    doc = {"experiment": "HopfCole",
           "kernel": {"family": "Polynomial", "alpha": 4},
           "grid": {"L": 1000, "N": 16384},
           "solver": {"t_end": 2, "dt": 0.05, "snapshots": [1, 2]},
           "analysis": {"eps": [0.5], "compact": [0.5, 3, 0.5, 1]},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    assert os.path.exists(os.path.join(out, "hopfcole_eps0.5.csv"))
    man = _manifest(out)["manifest"]
    assert "0.5" in man["hopf_cole_sup_errors"]
    assert man["hopf_cole_sup_errors"]["0.5"] < 5.0


def test_mutation_writes_density_and_limit_sets(tmp_path):
    out = str(tmp_path / "out")
    doc = {"experiment": "Mutation",
           "kernel": {"family": "LogLinear", "beta": 3},
           "grid": {"L": 200, "N": 32768},
           "solver": {"t_end": 0.5, "dt": 0.05, "snapshots": [0.5]},
           "analysis": {"eps": [0.25], "A": 0.25},
           "output": {"directory": out, "stride": 8}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    assert os.path.exists(os.path.join(out, "mutation_eps0.25.csv"))
    lim = open(os.path.join(out, "limits.csv")).read().splitlines()
    assert lim[0] == "t,x,region"
    regions = {row.split(",")[2] for row in lim[1:]}
    assert regions <= {"A", "B", "U"} and "A" in regions
    man = _manifest(out)["manifest"]
    assert man["limits_eps"] == 0.25
    # the potential columns are -eps ln n of the density column, row by row
    data = np.loadtxt(os.path.join(out, "mutation_eps0.25.csv"),
                      delimiter=",", skiprows=1)
    assert data.shape == (32768 // 8, 5)
    n, u, flag = data[:, 2], data[:, 3], data[:, 4]
    assert np.array_equal(u, -0.25 * np.log(np.maximum(n, 1e-300)))
    assert np.array_equal(flag, (n < 1e-300).astype(float))


def test_mutation_frees_each_run_it_does_not_read(tmp_path, monkeypatch):
    """Mutation reads only its last run, of the smallest eps: the first
    of three runs is gone by the time the third one steps."""
    refs, first_alive = [], []

    def tracked(kernel, eps, config, u0):
        if len(refs) == 2:
            first_alive.append(refs[0]() is not None)
        run = mutation_run(kernel, eps, config, u0)
        refs.append(weakref.ref(run))
        return run

    monkeypatch.setattr(cli, "mutation_run", tracked)
    doc = {"experiment": "Mutation",
           "kernel": {"family": "LogLinear", "beta": 3},
           "grid": {"L": 50, "N": 16384},
           "solver": {"method": "Euler", "t_end": 0.05, "dt": 0.005},
           "analysis": {"eps": [0.3, 0.2, 0.1], "A": 0.25},
           "output": {"directory": str(tmp_path / "out"), "plot": False}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    assert len(refs) == 3 and first_alive == [False]


def test_aborted_mutation_run_names_its_eps(tmp_path, capsys):
    """A rescaled run that hits the boundary guard still writes the
    snapshots it reached, through its own writer, its monitors and a
    run.json saying which eps it was stepping at."""
    out = str(tmp_path / "out")
    doc = {"experiment": "Mutation",
           "kernel": {"family": "LogLinear", "beta": 3},
           "grid": {"L": 200, "N": 32768},
           "solver": {"method": "Euler", "dt": 0.02, "t_end": 2,
                      "snapshots": [0.1, 0.2, 0.3, 1, 2]},
           "analysis": {"eps": [0.4], "A": 0.25},
           "output": {"directory": out, "stride": 8}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 3
    assert "t=0.52" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["monitors.csv", "mutation_eps0.4.csv",
                                       "run.json"]
    ts = np.loadtxt(os.path.join(out, "mutation_eps0.4.csv"),
                    delimiter=",", skiprows=1, usecols=0)
    assert np.unique(ts).tolist() == [0.1, 0.2, 0.3]
    man = _manifest(out)
    assert man["aborted"] is True
    assert man["manifest"]["eps"] == 0.4
    assert man["manifest"]["A"] == 0.25


@pytest.mark.parametrize("grid, solver, eps, name, times", [
    # the eps = 0.2 run of three reaches the guard at t = 0.65
    ({"L": 20, "N": 16384},
     {"dt": 0.005, "t_end": 1, "snapshots": [0.25, 0.5, 1]},
     [0.2, 0.1, 0.05], "mutation_eps0.2.csv", [0.25, 0.5]),
    # eps = 1 is a mutation run too; it reaches the guard at t = 4.2
    ({"L": 20, "N": 2048},
     {"dt": 0.05, "t_end": 10, "snapshots": [0.5, 1, 10],
      "boundary_guard": 0.5},
     [1.0], "mutation_eps1.csv", [0.5, 1.0]),
], ids=["eps0.2", "eps1"])
def test_aborted_rescaled_run_goes_through_its_own_writer(
        tmp_path, grid, solver, eps, name, times):
    """The long-format mutation CSV that a finished run would write holds
    the snapshots the aborted run reached."""
    out = str(tmp_path / "out")
    doc = {"experiment": "Mutation",
           "kernel": {"family": "LogLinear", "beta": 3}, "grid": grid,
           "solver": dict(solver, method="Euler"),
           "analysis": {"eps": eps, "A": 0.25},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 3
    assert sorted(os.listdir(out)) == ["monitors.csv", name, "run.json"]
    data = np.loadtxt(os.path.join(out, name), delimiter=",", skiprows=1)
    assert np.unique(data[:, 0]).tolist() == times
    assert data.shape == (len(times) * grid["N"], 5)
    man = _manifest(out)
    assert man["aborted"] is True
    assert man["manifest"]["eps"] == eps[0]


# f'(0) = b alpha = 0.06 while 1 - 1/mu = 1: the kappa envelope of the HJ
# and Hamiltonian experiments needs A < f'(0) (1 - 1/mu) = 0.06
POWERSHIFT = {"family": "PowerShift", "b": 0.3, "alpha": 0.2}
HJ_POWERSHIFT = {"experiment": "HJ", "kernel": POWERSHIFT,
                 "grid": {"L": 20, "N": 512},
                 "solver": {"t_end": 0.5, "snapshots": [0.5]}}


def _powershift(experiment):
    """HJ_POWERSHIFT, or for Hamiltonian without the grid and solver it
    does not read."""
    if experiment == "HJ":
        return dict(HJ_POWERSHIFT)
    return {"experiment": experiment, "kernel": POWERSHIFT}


@pytest.mark.parametrize("experiment", ["HJ", "Hamiltonian"])
def test_default_A_respects_the_envelope_bound(tmp_path, experiment):
    out = str(tmp_path / "out")
    doc = dict(_powershift(experiment), output={"directory": out})
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    man = _manifest(out)
    assert man["aborted"] is False
    assert man["manifest"]["A"] == pytest.approx(0.03)


@pytest.mark.parametrize("experiment", ["HJ", "Hamiltonian"])
def test_A_past_the_envelope_bound_is_refused_before_any_output(
        tmp_path, capsys, experiment):
    out = str(tmp_path / "out")
    doc = dict(_powershift(experiment), analysis={"A": 0.5},
               output={"directory": out})
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 2
    assert "analysis.A" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "hj_solution.csv"))


def test_mutation_default_A_stays_the_midpoint(tmp_path):
    """Mutation runs need no envelope: their default stays (1 - 1/mu)/2.
    (eps = 0.01 keeps the edge density e^{-0.5 f(20)/eps} = 3.5e-6 below
    the boundary guard.)"""
    doc = {"experiment": "Mutation", "kernel": POWERSHIFT,
           "grid": {"L": 20, "N": 512},
           "solver": {"t_end": 0.5, "dt": 0.003},
           "analysis": {"eps": [0.01]}}
    assert parse_config(_cfg(tmp_path, doc)).A == 0.5


def test_mutation_data_past_the_guard_is_refused_before_any_output(
        tmp_path, capsys):
    """e^{-A f(L)/eps} = 0.78 at the edge of this grid already reaches
    the boundary guard, so the run could only abort at t = 0."""
    out = str(tmp_path / "out")
    doc = {"experiment": "Mutation", "kernel": POWERSHIFT,
           "grid": {"L": 20, "N": 4096},
           "solver": {"t_end": 0.5, "dt": 0.05},
           "analysis": {"eps": [0.5]},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 2
    assert "7.777e-01" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("grid, eps, message", [
    ({"L": 30, "N": 16384}, [0.3, 0.2, 0.1, 0.05], "1.869e-04"),
    ({"L": 50, "N": 8192}, [0.25, 0.2, 0.15, 0.1], "dx = 0.012207"),
])
def test_doomed_cross_validation_is_refused_before_any_output(
        tmp_path, capsys, grid, eps, message):
    """An edge density past the guard at the largest eps, and a grid too
    coarse for the rescaled kernel at the smallest, are both known before
    the first kernel is sampled."""
    out = str(tmp_path / "out")
    doc = {"experiment": "CrossValidate",
           "kernel": {"family": "LogLinear", "beta": 3}, "grid": grid,
           "solver": {"method": "Euler", "dt": 0.0025, "t_end": 0.25},
           "analysis": {"eps": eps, "A": 0.25, "compact": [-1, 1]},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("doc, message", [
    ({"experiment": "CrossValidate",
      "kernel": {"family": "LogLinear", "beta": 3},
      "grid": {"L": 600, "N": 131072},
      "solver": {"method": "Euler", "dt": 0.005, "t_end": 0.05,
                 "snapshots": [0.05]},
      "analysis": {"eps": [0.2], "A": 0.25,
                   "compact": [-599.99, 599.99]},
      "output": {"stride": 64}},
     "closer than 10 cells to the grid edge"),
    # Psi_0.5(40) = sqrt(1601^2 - 1) for Polynomial alpha=4, past L
    ({"experiment": "HopfCole",
      "kernel": {"family": "Polynomial", "alpha": 4},
      "grid": {"L": 1000, "N": 16384},
      "solver": {"t_end": 2, "dt": 0.05, "snapshots": [1, 2]},
      "analysis": {"eps": [1, 0.5], "compact": [0.5, 40, 0.5, 1]}},
     "dilated coordinate 1601 exceeds"),
], ids=["CrossValidate", "HopfCole"])
def test_a_window_off_the_grid_is_refused_before_any_output(
        tmp_path, capsys, doc, message):
    """The window is checked against the grid at validation; the run
    used to refuse it after writing the files of its first eps."""
    out = str(tmp_path / "out")
    doc = dict(doc, output=dict(doc.get("output", {}), directory=out))
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "analysis.compact: " in err and message in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("doc, message", [
    ({"experiment": "CrossValidate",
      "kernel": {"family": "LogLinear", "beta": 3},
      "grid": {"L": 600, "N": 262144},
      "solver": {"method": "Euler", "dt": 0.005, "t_end": 0.1,
                 "snapshots": [0]},
      "analysis": {"eps": [0.4], "A": 0.25, "compact": [-10, 10]}},
     "solver.snapshots: no positive comparison times"),
    # eps * 1 = 0.5 lies outside [0.9, 1]; eps = 1 alone would pass
    ({"experiment": "HopfCole",
      "kernel": {"family": "Polynomial", "alpha": 4},
      "grid": {"L": 1000, "N": 16384},
      "solver": {"method": "RK4", "dt": 0.05, "t_end": 1,
                 "snapshots": [1]},
      "analysis": {"eps": [1, 0.5], "compact": [0.5, 3, 0.9, 1]}},
     "analysis.compact: no snapshot maps into the requested t window at "
     "eps = 0.5"),
], ids=["CrossValidate", "HopfCole"])
def test_times_the_analysis_reads_are_checked_before_any_output(
        tmp_path, capsys, doc, message):
    """A comparison time that no snapshot gives is known at validation;
    the run used to fail on it after writing the files of its first
    eps."""
    out = str(tmp_path / "out")
    doc = dict(doc, output={"directory": out})
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "fatkpp: invalid config:", "  - " + message]
    assert not os.path.exists(out)


@pytest.mark.parametrize("block, key, literal", [
    ("solver", "t_end", "1e999"), ("solver", "t_end", "Infinity"),
    ("grid", "L", "NaN"), ("grid", "L", "-Infinity")])
def test_a_number_that_is_not_finite_is_refused_when_parsed(
        tmp_path, capsys, block, key, literal):
    """json reads NaN, Infinity and -Infinity, and 1e999 as inf.  An
    infinite t_end used to end the march in an OverflowError, and a NaN L
    to fail after the output directory was made."""
    out = str(tmp_path / "out")
    doc = dict(SIMULATE, output={"directory": out})
    doc[block] = dict(doc[block], **{key: "<literal>"})
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc).replace('"<literal>"', literal))
    assert main(["--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "fatkpp: config number %s is not finite\n" % literal)
    assert not os.path.exists(out)


@pytest.mark.parametrize("grid, message", [
    ({"L": 1e308, "N": 1024}, "need L > 0 and 2L/N finite, got L = 1e+308"),
    ({"L": 50, "N": 2 ** 50}, "no memory for N = 1125899906842624 nodes"),
    ({"L": 50, "N": 2 ** 64}, "no memory for N = 18446744073709551616"),
], ids=["L=1e308", "N=2^50", "N=2^64"])
def test_a_grid_that_cannot_be_built_is_a_config_issue(
        tmp_path, capsys, grid, message):
    """2L/N overflows at L = 1e308, and the node array of 2^50 or 2^64
    nodes cannot be allocated: both lie beyond any address space, so
    nothing is allocated.  The first used to fail after the output
    directory was made, the others in a numpy traceback."""
    out = str(tmp_path / "out")
    doc = dict(SIMULATE, grid=grid, output={"directory": out})
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "fatkpp: invalid config:"
    assert lines[1].startswith("  - grid: " + message)
    assert not os.path.exists(out)


@pytest.mark.parametrize("change, message", [
    ({"grid": 5}, "grid: must be an object"),
    ({"analysis": dict(CROSSVAL_SMALL["analysis"], compact=[1, 0])},
     "analysis.compact: must be [x_lo, x_hi] or [x_lo, x_hi, t_lo, t_hi] "
     "with lo < hi"),
    ({"analysis": dict(CROSSVAL_SMALL["analysis"], compact=[-5, 0, 5])},
     "analysis.compact: must be [x_lo, x_hi] or [x_lo, x_hi, t_lo, t_hi] "
     "with lo < hi"),
    # dx = 100/8192 = 0.0122: the window lies between the nodes 0 and dx
    ({"analysis": dict(CROSSVAL_SMALL["analysis"], compact=[0.001, 0.002])},
     "analysis.compact: window contains no grid nodes"),
], ids=["block", "compact-order", "compact-length", "compact-between-nodes"])
def test_malformed_blocks_and_windows_are_refused_before_any_output(
        tmp_path, capsys, change, message):
    out = str(tmp_path / "out")
    doc = dict(CROSSVAL_SMALL, output={"directory": out}, **change)
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "fatkpp: invalid config:"
    assert "  - " + message in lines[1:]
    assert not os.path.exists(out)


def test_hj_writes_solution_and_zero_set(tmp_path):
    out = str(tmp_path / "out")
    doc = {"experiment": "HJ",
           "kernel": {"family": "LogLinear", "beta": 3},
           "grid": {"L": 20, "N": 512},
           "solver": {"t_end": 0.5, "snapshots": [0.5]},
           "analysis": {"A": 0.25},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    zs = np.loadtxt(os.path.join(out, "zeroset.csv"), delimiter=",",
                    skiprows=1)
    assert zs[0] == pytest.approx(0.5)
    assert zs[3] < zs[4]
    assert -zs[1] == pytest.approx(zs[2], abs=2 * 40 / 512)
    man = _manifest(out)["manifest"]
    assert man["sigma"] > 0.0
    assert os.path.exists(os.path.join(out, "hj_solution.csv"))


def test_hj_plot_spreads_its_curves_from_first_to_last(tmp_path):
    """Of seven snapshots, hj.svg draws five from the first to the last,
    as density.svg does."""
    out = str(tmp_path / "out")
    doc = {"experiment": "HJ",
           "kernel": {"family": "LogLinear", "beta": 3},
           "grid": {"L": 20, "N": 512},
           "solver": {"t_end": 0.7, "snapshot_count": 7},
           "analysis": {"A": 0.25},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    svg = open(os.path.join(out, "hj.svg")).read()
    drawn = [t for t in ("0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7")
             if ">t=%s</text>" % t in svg]
    assert drawn == ["0.1", "0.3", "0.4", "0.5", "0.7"]


def test_hj_refuses_the_solver_keys_it_ignores(tmp_path, capsys):
    """The HJ solver steps at its CFL bound from u0 = A f: it reads no
    method, boundary guard or initial amplitude, so a config setting them
    is refused before any output instead of running without them."""
    out = str(tmp_path / "out")
    doc = {"experiment": "HJ",
           "kernel": {"family": "LogLinear", "beta": 3},
           "grid": {"L": 20, "N": 512},
           "solver": {"t_end": 0.5, "snapshots": [0.25, 0.5],
                      "method": "Euler", "boundary_guard": 1e-30, "C": 5},
           "analysis": {"A": 0.25},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 2
    err = capsys.readouterr().err
    for key in ("solver.C", "solver.boundary_guard", "solver.method"):
        assert "%s: not read by HJ" % key in err
    assert not os.path.exists(out)


# the keys of each experiment without a default, and a valid value for
# every key some experiment reads
_NEEDED = {"grid.L": 40, "grid.N": 4096, "solver.t_end": 0.5,
           "analysis.eps": [0.25]}
_VALUES = dict(_NEEDED, **{
    "solver.dt": 0.01, "solver.snapshots": [0.5],
    "solver.snapshot_count": 2, "solver.method": "Euler",
    "solver.boundary_guard": 1e-30, "solver.C": 5,
    "analysis.levels": [0.5], "analysis.A": 0.25,
    "analysis.compact": [-1, 1], "output.directory": "out",
    "output.plot": False, "output.stride": 2})
_UNREAD = [(name, key) for name, (keys, *_) in READS.items()
           for key in sorted(set(_VALUES) - set(keys))]


def _set(doc, key, value):
    block, _, k = key.partition(".")
    doc.setdefault(block, {})[k] = value


@pytest.mark.parametrize("experiment, key", _UNREAD)
def test_a_key_the_experiment_does_not_read_is_refused(
        tmp_path, capsys, experiment, key):
    """The config that sets only what the experiment needs validates; one
    key more that its run would ignore exits 2, names the key and the
    experiment, and writes nothing."""
    keys, entries = READS[experiment][:2]
    doc = {"experiment": experiment,
           "kernel": {"family": "LogLinear", "beta": 3}}
    for k in keys:
        if k in _NEEDED:
            _set(doc, k, _NEEDED[k])
    if entries:
        _set(doc, "analysis.compact", [0.5, 1, 0.1, 0.5][:entries])
    parse_config(_cfg(tmp_path, doc))
    _set(doc, key, _VALUES[key])
    out = str(tmp_path / "out")
    assert main(["--config", _cfg(tmp_path, doc), "--out", out]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "fatkpp: invalid config:",
        "  - %s: not read by %s" % (key, experiment)]
    assert not os.path.exists(out)


def test_hamiltonian_profile_and_kappa_bounds(tmp_path):
    out = str(tmp_path / "out")
    doc = {"experiment": "Hamiltonian",
           "kernel": {"family": "LogLinear", "beta": 3},
           "analysis": {"A": 0.25},
           "output": {"directory": out}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    ham = np.loadtxt(os.path.join(out, "hamiltonian.csv"),
                     delimiter=",", skiprows=1)
    mid = ham.shape[0] // 2
    assert ham[mid, 0] == 0.0 and ham[mid, 1] == 1.0
    assert np.all(ham[:, 2] <= ham[:, 1] + 1e-12)
    assert np.all(ham[:, 1] <= ham[:, 3] + 1e-12)
    man = _manifest(out)["manifest"]
    assert 0.0 < man["kappa_lower"] <= man["kappa_upper"]
    assert man["p_max"] == pytest.approx(2.0)


def test_cross_validate_reports_monotone_errors(tmp_path):
    out = str(tmp_path / "out")
    doc = {"experiment": "CrossValidate",
           "kernel": {"family": "LogLinear", "beta": 3},
           "grid": {"L": 200, "N": 65536},
           "solver": {"t_end": 0.5, "dt": 0.025, "snapshots": [0.5]},
           "analysis": {"eps": [0.25, 0.125], "A": 0.25,
                        "compact": [-5, 5]},
           "output": {"directory": out, "stride": 16, "plot": False}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    doc = _manifest(out)
    rows = doc["cross_validation"]
    assert [r["eps"] for r in rows] == [0.25, 0.125]
    assert rows[1]["sup_error"] <= rows[0]["sup_error"]
    assert os.path.exists(os.path.join(out, "hj_solution.csv"))
    assert not os.path.exists(os.path.join(out, "crossval.svg"))


def test_cross_validate_snapshots_may_omit_t_end(tmp_path):
    """Both marches record exactly the config's times, so the HJ solution
    has every time the rescaled runs have, t_end among them or not."""
    out = str(tmp_path / "out")
    doc = {"experiment": "CrossValidate",
           "kernel": {"family": "LogLinear", "beta": 3},
           "grid": {"L": 200, "N": 65536},
           "solver": {"method": "Euler", "dt": 0.01, "t_end": 0.1,
                      "snapshots": [0.05]},
           "analysis": {"eps": [0.25, 0.125], "A": 0.25,
                        "compact": [-5, 5]},
           "output": {"directory": out, "stride": 16, "plot": False}}
    assert main(["--config", _cfg(tmp_path, doc), "--quiet"]) == 0
    rows = _manifest(out)["cross_validation"]
    assert [r["eps"] for r in rows] == [0.25, 0.125]


def _crossval(out):
    return dict(CROSSVAL_SMALL, output={"directory": out, "plot": False})


def _times(out, name):
    return np.unique(np.loadtxt(os.path.join(out, name), delimiter=",",
                                skiprows=1, usecols=0)).tolist()


def test_cross_validate_equals_the_sequential_reference(tmp_path):
    """The limit is solved on a second thread while the runs step, and of
    each run only its window potentials are kept: the CSVs and sup errors
    are those of the runs and the solve done one after the other and
    compared whole by cross_validate.  run.json also gives each run's
    wall time and the solve's."""
    out, ref = str(tmp_path / "out"), str(tmp_path / "ref")
    path = _cfg(tmp_path, _crossval(out))
    assert main(["--config", path, "--quiet"]) == 0
    cfg = parse_config(path)
    u0 = mutation_initial_data(cfg.kernel, cfg.grid, A=cfg.A)
    runs = [mutation_run(cfg.kernel, eps, cfg.solver, u0)
            for eps in (0.25, 0.2)]
    sol = solve_constrained_hj(Hamiltonian(cfg.kernel), cfg.solver, u0)
    os.makedirs(ref)
    for run in runs:
        output.write_mutation_csv(ref, run, cfg.stride)
    output.write_hj_solution_csv(ref, sol, cfg.stride)
    names = sorted(os.listdir(ref))
    assert sorted(os.listdir(out)) == names + ["run.json"]
    for name in names:
        with open(os.path.join(out, name), "rb") as a, \
                open(os.path.join(ref, name), "rb") as b:
            assert a.read() == b.read(), name
    doc = _manifest(out)
    rows = doc["cross_validation"]
    xs = window_nodes(cfg.grid, cfg.compact)
    pairs = comparison_times(cfg.solver.snapshot_times)
    assert [(r["eps"], r["sup_error"]) for r in rows] == cross_validate(
        [read_window(run, run.eps, xs, xs, pairs) for run in runs], sol)
    assert all(r["wall_time_s"] > 0.0 for r in rows)
    man = doc["manifest"]
    assert man["wall_time_s"] == rows[-1]["wall_time_s"]
    assert man["hj_wall_time_s"] > 0.0
    assert man["steps"] == sol.meta["steps"]


def test_compare_outputs_checks_files_and_run_json(tmp_path):
    """tools/compare_outputs.py finds a tree the same as itself, though
    run.json's clock fields differ from run to run, and names the files a
    changed HJ step rule moves."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    changed = tmp_path / "changed"
    shutil.copytree(os.path.join(repo, "src", "fatkpp"),
                    changed / "src" / "fatkpp",
                    ignore=shutil.ignore_patterns("__pycache__"))
    hj = changed / "src" / "fatkpp" / "hj.py"
    text = hj.read_text()
    assert text.count("_CFL_SAFETY = 0.9 ") == 1
    hj.write_text(text.replace("_CFL_SAFETY = 0.9 ", "_CFL_SAFETY = 0.8 "))
    config = _cfg(tmp_path, _crossval(str(tmp_path / "unused")))

    def compare(head):
        return subprocess.run(
            [sys.executable, os.path.join(repo, "tools", "compare_outputs.py"),
             repo, str(head), config], capture_output=True, text=True)

    same = compare(repo)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout == "run: exit 0, 4 files, same bytes\n"
    moved = compare(changed)
    assert moved.returncode == 1, moved.stdout + moved.stderr
    assert "  hj_solution.csv: differs" in moved.stdout.splitlines()
    assert "  run.json: differs" in moved.stdout.splitlines()


def test_a_failed_limit_solve_surfaces_after_every_run(
        tmp_path, capsys, monkeypatch):
    """A solve that fails on its thread leaves what a sequential one did:
    every run's CSV, the solve's partial and an aborted run.json."""
    solve = cli.solve_constrained_hj

    def failing(H, config, u0):
        sol = solve(H, config, u0)
        exc = errors.GradientOutOfRange("slope left the table")
        exc.run = HJSolution(sol.snapshots[:1], sol.grid, sol.meta)
        raise exc

    monkeypatch.setattr(cli, "solve_constrained_hj", failing)
    out = str(tmp_path / "out")
    assert main(["--config", _cfg(tmp_path, _crossval(out)),
                 "--quiet"]) == 3
    assert "slope left the table" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == [
        "hj_solution.csv", "mutation_eps0.2.csv", "mutation_eps0.25.csv",
        "run.json"]
    for name in ("mutation_eps0.2.csv", "mutation_eps0.25.csv"):
        assert _times(out, name) == [0.125, 0.25]
    assert _times(out, "hj_solution.csv") == [0.125]
    doc = _manifest(out)
    assert doc["aborted"] is True
    assert doc["abort_reason"] == "slope left the table"
    assert "cross_validation" not in doc


def test_a_run_that_aborts_during_the_limit_solve_joins_it(
        tmp_path, capsys, monkeypatch):
    """The abort propagates once the solve's thread is joined; the solve's
    result is dropped, and main leaves no thread running."""
    solve, step = cli.solve_constrained_hj, cli.mutation_run
    started, solved = threading.Event(), threading.Event()

    def slow(H, config, u0):
        started.set()
        time.sleep(0.5)
        sol = solve(H, config, u0)
        solved.set()
        return sol

    def aborting(kernel, eps, config, u0):
        run = step(kernel, eps, config, u0)
        assert started.wait(10) and not solved.is_set()
        exc = errors.BoundaryContamination("guard reached")
        exc.run = run
        raise exc

    monkeypatch.setattr(cli, "solve_constrained_hj", slow)
    monkeypatch.setattr(cli, "mutation_run", aborting)
    out = str(tmp_path / "out")
    before = threading.active_count()
    assert main(["--config", _cfg(tmp_path, _crossval(out)),
                 "--quiet"]) == 3
    assert solved.is_set()
    assert threading.active_count() == before
    assert "guard reached" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["monitors.csv", "mutation_eps0.25.csv",
                                       "run.json"]
    man = _manifest(out)
    assert man["aborted"] is True
    assert man["manifest"]["eps"] == 0.25 and "steps" not in man["manifest"]


def _child_env():
    # The child runs outside the checkout, so a relative PYTHONPATH (or
    # none, when the package is not installed) would not find fatkpp:
    # put the directory holding the imported package first.
    src = os.path.dirname(os.path.dirname(os.path.abspath(fatkpp.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def test_cli_imports_no_scipy(tmp_path):
    """scipy is a test dependency only: importing the CLI loads none of
    it."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fatkpp.cli; print(sorted(m for m "
         "in sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        capture_output=True, text=True, cwd=str(tmp_path), env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_runs_load_neither_numpy_random_nor_numpy_ma(tmp_path):
    """Each costs a process about 6 MB and 1.4 MB resident and 10-13 ms:
    no experiment loads them, CrossValidate's decay-condition check and
    the thinning of a Simulate plot denser than its pixels included."""
    paths = []
    for name, doc in (("crossval", CROSSVAL_SMALL),
                      ("simulate", dict(SIMULATE, grid={"L": 50, "N": 2048}))):
        out = str(tmp_path / name)
        paths.append(_cfg(tmp_path, dict(doc, output={"directory": out}),
                          name + ".json"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fatkpp.cli\n"
         "for path in sys.argv[1:]:\n"
         "    assert fatkpp.cli.main(['--config', path, '--quiet']) == 0\n"
         "print(sorted({'numpy.random', 'numpy.ma'} & set(sys.modules)))"]
        + paths, capture_output=True, text=True, cwd=str(tmp_path),
        env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the two reductions over many terms that could go through a threaded
# BLAS call, each printed as the hex of its bytes
_REDUCTIONS = {
    "hamiltonian_table": (
        "from fatkpp.hj import Hamiltonian; "
        "print(Hamiltonian(build_kernel(KernelSpec('LogLinear', beta=3.0)))"
        "._Htab.tobytes().hex())"),
    # criterion 4's kernel cells, K = 5187: 10,375 terms a sum
    "direct_sums": (
        "from fatkpp.gridops import Grid1D, discretize_kernel; "
        "from fatkpp.propagation import phi_envelope; "
        "k = build_kernel(KernelSpec('Polynomial', alpha=4.0)); "
        "g = Grid1D(1250.0, 2 ** 19); dk = discretize_kernel(k, g); "
        "phi = phi_envelope(k, 5.0, g.x); "
        "nodes = np.linspace(dk.K, g.N - dk.K - 1, 200).astype(int); "
        "print(np.array([dk.direct(phi, i) for i in nodes]).tobytes().hex())"),
}


@pytest.mark.parametrize("name", sorted(_REDUCTIONS))
def test_reductions_do_not_follow_the_blas_thread_count(tmp_path, name):
    """Reruns byte-reproduce every file whatever OPENBLAS_NUM_THREADS
    says: the Hamiltonian table and the envelope residual's direct sums
    come out the same under one and two BLAS threads."""
    code = ("import numpy as np; "
            "from fatkpp.kernels import KernelSpec, build_kernel; "
            + _REDUCTIONS[name])
    printed = []
    for threads in ("1", "2"):
        env = dict(_child_env(), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True,
                              cwd=str(tmp_path), env=env)
        assert proc.returncode == 0, proc.stderr
        printed.append(proc.stdout)
    assert printed[0] == printed[1]


def test_console_module_reports_usage_errors(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fatkpp.cli"],
        capture_output=True, text=True, cwd=str(tmp_path), env=_child_env())
    assert proc.returncode == 2
    assert "--config" in proc.stderr


def test_front_garnier_columns_past_the_subnormal_range(tmp_path):
    """e^{-2t} is subnormal past t ~ 354 and 0 past t ~ 372.6; the Garnier
    columns f_inv(0.8 t) and f_inv(2 t) do not go through it."""
    out = str(tmp_path / "out")
    doc = {"experiment": "Front",
           "kernel": {"family": "Polynomial", "alpha": 4},
           "grid": {"L": 100, "N": 1024},
           "solver": {"method": "Euler", "dt": 0.3, "t_end": 400,
                      "snapshots": [100, 400], "boundary_guard": 2.0},
           "analysis": {"levels": [0.5]},
           "output": {"directory": out}}
    path = _cfg(tmp_path, doc)
    assert main(["--config", path, "--quiet"]) == 0
    kernel = parse_config(path).kernel
    rows = np.loadtxt(os.path.join(out, "front.csv"), delimiter=",",
                      skiprows=1)
    assert rows[:, 0].tolist() == [100.0, 400.0]
    assert rows[:, 5].tolist() == [kernel.f_inv(0.8 * t) for t in rows[:, 0]]
    assert rows[:, 6].tolist() == [kernel.f_inv(2.0 * t) for t in rows[:, 0]]


def test_small_runs_floor_no_window_sample(tmp_path):
    """run.json counts the window samples at the 1e-300 log floor; the
    small HopfCole and CrossValidate configs have none."""
    hc, cv = str(tmp_path / "hc"), str(tmp_path / "cv")
    doc = {"experiment": "HopfCole",
           "kernel": {"family": "Polynomial", "alpha": 4},
           "grid": {"L": 1000, "N": 16384},
           "solver": {"t_end": 2, "dt": 0.05, "snapshots": [1, 2]},
           "analysis": {"eps": [0.5, 0.25], "compact": [0.5, 3, 0.5, 1]},
           "output": {"directory": hc, "plot": False}}
    assert main(["--config", _cfg(tmp_path, doc, "hc.json"), "--quiet"]) == 0
    assert _manifest(hc)["manifest"]["hopf_cole_floored"] == {
        "0.5": 0, "0.25": 0}
    assert main(["--config", _cfg(tmp_path, _crossval(cv), "cv.json"),
                 "--quiet"]) == 0
    rows = _manifest(cv)["cross_validation"]
    assert [(r["eps"], r["floored"]) for r in rows] == [(0.25, 0), (0.2, 0)]
