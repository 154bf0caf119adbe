"""Config parsing: syntax errors with position, defaults, and the
one-pass listing of every violated constraint."""

import json
import os

import pytest

from fatkpp.config import READS, parse_config, validate_config
from fatkpp.errors import (InvalidParams, IoError, ParseError,
                           ValidationError)
from fatkpp.kernels import KernelSpec, build_kernel

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MINIMAL = {
    "experiment": "Simulate",
    "kernel": {"family": "Polynomial", "alpha": 4},
    "grid": {"L": 5000, "N": 2097152},
    "solver": {"t_end": 30},
}


def write(tmp_path, doc, name="run.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_minimal_simulate_fills_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.experiment == "Simulate"
    assert cfg.kernel.family == "Polynomial"
    assert cfg.grid.N == 2097152 and cfg.grid.L == 5000.0
    assert cfg.solver.dt == 0.05
    assert cfg.solver.t_end == 30.0
    assert cfg.solver.snapshot_times == (30.0,)
    assert cfg.solver.method == "RK4"
    assert cfg.levels == (0.5,)
    assert cfg.C == 1.0
    assert cfg.out_dir == "." and cfg.plot is True and cfg.stride == 1
    assert cfg.raw == MINIMAL


def test_missing_file_is_an_io_error(tmp_path):
    with pytest.raises(IoError, match="cannot read"):
        parse_config(str(tmp_path / "nope.json"))


def test_bad_json_reports_line_and_column(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"experiment": "Simulate",\n  "kernel": }')
    with pytest.raises(ParseError, match="line 2 column"):
        parse_config(str(p))


def test_top_level_must_be_an_object(tmp_path):
    p = tmp_path / "arr.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(ParseError, match="object"):
        parse_config(str(p))


def test_subexponential_alpha_out_of_range(tmp_path):
    doc = dict(MINIMAL)
    doc["kernel"] = {"family": "SubExponential", "alpha": 1.5}
    with pytest.raises(ValidationError) as ei:
        parse_config(write(tmp_path, doc))
    assert any("alpha" in s for s in ei.value.issues)


def test_mutation_with_flat_origin_kernel_is_rejected(tmp_path):
    doc = {
        "experiment": "Mutation",
        "kernel": {"family": "Polynomial", "alpha": 4},
        "grid": {"L": 100, "N": 4096},
        "solver": {"t_end": 1, "dt": 0.01},
        "analysis": {"eps": [0.1]},
    }
    with pytest.raises(ValidationError) as ei:
        parse_config(write(tmp_path, doc))
    assert any("NotMutationEligible" in s for s in ei.value.issues)


def test_every_violation_is_listed_at_once():
    doc = {
        "experiment": "Teleport",
        "kernel": {"family": "SubExponential", "alpha": 2.0},
        "grid": {"L": -5, "N": 100},
        "solver": {"t_end": -1, "dt": 0},
        "analysis": {"levels": [1.5]},
        "output": {"stride": 0},
        "banana": 1,
    }
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    text = "\n".join(ei.value.issues)
    assert len(ei.value.issues) >= 6
    for frag in ("experiment", "alpha", "grid", "t_end", "levels",
                 "stride", "banana"):
        assert frag in text


def test_default_A_is_half_the_admissible_width(tmp_path):
    doc = {
        "experiment": "Hamiltonian",
        "kernel": {"family": "LogLinear", "beta": 3},
    }
    cfg = parse_config(write(tmp_path, doc))
    assert cfg.A == pytest.approx(0.5 * (1.0 - 1.0 / 3.0))


def test_A_outside_the_admissible_interval(tmp_path):
    doc = {
        "experiment": "Hamiltonian",
        "kernel": {"family": "LogLinear", "beta": 3},
        "analysis": {"A": 0.9},
    }
    with pytest.raises(ValidationError) as ei:
        parse_config(write(tmp_path, doc))
    assert any("analysis.A" in s for s in ei.value.issues)


def test_eps_required_for_mutation_family():
    doc = {
        "experiment": "Mutation",
        "kernel": {"family": "LogLinear", "beta": 3},
        "grid": {"L": 100, "N": 4096},
        "solver": {"t_end": 1, "dt": 0.01},
    }
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    assert any("analysis.eps" in s for s in ei.value.issues)


def test_compact_shape_per_experiment():
    doc = {
        "experiment": "CrossValidate",
        "kernel": {"family": "LogLinear", "beta": 3},
        "grid": {"L": 100, "N": 32768},
        "solver": {"t_end": 1, "dt": 0.01},
        "analysis": {"eps": [0.1], "compact": [0, 5, 0, 1]},
    }
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    assert any("needs 2 entries" in s for s in ei.value.issues)
    doc["analysis"]["compact"] = [-5, 5]
    cfg = validate_config(doc)
    assert cfg.compact == (-5.0, 5.0)


def test_mutation_dt_must_respect_eps():
    doc = {
        "experiment": "Mutation",
        "kernel": {"family": "LogLinear", "beta": 3},
        "grid": {"L": 100, "N": 32768},
        "solver": {"t_end": 1, "dt": 0.05},
        "analysis": {"eps": [0.1]},
    }
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    assert any("min(eps)" in s for s in ei.value.issues)
    doc["solver"]["dt"] = 0.01
    assert validate_config(doc).eps_list == (0.1,)


def test_edge_density_is_checked_at_the_largest_eps():
    """e^{-A f(L-dx)/eps} grows with eps, so the largest eps decides:
    1.869e-04 at eps = 0.3 reaches the guard 1e-4 on this grid, and the
    list without 0.3 passes (2.5e-06 at eps = 0.2)."""
    doc = {
        "experiment": "CrossValidate",
        "kernel": {"family": "LogLinear", "beta": 3},
        "grid": {"L": 30, "N": 16384},
        "solver": {"method": "Euler", "dt": 0.0025, "t_end": 0.25},
        "analysis": {"eps": [0.3, 0.2, 0.1, 0.05], "A": 0.25,
                     "compact": [-1, 1]},
    }
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    assert ei.value.issues == [
        "grid.L: the initial edge density e^{-A f(L-dx)/eps} = 1.869e-04 "
        "(A = 0.25, eps = 0.3) reaches solver.boundary_guard = 0.0001"]
    doc["analysis"]["eps"] = [0.2, 0.1, 0.05]
    assert validate_config(doc).eps_list == (0.2, 0.1, 0.05)


def test_rescaled_kernel_resolution_is_checked_at_validation():
    """dx = 0.0122 cannot hold four cells under m_0.1(h0) = 0.0353; the
    refusal names the smallest eps, and twice the nodes pass."""
    doc = {
        "experiment": "CrossValidate",
        "kernel": {"family": "LogLinear", "beta": 3},
        "grid": {"L": 50, "N": 8192},
        "solver": {"method": "Euler", "dt": 0.01, "t_end": 0.25},
        "analysis": {"eps": [0.25, 0.2, 0.15, 0.1], "A": 0.25,
                     "compact": [-1, 1]},
    }
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    assert len(ei.value.issues) == 1
    assert ei.value.issues[0].startswith(
        "grid.N: dx = 0.012207 cannot resolve the rescaled kernel at "
        "eps = 0.1")
    doc["grid"]["N"] = 16384
    assert validate_config(doc).grid.N == 16384


def test_snapshot_count_expands_to_even_times():
    doc = dict(MINIMAL)
    doc["solver"] = {"t_end": 10, "snapshot_count": 4}
    cfg = validate_config(doc)
    assert cfg.solver.snapshot_times == (2.5, 5.0, 7.5, 10.0)


def test_snapshot_count_ends_exactly_at_t_end():
    """0.7 * 3 / 3 is 0.6999999999999998 in floating point."""
    doc = dict(MINIMAL)
    doc["solver"] = {"t_end": 0.7, "snapshot_count": 3}
    times = validate_config(doc).solver.snapshot_times
    assert times[-1] == 0.7
    assert times[:2] == (0.7 * 1 / 3, 0.7 * 2 / 3)


def test_snapshot_times_need_distinct_labels():
    """Snapshot files are named snapshot_t%g.csv: 0.2500001 and
    0.2500002 would both write snapshot_t0.25.csv."""
    doc = dict(MINIMAL)
    doc["solver"] = {"t_end": 1, "snapshots": [0.2500001, 0.2500002, 0.5]}
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    assert [s for s in ei.value.issues
            if s.startswith("solver.snapshots")] == [
        "solver.snapshots: times must have distinct %g labels, "
        "got 0.25 from 0.2500001, 0.2500002"]
    doc["solver"] = {"t_end": 1, "snapshots": [0.25, 0.250002, 0.5]}
    assert validate_config(doc).solver.snapshot_times[1] == 0.250002


def test_eps_values_need_distinct_labels():
    """hopfcole_eps%g.csv and the run.json sup keys: 0.5 and 0.5000001
    would share one file and one key."""
    doc = {
        "experiment": "HopfCole",
        "kernel": {"family": "LogLinear", "beta": 3},
        "grid": {"L": 100, "N": 4096},
        "solver": {"t_end": 1, "dt": 0.01},
        "analysis": {"eps": [0.5, 0.5000001], "compact": [-5, 5, 0, 1]},
    }
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    assert ei.value.issues == [
        "analysis.eps: values must have distinct %g labels, "
        "got 0.5 from 0.5, 0.5000001"]
    doc["analysis"]["eps"] = [0.5, 0.500001]
    assert validate_config(doc).eps_list == (0.5, 0.500001)


def test_snapshots_and_count_conflict():
    doc = dict(MINIMAL)
    doc["solver"] = {"t_end": 10, "snapshots": [5], "snapshot_count": 2}
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    assert any("not both" in s for s in ei.value.issues)


def test_snapshots_outside_t_end_rejected():
    doc = dict(MINIMAL)
    doc["solver"] = {"t_end": 10, "snapshots": [5, 12]}
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    assert any("snapshots" in s for s in ei.value.issues)


def test_unknown_keys_are_reported_per_block():
    doc = dict(MINIMAL)
    doc["kernel"] = {"family": "Polynomial", "alpha": 4, "gamma": 2}
    doc["solver"] = {"t_end": 30, "speed": "fast"}
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    text = "\n".join(ei.value.issues)
    assert "kernel.gamma" in text and "solver.speed" in text


def test_grid_requires_power_of_two():
    doc = dict(MINIMAL)
    doc["grid"] = {"L": 100, "N": 1000}
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    assert any("grid" in s for s in ei.value.issues)


def test_all_experiment_names_recognized():
    """Each experiment accepts a doc built from keys it reads."""
    values = {"grid.L": 100, "grid.N": 32768, "solver.t_end": 1,
              "solver.dt": 0.01, "analysis.eps": [0.1]}
    for name, (keys, entries, _, _) in READS.items():
        doc = {"experiment": name,
               "kernel": {"family": "LogLinear", "beta": 3}}
        for key in keys:
            block, _, k = key.partition(".")
            v = ([-0.5, 0.5, 0, 1][:entries] if key == "analysis.compact"
                 else values.get(key))
            if v is not None:
                doc.setdefault(block, {})[k] = v
        try:
            cfg = validate_config(doc)
        except ValidationError as exc:
            raise AssertionError("%s: %s" % (name, exc))
        assert cfg.experiment == name


def test_the_table_counts_the_keys_each_experiment_reads():
    """79 of the 8 x 16 (experiment, key) pairs outside the kernel block
    are read; the other 49 are refused."""
    counts = {name: len(keys) for name, (keys, *_) in READS.items()}
    assert counts == {"KernelValidate": 1, "Simulate": 12, "Front": 13,
                      "HopfCole": 14, "Mutation": 13, "HJ": 9,
                      "Hamiltonian": 3, "CrossValidate": 14}
    assert all(len(set(keys)) == len(keys) for keys, *_ in READS.values())


def test_hj_refuses_a_time_step():
    """HJ steps at its CFL bound, so a dt in its config is refused."""
    doc = {"experiment": "HJ",
           "kernel": {"family": "LogLinear", "beta": 3},
           "grid": {"L": 20, "N": 512},
           "solver": {"t_end": 0.5, "dt": 0.01}}
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    assert any(s.startswith("solver.dt:") for s in ei.value.issues)
    del doc["solver"]["dt"]
    assert validate_config(doc).solver.t_end == 0.5


def test_unknown_family_reported_as_kernel_issue():
    doc = dict(MINIMAL)
    doc["kernel"] = {"family": "Levy", "alpha": 1}
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    assert any(s.startswith("kernel:") for s in ei.value.issues)


# each family with admissible values of the parameters it reads; the
# other 14 of the 5 x 4 (family, parameter) pairs are unread
_READ = {"SubExponential": {"alpha": 0.5}, "Polynomial": {"alpha": 4.0},
         "LogLinear": {"beta": 3.0}, "PowerShift": {"b": 1.0, "alpha": 0.5},
         "Gaussian": {"sigma": 1.0}}
_UNREAD = [(family, p) for family, read in _READ.items()
           for p in ("alpha", "beta", "b", "sigma") if p not in read]


@pytest.mark.parametrize("family,param", _UNREAD)
def test_a_parameter_the_family_does_not_read_is_refused(family, param):
    given = dict(_READ[family], **{param: 2.0})
    with pytest.raises(InvalidParams) as info:
        build_kernel(KernelSpec(family, **given))
    assert info.value.issues == ["%s: not read by %s" % (param, family)]
    doc = {"experiment": "KernelValidate",
           "kernel": dict(given, family=family)}
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    assert ei.value.issues == ["kernel.%s: not read by %s" % (param, family)]
    del doc["kernel"][param]
    assert validate_config(doc).kernel.params == _READ[family]


def test_unread_keys_are_refused_and_required_keys_named():
    doc = {"experiment": "Hamiltonian",
           "kernel": {"family": "LogLinear", "beta": 3},
           "analysis": {"levels": [0.5]},
           "output": {"stride": 2}}
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    assert ei.value.issues == ["analysis.levels: not read by Hamiltonian",
                               "output.stride: not read by Hamiltonian"]
    doc = {"experiment": "HopfCole", "kernel": {"family": "LogLinear",
                                                "beta": 3},
           "solver": {"dt": 0.01}}
    with pytest.raises(ValidationError) as ei:
        validate_config(doc)
    assert ei.value.issues == [
        "%s: required for HopfCole" % key
        for key in ("grid.L", "grid.N", "solver.t_end", "analysis.eps",
                    "analysis.compact")]


@pytest.mark.parametrize("path", [
    "README.md", "perfbench/configs/front.json",
    "perfbench/configs/snapshots.json", "perfbench/configs/crossval.json"])
def test_shipped_configs_validate(path):
    """The README's JSON example and the benchmark's configs set only
    keys their experiments read."""
    with open(os.path.join(_ROOT, path)) as fh:
        text = fh.read()
    if path == "README.md":
        text = text.split("```json")[1].split("```")[0]
    doc = json.loads(text)
    assert validate_config(doc).experiment == doc["experiment"]
