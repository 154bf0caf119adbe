"""Writers: float round trips, schema headers, and SVG determinism."""

import math
import os

import numpy as np
import pytest

from fatkpp.errors import IoError
from fatkpp.gridops import Field, Grid1D
from fatkpp.output import (_CHUNK, emit_svg_plot, write_csv,
                           write_envelope_csv, write_field_csv,
                           write_front_csv, write_hamiltonian_csv,
                           write_hopfcole_csv, write_rows, write_run_json,
                           write_zeroset_csv)
from fatkpp.propagation import FrontTrack


def _read_header(path):
    with open(path) as fh:
        return fh.readline().strip().split(",")


def test_csv_floats_round_trip_exactly(tmp_path):
    vals = np.array([1.0 / 3.0, math.pi, 1e-300, 1e300, -0.1,
                     5e-324, float("nan")])
    xs = np.arange(vals.size, dtype=float)
    path = write_csv(str(tmp_path / "a.csv"), ("x", "value"), (xs, vals))
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], xs)
    assert np.array_equal(back[:, 1], vals, equal_nan=True)


def test_csv_uses_lf_newlines(tmp_path):
    path = write_csv(str(tmp_path / "a.csv"), ("x",), ([1.0, 2.0],))
    raw = open(path, "rb").read()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(IoError, match="lengths"):
        write_csv(str(tmp_path / "a.csv"), ("a", "b"),
                  ([1.0, 2.0], [1.0]))


def test_csv_unformattable_cell_raises_io_error(tmp_path):
    """A cell _cell cannot format (None in an object column) is reported
    as IoError naming the file, not as a bare TypeError."""
    path = str(tmp_path / "a.csv")
    with pytest.raises(IoError, match="a.csv"):
        write_csv(path, ("a", "b"),
                  (np.array([1.0, 2.0]), np.array([1.5, None], dtype=object)))


def test_csv_golden_bytes_of_a_mixed_table(tmp_path):
    """Each column keeps its cell rule: 17 digits for floats, integers
    and bools as digits, characters as they are, objects per value."""
    path = write_csv(str(tmp_path / "a.csv"), ("f", "i", "b", "c", "o"), (
        np.array([1.0 / 3.0, -0.0, float("nan"), float("inf"), 5e-324]),
        np.arange(1, 6),
        np.array([True, False, True, False, False]),
        np.array(list("ABCDE")),
        np.array([1.5, "x", 7, True, np.float64(0.25)], dtype=object)))
    assert open(path, "rb").read() == (
        b"f,i,b,c,o\n"
        b"0.33333333333333331,1,1,A,1.5\n"
        b"-0,2,0,B,x\n"
        b"nan,3,1,C,7\n"
        b"inf,4,0,D,1\n"
        b"4.9406564584124654e-324,5,0,E,0.25\n")


@pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                               2 * _CHUNK + 17])
def test_csv_matches_per_cell_formatting_across_chunks(tmp_path, n):
    rng = np.random.default_rng(n)
    cols = (rng.standard_normal(n), rng.random(n) * 1e-300,
            rng.standard_normal(n) * 1e300)
    path = write_csv(str(tmp_path / "a.csv"), ("a", "b", "c"), cols)
    want = "a,b,c\n" + "".join(
        ",".join("%.17g" % float(v) for v in row) + "\n"
        for row in zip(*cols))
    assert open(path, "rb").read() == want.encode()


def test_rows_without_rows_keep_the_header(tmp_path):
    path = write_rows(str(tmp_path / "a.csv"), ("t", "x"), [])
    assert open(path, "rb").read() == b"t,x\n"


def test_field_csv_header_and_stride(tmp_path):
    g = Grid1D(4.0, 16)
    fld = Field(g, np.linspace(0, 1, 16))
    path = write_field_csv(str(tmp_path / "f.csv"), fld, value_name="n",
                           stride=4)
    assert _read_header(path) == ["x", "n"]
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.shape == (4, 2)
    assert np.array_equal(back[:, 0], g.x[::4])


def test_front_csv_schema_and_ratio_column(tmp_path):
    from fatkpp.kernels import build_kernel, KernelSpec
    k = build_kernel(KernelSpec(family="LogLinear", beta=3))
    tr = FrontTrack(level=0.5,
                    times=np.array([0.0, 1.0, 2.0]),
                    positions=np.array([float("nan"), 3.0, 9.0]),
                    predicted=np.array([0.0, 1.2, 4.5]),
                    garnier_lo=np.array([0.0, 1.0, 4.0]),
                    garnier_hi=np.array([0.0, 2.0, 8.0]))
    path = write_front_csv(str(tmp_path), [tr], k)
    assert os.path.basename(path) == "front.csv"
    assert _read_header(path) == ["t", "level", "x_level", "f_inv_t",
                                  "ratio_f_over_t", "garnier_lo",
                                  "garnier_hi"]
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert math.isnan(back[0, 4])
    assert back[1, 4] == pytest.approx(k.f(3.0) / 1.0)
    assert back[2, 4] == pytest.approx(k.f(9.0) / 2.0)


def test_envelope_csv_schema(tmp_path):
    path = write_envelope_csv(str(tmp_path),
                              [(1.0, 0.2, 0.0, 1e-3)])
    assert _read_header(path) == ["t", "theta_hat",
                                  "sandwich_lo_violation",
                                  "sandwich_hi_violation"]


def test_hopfcole_csv_flattens_the_grid(tmp_path):
    from types import SimpleNamespace
    hc = SimpleNamespace(eps=0.5,
                         times=np.array([0.5, 1.0]),
                         xs=np.array([1.0, 2.0, 3.0]),
                         u=np.arange(6.0).reshape(2, 3),
                         limit=np.zeros((2, 3)))
    path = write_hopfcole_csv(str(tmp_path), hc)
    assert os.path.basename(path) == "hopfcole_eps0.5.csv"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.shape == (6, 5)
    assert np.array_equal(back[:, 0], [0.5, 0.5, 0.5, 1.0, 1.0, 1.0])
    assert np.array_equal(back[:, 4], np.abs(back[:, 2]))


def test_zeroset_and_hamiltonian_schemas(tmp_path):
    p1 = write_zeroset_csv(str(tmp_path), [(1.0, -2.0, 2.0, 1.9, 2.2)])
    assert _read_header(p1) == ["t", "x_boundary_left",
                                "x_boundary_right", "example_lo",
                                "example_hi"]
    ps = np.linspace(0, 1, 5)
    p2 = write_hamiltonian_csv(str(tmp_path), ps, 1 + ps ** 2,
                               1 + 0.5 * ps ** 2, 1 + 2 * ps ** 2)
    assert _read_header(p2) == ["p", "H", "H_lower_env", "H_upper_env"]


def test_run_json_carries_the_timestamp_and_echo(tmp_path):
    import json
    manifest = {"Z": np.float64(1.0), "mu": 3.0, "steps": np.int64(7)}
    path = write_run_json(str(tmp_path), {"experiment": "Simulate"},
                          manifest, extra={"note": "x"})
    doc = json.load(open(path))
    assert doc["config"] == {"experiment": "Simulate"}
    assert doc["manifest"]["Z"] == 1.0 and doc["manifest"]["steps"] == 7
    assert doc["aborted"] is False and doc["abort_reason"] is None
    assert "timestamp" in doc and doc["note"] == "x"


def test_svg_is_byte_identical_across_calls(tmp_path):
    xs = np.linspace(0, 10, 50)
    series = [("a", xs, np.sin(xs)), ("b", xs, np.cos(xs))]
    p1 = emit_svg_plot(str(tmp_path / "1.svg"), series, title="t",
                       xlabel="x", ylabel="y")
    p2 = emit_svg_plot(str(tmp_path / "2.svg"), series, title="t",
                       xlabel="x", ylabel="y")
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_svg_empty_series_raise_and_write_nothing(tmp_path):
    path = str(tmp_path / "none.svg")
    with pytest.raises(IoError, match="empty"):
        emit_svg_plot(path, [("a", [], [])])
    with pytest.raises(IoError, match="empty"):
        emit_svg_plot(path, [("a", [1.0], [float("nan")])])
    assert not os.path.exists(path)


def test_svg_single_point_draws_a_marker(tmp_path):
    path = emit_svg_plot(str(tmp_path / "pt.svg"),
                         [("only", [2.0], [3.0])])
    text = open(path).read()
    assert "<circle" in text and "<polyline" not in text


def test_svg_log_scale_drops_nonpositive_values(tmp_path):
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    ys = np.array([10.0, -1.0, 0.0, 1000.0])
    path = emit_svg_plot(str(tmp_path / "log.svg"), [("f", xs, ys)],
                         logy=True)
    text = open(path).read()
    assert text.count(",") >= 2
    assert "polyline" in text


def test_svg_escapes_markup_in_labels(tmp_path):
    path = emit_svg_plot(str(tmp_path / "esc.svg"),
                         [("a<b & c", [0, 1], [0, 1])],
                         title="x<y", xlabel="a&b")
    text = open(path).read()
    assert "a&lt;b &amp; c" in text and "x&lt;y" in text


def _polyline_points(path):
    text = open(path).read()
    pts = text.split('points="')[1].split('"')[0].split()
    return np.array([[float(c) for c in p.split(",")] for p in pts])


def test_svg_thins_long_series_per_pixel_column(tmp_path):
    """A dense series keeps the lowest and highest point of each of the
    560 pixel columns, in x order, so its envelope survives."""
    xs = np.linspace(-5.0, 5.0, 20001)
    ys = np.sin(7.0 * xs) + 0.001 * xs
    pts = _polyline_points(emit_svg_plot(str(tmp_path / "d.svg"),
                                         [("s", xs, ys)]))
    assert 560 <= len(pts) <= 1120
    assert np.all(np.diff(pts[:, 0]) >= 0.0)
    full = _polyline_points(emit_svg_plot(str(tmp_path / "f.svg"),
                                          [("s", xs[::20], ys[::20])]))
    # pixel y grows downwards: the extremes of both plots coincide
    assert pts[:, 1].min() == pytest.approx(full[:, 1].min(), abs=0.05)
    assert pts[:, 1].max() == pytest.approx(full[:, 1].max(), abs=0.05)


def test_svg_short_series_pass_unthinned(tmp_path):
    xs = np.linspace(0.0, 1.0, 1120)
    pts = _polyline_points(emit_svg_plot(str(tmp_path / "s.svg"),
                                         [("s", xs, xs * xs)]))
    assert len(pts) == 1120
