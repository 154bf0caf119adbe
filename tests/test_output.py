"""Writers: float round trips, schema headers, and SVG determinism."""

import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from fatkpp import output
from fatkpp.errors import IoError
from fatkpp.gridops import Field, Grid1D
from fatkpp.output import (_CHUNK, Column, _render, emit_svg_plot,
                           write_csv, write_envelope_csv, write_front_csv,
                           write_hamiltonian_csv, write_hopfcole_csv,
                           write_long_csv, write_rows, write_run_json,
                           write_snapshots, write_zeroset_csv)
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
    """A column of a dtype with no cell format (here an object column
    holding None) is reported as IoError naming the file, before the
    file is opened."""
    path = str(tmp_path / "a.csv")
    with pytest.raises(IoError, match="a.csv"):
        write_csv(path, ("a", "b"),
                  (np.array([1.0, 2.0]), np.array([1.5, None], dtype=object)))
    assert not os.path.exists(path)


def test_csv_golden_bytes_of_a_mixed_table(tmp_path):
    """Each column keeps its cell rule: 17 digits for floats, integers
    and bools as digits, characters as they are."""
    path = write_csv(str(tmp_path / "a.csv"), ("f", "i", "b", "c"), (
        np.array([1.0 / 3.0, -0.0, float("nan"), float("inf"), 5e-324]),
        np.arange(1, 6),
        np.array([True, False, True, False, False]),
        np.array(list("ABCDE"))))
    assert open(path, "rb").read() == (
        b"f,i,b,c\n"
        b"0.33333333333333331,1,1,A\n"
        b"-0,2,0,B\n"
        b"nan,3,1,C\n"
        b"inf,4,0,D\n"
        b"4.9406564584124654e-324,5,0,E\n")


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


def _column_bytes(tmp_path, values, fmt="%.17g"):
    """The bytes write_csv gives a one-column table, and those of
    formatting each cell by fmt."""
    path = write_csv(str(tmp_path / "a.csv"), ("v",), (values,))
    want = "v\n" + "".join(fmt % v + "\n" for v in values.tolist())
    return open(path, "rb").read(), want.encode()


def test_floats_match_percent_g_on_random_bit_patterns(tmp_path):
    """2**20 doubles from random bits: every exponent, subnormals, nan
    payloads and both signs."""
    bits = np.random.default_rng(17).integers(0, 2 ** 64, 2 ** 20,
                                              dtype=np.uint64)
    got, want = _column_bytes(tmp_path, bits.view(np.float64))
    assert got == want


def test_floats_match_percent_g_at_powers_of_ten(tmp_path):
    """Every 10**k from 1e-300 to 1e300, its neighbours one ulp away and
    their negatives: the exponent is fixed from the exact value."""
    p = np.array([float("1e%d" % k) for k in range(-300, 301)])
    p = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    got, want = _column_bytes(tmp_path, np.concatenate([p, -p]))
    assert got == want


@pytest.mark.parametrize("values", [
    [1e15 + 0.25, 1e15 + 0.75, 2.5, 0.5, 0.125],              # ties
    [99999999999999999.0, 9.9999999999999999e22, 0.99999999999999999]
    + [np.nextafter(float("1e%d" % k), 0.0) for k in range(-307, 309)],
    [1e16, 31965997121011360.0, 1e17, 1e22, 123456789e8],   # trailing 0s
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
     1.7976931348623157e308, -1.7976931348623157e308, float("nan"),
     -float("nan"), float("inf"), -float("inf")],            # specials
    [1e-5, 1e-4, 0.1, 1e16, 12345678901234567.0, 1e-280, 1e280,
     9.9999999999999996e-281, 1.0000000000000001e280],      # form edges
], ids=["ties", "decade-round-up", "trailing-zeros", "specials", "edges"])
def test_floats_match_percent_g_at_edge_cases(tmp_path, values):
    got, want = _column_bytes(tmp_path, np.array(values))
    assert got == want


@pytest.mark.parametrize("values", [
    np.array([0, 1, -1, 2 ** 53, -2 ** 53, 2 ** 53 + 1, -2 ** 53 - 1,
              10 ** 17, 2 ** 63 - 1, -2 ** 63]),
    np.array([0, 2 ** 53 + 1, 2 ** 64 - 1], dtype=np.uint64),
    np.array([-7, 0, 7], dtype=np.int8),
    np.array([True, False]),
], ids=["int64", "uint64", "int8", "bool"])
def test_integers_match_percent_d(tmp_path, values):
    got, want = _column_bytes(tmp_path, values, "%d")
    assert got == want


def test_strings_are_utf8_in_every_chunk(tmp_path):
    """ASCII and wider characters, in a column rendered once and in one
    rendered a chunk at a time, with chunks of either kind."""
    cells = np.array(["a"] * _CHUNK + ["\u00e9", "\u03a9\u20ac", ""])
    path = write_csv(str(tmp_path / "a.csv"), ("c", "d"),
                     (Column([_render(cells)]), cells))
    want = "c,d\n" + "".join("%s,%s\n" % (c, c) for c in cells)
    assert open(path, "rb").read() == want.encode("utf-8")


_SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324]


def _naive(v):
    """One cell by the writer's rules, a value at a time."""
    if isinstance(v, (bool, int, np.bool_, np.integer)):
        return "%d" % v
    if isinstance(v, str):
        return v
    return "%.17g" % float(v)


def _floats(rng, n):
    """n random floats of wide range, led by the special cells."""
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    v[:len(_SPECIAL)] = _SPECIAL[:n]
    return v


_ROWS = [0, 1, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 17]


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("rows", _ROWS)
def test_snapshots_match_per_cell_formatting(tmp_path, rows, stride):
    """Every snapshot file shares one rendered x column and keeps the
    bytes of formatting each cell on its own."""
    rng = np.random.default_rng(rows + stride)
    x = _floats(rng, rows * stride)
    snaps = [(t, SimpleNamespace(values=_floats(rng, rows * stride)))
             for t in (0.5, 1.0, 2.0)]
    run = SimpleNamespace(grid=SimpleNamespace(x=x), snapshots=snaps)
    paths = write_snapshots(str(tmp_path), run, stride=stride)
    assert len(paths) == 3
    for path, (t, fld) in zip(paths, snaps):
        want = "x,n\n" + "".join(
            "%s,%s\n" % (_naive(a), _naive(b))
            for a, b in zip(x[::stride], fld.values[::stride]))
        assert open(path, "rb").read() == want.encode(), path


@pytest.mark.parametrize("times", [[0.25], [-0.0, 1.0 / 3.0, 5e-324,
                                            float("nan"), 7.0]])
@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("rows", _ROWS)
def test_long_csv_matches_per_cell_formatting(tmp_path, rows, stride,
                                              times):
    """t and x rendered once per block keep the bytes of formatting every
    cell; float, int, bool and char value columns, '%' in a char cell."""
    rng = np.random.default_rng(rows * stride + len(times))
    xs = _floats(rng, rows * stride)[::stride]
    chars = np.array(["A", "%", "%s", "B%%d"])
    table = [(t, (_floats(rng, rows), rng.integers(-9, 10 ** 12, rows),
                  rng.random(rows) < 0.5, chars[rng.integers(0, 4, rows)]))
             for t in times]
    path = write_long_csv(str(tmp_path / "a.csv"), ("f", "i", "b", "c"),
                          xs, table)
    want = "t,x,f,i,b,c\n" + "".join(
        ",".join(map(_naive, (t,) + row)) + "\n"
        for t, vals in table for row in zip(xs, *vals))
    assert open(path, "rb").read() == want.encode()


def test_csv_copies_rendered_text_verbatim(tmp_path):
    """Rendered cells, a column's matrix or one cell for a whole block,
    are copied as they are, '%' included, wherever the column sits."""
    cells = np.array(["%", "%s", "a%%b", "%d"] * (_CHUNK // 2 + 1))
    n = len(cells)
    path = write_csv(str(tmp_path / "a.csv"), ("v", "c", "k", "w"), (
        np.arange(n), Column([_render(cells)]),
        Column([np.broadcast_to(_render(["%s"]), (n, 2))]), np.full(n, 0.5)))
    want = "v,c,k,w\n" + "".join(
        "%d,%s,%%s,0.5\n" % (i, c) for i, c in enumerate(cells))
    assert open(path, "rb").read() == want.encode()


def test_long_csv_without_times_keeps_the_header(tmp_path):
    path = write_long_csv(str(tmp_path / "a.csv"), ("u",),
                          np.linspace(0.0, 1.0, 5), [])
    assert open(path, "rb").read() == b"t,x,u\n"


@pytest.mark.parametrize("sizes", [(5, 4), (6, 4)])
def test_long_csv_rejects_a_ragged_time(tmp_path, sizes):
    """A time's value array shorter than xs is refused, not padded, also
    when another time's longer array makes up the total."""
    xs = np.linspace(0.0, 1.0, 5)
    with pytest.raises(IoError, match="lengths"):
        write_long_csv(str(tmp_path / "a.csv"), ("u",), xs,
                       [(t, (np.zeros(n),)) for t, n in enumerate(sizes)])


def test_rows_without_rows_keep_the_header(tmp_path):
    path = write_rows(str(tmp_path / "a.csv"), ("t", "x"), [])
    assert open(path, "rb").read() == b"t,x\n"


def test_snapshots_header_and_stride(tmp_path):
    g = Grid1D(4.0, 16)
    fld = Field(g, np.linspace(0, 1, 16))
    run = SimpleNamespace(grid=g, snapshots=[(0.5, fld)])
    path, = write_snapshots(str(tmp_path), run, stride=4)
    assert os.path.basename(path) == "snapshot_t0.5.csv"
    assert _read_header(path) == ["x", "n"]
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.shape == (4, 2)
    assert np.array_equal(back[:, 0], g.x[::4])


def test_write_s_counts_the_shared_column_rendering(tmp_path, monkeypatch):
    """The x column a snapshot set shares is rendered before any file
    opens; write_s counts that time too."""
    real = output._render

    def slow(values):
        time.sleep(0.05)
        return real(values)

    monkeypatch.setattr(output, "_render", slow)
    g = Grid1D(4.0, 16)
    run = SimpleNamespace(grid=g, snapshots=[(0.5, Field(g, np.zeros(16)))])
    w0 = output.write_s
    write_snapshots(str(tmp_path), run)
    assert output.write_s - w0 >= 0.05


def test_write_s_counts_a_write_that_fails(tmp_path):
    """A write that ends in IoError still adds its time to write_s."""
    def lines():
        time.sleep(0.05)
        yield "a\n"
        raise OSError("device full")

    w0 = output.write_s
    with pytest.raises(IoError, match="device full"):
        output._write_lines(str(tmp_path / "a.csv"), lines())
    assert output.write_s - w0 >= 0.05


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
