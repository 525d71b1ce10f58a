"""``jsonio.write_csv`` against the writers it replaced, byte for byte.

``oracles.write_csv_per_cell`` formats every cell through its own call and
``oracles.write_csv_template`` is the earlier row template.  From
``jsonio.TEMPLATE_CELLS`` cells on, ``write_csv`` prints through the column
formatter of ``isscert.csvtext``; it must print what both print on either
side of that size, with every cell forced through the ``'%.17g'``
fallback, on files of several row blocks and on the columns of a 17 505-row
run.  The digits of ``csvtext._decimal`` are checked against the exact ones
of ``'%.16e'``, and the writer's memory against the file's length.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_simulate import ACC9_SIGNAL, acc9_certificate, acc9_model

import isscert as iss
import oracles
from isscert import csvtext, jsonio

# Near ties: the digits after the 17th lie within 6e-4 of a rounding midpoint
# (in units of the 17th digit), where a product of 64 bits can round the
# wrong way.  The last one lies beyond csvtext's table and falls back.
NEAR_TIES = [-3.3792541078241947e-221, 3.5084226677098645e-99, -3.021148536989063e+118,
             2.6157636084191e-214, -2.933800709587983e-152, 6.443070367160406e-208,
             -5.050185157513975e+143, 3.4318231522677184e+298]
# True ties: the 18th significant digit is a 5 with nothing after it.
TIES = [2.0 ** -25, 495398490293704.1, -1483039052054336.2, -881985949877946.4,
        1533661600446129.2]


def edge_values() -> np.ndarray:
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    return np.array([*powers, *np.nextafter(powers, -math.inf), *np.nextafter(powers, math.inf),
                     1e16, 1e17, 9.9999999999999999e16, 5e-324, 1.7976931348623157e308,
                     float(2 ** 60 + 1), 0.0, -0.0, *NEAR_TIES, *TIES])


def assert_same(path, header, columns):
    """write_csv prints what the per-cell and the template writers print."""
    printed = {}
    for writer in (jsonio.write_csv, oracles.write_csv_per_cell, oracles.write_csv_template):
        writer(path, header, columns)
        printed[writer] = path.read_bytes()
    assert printed[jsonio.write_csv] == printed[oracles.write_csv_per_cell]
    assert printed[jsonio.write_csv] == printed[oracles.write_csv_template]


def test_edge_values(tmp_path):
    x = edge_values()
    assert 3 * len(x) >= jsonio.TEMPLATE_CELLS
    assert_same(tmp_path / "edges.csv", ["x", "minus_x", "x/3"], [x, -x, x / 3])
    assert b"\n2.9802322387695312e-08,-2.9802322387695312e-08," in \
        (tmp_path / "edges.csv").read_bytes()


def test_every_cell_through_the_fallback(tmp_path, monkeypatch):
    """A bound of 1/2 decides no cell and leaves the bytes as they are."""
    monkeypatch.setattr(csvtext, "BOUND", 0.5)
    x = edge_values()
    assert csvtext._decimal(x)[2][x != 0].all()
    assert_same(tmp_path / "fallback.csv", ["x", "minus_x", "x/3"], [x, -x, x / 3])


def exact_digits(x: float):
    """(q, X, margin) of x != 0: the 17 digits and the exponent ``'%.16e'``
    prints, and, from integers alone, the distance from |x| 10^(16 - D), D
    the decade of |x| itself, to the nearest rounding midpoint (0 for a
    tie)."""
    mantissa, exponent = ("%.16e" % abs(x)).split("e")
    n, d = abs(x).as_integer_ratio()
    D = int(exponent)
    if n * 10 ** max(0, -D) < d * 10 ** max(0, D):  # the rounding carried into 10^D
        D -= 1
    k = 16 - D
    num, den = (n * 10 ** k, d) if k >= 0 else (n, d * 10 ** -k)
    return int(mantissa.replace(".", "")), int(exponent), abs(2 * (num % den) - den) / (2 * den)


def assert_decimal(x: np.ndarray):
    """Every cell csvtext._decimal decides has the exact digits.  A cell it
    leaves to '%.17g' is not finite, beyond the table's range or within
    twice the bound of a rounding midpoint, and every tie is left to it;
    zero is neither (q = X = 0)."""
    q, X, fallback = csvtext._decimal(x)
    for v, qv, Xv, left in zip(x.tolist(), q.tolist(), X.tolist(), fallback.tolist()):
        if v == 0:
            assert (qv, Xv, left) == (0, 0, False)
        elif not math.isfinite(v) or not csvtext._LOW <= abs(v) < csvtext._HIGH:
            assert left, v
        else:
            q_exact, X_exact, margin = exact_digits(v)
            assert (left and margin <= 2 * csvtext.BOUND) or \
                (not left and (qv, Xv) == (q_exact, X_exact)), v
            assert left or margin > 0, v


RANGE_ENDS = [v for end in (csvtext._LOW, csvtext._HIGH)
              for v in (np.nextafter(end, 0), end, np.nextafter(end, math.inf))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.floats(-2.3e-308, 2.3e-308),  # subnormals and +-0
                          st.sampled_from(RANGE_ENDS + NEAR_TIES + TIES).map(float),
                          st.floats(1e-3, 1e20)),  # where the ties are
                min_size=1, max_size=40),
       st.booleans())
def test_decimal_matches_the_exact_digits(values, negate):
    x = np.array(values)
    assert_decimal(-x if negate else x)


def test_no_fallback_within_the_range():
    """10^5 doubles of random significands from 10^-290 to 10^6 and from
    10^17 to 10^290: a random significand has far more fraction bits there
    than a tie can have, and the product decides every cell."""
    rng = np.random.default_rng(22)
    exponents = np.concatenate([rng.integers(-290, 6, 80000), rng.integers(17, 290, 20000)])
    x = rng.uniform(1, 10, len(exponents)) * 10.0 ** exponents * rng.choice([-1, 1], len(exponents))
    assert not csvtext._decimal(x)[2].any()
    assert_decimal(x[::10])


MODES = ["s", "u", "flow", "ş", "模式"]  # the last two are not ASCII
# Integers on both sides of 2^53 (exact as doubles up to there, so printed
# from their digits) and of 10^16, negative ones included.
EDGE_INTS = [v for e in (2 ** 53, 10 ** 16) for w in (e - 1, e, e + 1) for v in (w, -w)]


def ints(low: int, high: int):
    """int64 values in [low, high], small ones and the edges among them."""
    return st.one_of(st.integers(low, high), st.integers(-1000, 1000),
                     st.sampled_from([v for v in EDGE_INTS if low <= v <= high]))


@st.composite
def csv_columns(draw):
    """float64, str, two int64 (one of any values, one within 2^53) and bool
    columns, their rows drawn from a few values each; the row counts
    straddle jsonio.TEMPLATE_CELLS."""
    at = -(-jsonio.TEMPLATE_CELLS // 5)
    rows = draw(st.sampled_from([1, 7, at - 1, at, 2 * at]))
    pools = [np.array(draw(st.lists(st.floats(), min_size=1, max_size=20)), dtype=float),
             np.array(draw(st.lists(st.sampled_from(MODES), min_size=1, max_size=4))),
             np.array(draw(st.lists(ints(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=20)),
                      dtype=np.int64),
             np.array(draw(st.lists(ints(-2 ** 53, 2 ** 53), min_size=1, max_size=20)),
                      dtype=np.int64),
             np.array(draw(st.lists(st.booleans(), min_size=1, max_size=2)))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return [pool[rng.integers(0, len(pool), rows)] for pool in pools]


@settings(max_examples=60, deadline=None)
@given(csv_columns())
def test_matches_the_per_cell_writer(tmp_path_factory, columns):
    assert_same(tmp_path_factory.mktemp("csv") / "drawn.csv", ["x", "mode", "n", "k", "flag"],
                columns)


def test_integer_columns_print_their_digits(tmp_path, monkeypatch):
    """Integer and bool columns within 2^53 skip the float formatter; one
    value beyond sends its column through it.  The bytes are the template's
    either way."""
    formatted = []
    number_cells = csvtext._number_cells
    monkeypatch.setattr(csvtext, "_number_cells",
                        lambda x, out: formatted.append(len(x)) or number_cells(x, out))
    rows = jsonio.TEMPLATE_CELLS
    exact = np.resize(np.array([v for v in EDGE_INTS if abs(v) <= 2 ** 53]
                               + [0, 7, -12, 10 ** 15, 1234567890123456], dtype=np.int64), rows)
    flags = np.resize([True, False, False], rows)
    small = np.resize(np.array([0, 1, 2, 60000], dtype=np.uint64), rows)
    assert_same(tmp_path / "exact.csv", ["n", "flag", "u"], [exact, flags, small])
    assert formatted == []
    wide = exact.copy()
    wide[5] = 2 ** 53 + 1
    assert_same(tmp_path / "wide.csv", ["n", "flag"], [wide, flags])
    assert formatted == [rows]


def test_a_dense_run_matches_the_template(tmp_path):
    """trajectory.csv, construct.csv and reports.csv columns of the ACC9
    system at step 2e-4 (17 505 samples), and a header-only file."""
    inp = iss.zero_input()
    traj = iss.simulate(acc9_model(), ACC9_SIGNAL, [2.0], inp, 2e-4)
    times, states, modes, _ = traj.samples
    assert len(times) == 17505
    dec = iss.build_decreasing(acc9_certificate(-1.0), ACC9_SIGNAL, [1.0, 10.0, 100.0])
    reports = iss.check_trajectory(acc9_certificate(-3.0), traj, inp)
    assert len(reports) > 1000
    files = {
        "trajectory": (["t", "mode", "x1", "jump_flag"],
                       [times, modes, states[:, 0], traj.jump_flags()]),
        "construct": (["t", "V", "W", "h"], iss.decrease_check(dec, traj, inp)[1]),
        "reports": (["kind", "time", "mode", "lhs", "rhs", "margin"],
                    [reports.kind, reports.time, reports.mode, reports.lhs, reports.rhs,
                     reports.margin]),
        "empty": (["t", "V"], [np.empty(0), np.empty(0)]),
    }
    for name, (header, columns) in files.items():
        jsonio.write_csv(tmp_path / f"{name}.csv", header, columns)
        oracles.write_csv_template(tmp_path / f"{name}.template.csv", header, columns)
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / f"{name}.template.csv").read_bytes(), name


def test_blocks_print_what_the_template_prints(tmp_path, monkeypatch):
    """Row blocks of at most 16 rows, the last one short: ties, near ties,
    +-0, NaN, +-inf and the range's ends on either side of every block
    boundary, next to an integer and a text column, print what the per-cell
    and the template writers print.  A text column that is not ASCII in the
    last block only still leaves the file unwritten."""
    monkeypatch.setattr(jsonio, "TEMPLATE_CELLS", 0)
    blocks = []
    integer_cells = csvtext._integer_cells
    monkeypatch.setattr(csvtext, "_integer_cells",
                        lambda v, out: blocks.append(len(v)) or integer_cells(v, out))
    special = np.array([*TIES, *NEAR_TIES, 0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                        csvtext._LOW, np.nextafter(csvtext._HIGH, 0), 1.7976931348623157e308])
    small = [v for v in EDGE_INTS if abs(v) <= 2 ** 53]
    header = ["x", "n", "mode", "y"]
    width = 3 * csvtext.SLOT + len("flow") + len(header)
    monkeypatch.setattr(csvtext, "_ROW_BYTES", 16 * width)
    for rows in (50, 131, 200):
        x = np.resize(special, rows)
        columns = [x, np.resize(np.array(small + [0, -7], dtype=np.int64), rows),
                   np.resize(np.array(["s", "flow", "", "u"]), rows), -np.roll(x, 5)]
        blocks.clear()
        assert_same(tmp_path / f"blocks{rows}.csv", header, columns)
        assert len(blocks) >= 3 and sum(blocks) == rows, blocks
        assert set(blocks[:-1]) == {blocks[0]} and blocks[-1] < blocks[0] <= 16, blocks
        columns[2] = columns[2].copy()
        columns[2][-1] = MODES[-1]
        assert not csvtext.write_csv(tmp_path / "not_ascii.csv", header, columns)
        assert not (tmp_path / "not_ascii.csv").exists()


def test_memory_stays_within_one_block(tmp_path):
    """The traced peak of the construct.csv columns (four floats) at 80 000
    rows stays within 0.5 MB of the peak at 20 000: the writer holds one
    block of rows, not the whole file (about 170 bytes a row)."""
    def peak(rows: int) -> int:
        t = np.arange(rows) * 2e-4
        columns = [t, 2 * np.exp(-2 * t), -np.exp(-t), 0.8 * np.expm1(-t)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert csvtext.write_csv(tmp_path / "construct.csv", ["t", "V", "W", "h"], columns)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    short, long = peak(20000), peak(80000)
    assert long < short + 0.5e6, (short, long)
