import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coilsim import _table
from coilsim._table import KERNEL_CHUNK, KERNEL_MIN, WRITE_ROWS, Levels, write_repr_csv
from coilsim.magnetics import MAP_BLOCK


def _bits(*patterns) -> list[float]:
    return np.array(patterns, dtype=np.uint64).view(np.float64).tolist()


# cells where repr is easy to get wrong: signed zeros, non-finite values
# (NaNs with other sign and payload bits print alike), subnormals, and both
# sides of repr's switches to exponent notation at 1e16 and 1e-4
SPECIALS = [
    0.0, -0.0, float("inf"), float("-inf"), float("nan"),
    *_bits(0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001),
    5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    9999999999999998.0, 1e16, 1.0000000000000002e16, -1e16,
    9.999999999999999e-05, 0.0001, 0.00010000000000000002, -0.0001,
    0.1, 1.5, -2.5e17, 1e300,
]

ROW_COUNTS = [0, 1, WRITE_ROWS - 1, WRITE_ROWS, WRITE_ROWS + 1, MAP_BLOCK - 1, MAP_BLOCK, MAP_BLOCK + 1]


def old_writer(path, header, rows) -> None:
    # the row-at-a-time writer the column blocks replaced
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from(ROW_COUNTS),
    pool=st.lists(st.floats(allow_subnormal=True) | st.sampled_from(SPECIALS), min_size=1, max_size=30),
    n_floats=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_blocks_match_row_writer_bytes(tmp_path_factory, n, pool, n_floats, seed):
    # float columns draw from a small pool, so cells repeat as grid
    # coordinates do; they are strided views of one table, as a field map's
    # columns are of its (n, 3) arrays
    rng = np.random.default_rng(seed)
    table = np.array(pool + SPECIALS)[rng.integers(0, len(pool) + len(SPECIALS), (n, n_floats))]
    header = ["iter"] + [f"f{k}" for k in range(n_floats)]
    columns = [range(n), *table.T]
    blocks = [[c[i:i + MAP_BLOCK] for c in columns] for i in range(0, max(n, 1), MAP_BLOCK)]
    out = tmp_path_factory.mktemp("csv")
    write_repr_csv(out / "new.csv", header, blocks)
    old_writer(out / "old.csv", header, zip(range(n), *table.T.tolist()))
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


def test_int_array_column_prints_python_ints(tmp_path):
    write_repr_csv(tmp_path / "t.csv", ["n", "v"], [[np.arange(3), np.array([-0.0, 0.0, -0.0])]])
    assert (tmp_path / "t.csv").read_bytes() == b"n,v\r\n0,-0.0\r\n1,0.0\r\n2,-0.0\r\n"


# -- the array kernel against repr ------------------------------------------


def assert_formats_as_repr(values):
    """_format gives every double in `values` the text repr gives it."""
    bits = np.unique(np.asarray(values, dtype=np.float64).view(np.uint64))
    got = [row.tobytes().replace(b"\0", b"").decode() for row in _table._format(bits)]
    want = list(map(repr, bits.view(np.float64).tolist()))
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert not bad, f"{len(bad)} of {len(want)} differ, e.g. {bad[:5]}"


def with_negatives(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def neighbours(values, steps=1):
    """values and the doubles up to `steps` ulps on either side of each."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return np.concatenate([(bits + k).view(np.float64) for k in range(-steps, steps + 1)])


def test_every_power_of_two():
    # c = 2^52 takes the asymmetric-interval branch; 2^-1022 and below do not
    assert_formats_as_repr(with_negatives([math.ldexp(1.0, e) for e in range(-1074, 1024)]))


def test_powers_of_ten_and_their_neighbours():
    assert_formats_as_repr(with_negatives(neighbours([float(f"1e{k}") for k in range(-323, 309)])))


def test_integers_around_2_to_the_53():
    # exact integers below 2^53, every other one above it, then every fourth
    ints = [float(2**53 + i) for i in range(-3000, 3000)]
    ints += [float(2**54 + 4 * i) for i in range(-500, 500)]
    assert_formats_as_repr(with_negatives(ints + [float(10**k + i) for k in range(15, 19) for i in (-1, 0, 1)]))


@pytest.mark.parametrize("edge", [1e16, 1e-4, 1e-3, 1e15])
def test_both_sides_of_the_notation_switches(edge):
    # repr switches to exponent form when decpt <= -4 or decpt > 16
    assert_formats_as_repr(with_negatives(neighbours([edge, edge * 10, edge / 10], steps=40)))


def test_three_digit_exponents():
    rng = np.random.default_rng(7)
    mantissas = rng.uniform(1.0, 10.0, 2000)
    exponents = rng.choice(np.r_[-307:-99, 100:308], 2000)
    values = mantissas * 10.0 ** exponents.astype(float)
    assert_formats_as_repr(with_negatives(np.r_[values, 1.7976931348623157e308, 2.2250738585072014e-308]))


def test_short_and_integral_values():
    # trailing zeros stripped, ".0" kept on integral fixed values
    values = np.r_[np.arange(1, 3000) / 8, np.arange(1, 3000) * 1000.0, np.arange(1, 3000) / 75]
    assert_formats_as_repr(with_negatives(values))


@pytest.mark.parametrize("n", [KERNEL_CHUNK - 1, KERNEL_CHUNK, KERNEL_CHUNK + 1])
def test_kernel_chunk_boundaries(n):
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-40, 40, n)
    assert_formats_as_repr(np.r_[values, SPECIALS])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern_formats_as_repr(patterns):
    assert_formats_as_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


# -- the kernel cutover and column kinds --------------------------------------


def write_and_read(tmp_path, header, columns):
    write_repr_csv(tmp_path / "t.csv", header, [columns])
    return (tmp_path / "t.csv").read_bytes()


@pytest.mark.parametrize("float_cells", [KERNEL_MIN - 2, KERNEL_MIN, KERNEL_MIN + 2])
def test_kernel_cutover_keeps_the_bytes(tmp_path, monkeypatch, float_cells):
    # rows with fewer float cells than KERNEL_MIN are formatted by repr, the
    # rest by the kernel; both give the row writer's bytes
    calls = []
    layout = _table._layout

    def counting(*args):
        calls.append(1)
        layout(*args)

    monkeypatch.setattr(_table, "_layout", counting)
    n = float_cells // 2
    rng = np.random.default_rng(float_cells)
    a, b = rng.standard_normal(n) * 1e-5, rng.standard_normal(n).tolist()
    got = write_and_read(tmp_path, ["i", "a", "b"], [range(n), a, b])
    old_writer(tmp_path / "old.csv", ["i", "a", "b"], zip(range(n), a.tolist(), b))
    assert got == (tmp_path / "old.csv").read_bytes()
    assert bool(calls) == (float_cells >= KERNEL_MIN)


@pytest.mark.parametrize("n", [3, KERNEL_MIN])
def test_mixed_int_and_float_column_keeps_its_ints(tmp_path, n):
    # a column of ints and floats would read as all floats through float64
    mixed = [1, 2.5, -3, 4.0] * (n // 4 + 1)
    floats = [0.1] * len(mixed)
    got = write_and_read(tmp_path, ["m", "f"], [mixed, floats])
    assert got.splitlines()[1:5] == [b"1,0.1", b"2.5,0.1", b"-3,0.1", b"4.0,0.1"]


@pytest.mark.parametrize("n", [3, KERNEL_MIN])
def test_numpy_float_scalars_print_as_floats(tmp_path, n):
    cells = [np.float64(0.1), 2.5, np.float64(-1e-7)] * (n // 3 + 1)
    got = write_and_read(tmp_path, ["v"], [cells])
    assert got.splitlines()[1:4] == [b"0.1", b"2.5", b"-1e-07"]


@pytest.mark.parametrize("n", [3, KERNEL_MIN // 2 + 1])
def test_non_float_cells_print_as_csv_writer_writes_them(tmp_path, monkeypatch, n):
    # a str as itself, an int as its repr, None as an empty cell and a float
    # (NaN included) as the Python float's repr, in all-float and mixed
    # columns alike; two float columns of n rows reach the kernel at
    # KERNEL_MIN // 2 rows
    calls = []
    layout = _table._layout

    def counting(*args):
        calls.append(1)
        layout(*args)

    monkeypatch.setattr(_table, "_layout", counting)
    rng = np.random.default_rng(n)
    floats = rng.standard_normal(n).tolist()
    floats[1] = math.nan
    mixed = [[None, 7, 2.5, "x", math.nan, np.float64(-0.25)][i % 6] for i in range(n)]
    columns = [[f"m{i}" for i in range(n)], list(range(-1, n - 1)), [None] * n, floats,
               rng.standard_normal(n) * 1e-7, mixed]
    header = ["method", "k", "none", "f", "g", "mixed"]
    got = write_and_read(tmp_path, header, columns)
    with open(tmp_path / "csv.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))
    assert got == (tmp_path / "csv.csv").read_bytes()
    assert bool(calls) == (2 * n >= KERNEL_MIN)


# -- deduplication on magnitude ----------------------------------------------

# cells whose sign repr prints, or does not: signed zeros, subnormals and
# infinities print "-" + repr(-x); a NaN prints "nan" whatever its sign bit
SIGNED_SPECIALS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, -2.2250738585072009e-308,
    float("inf"), float("-inf"), float("nan"),
    *_bits(0xFFF8000000000000, 0xFFF0000000000001, 0x7FF8000000000001),
]


@pytest.mark.parametrize(
    "n_magnitudes, n_cells",
    [(300, KERNEL_MIN - 1), (300, KERNEL_MIN), (300, KERNEL_MIN + 1),
     *((m, 2 * m + len(SIGNED_SPECIALS)) for m in (KERNEL_CHUNK - 1, KERNEL_CHUNK, KERNEL_CHUNK + 1))],
)
def test_both_signs_of_a_magnitude_print_as_repr(tmp_path, monkeypatch, n_magnitudes, n_cells):
    # each normal magnitude appears with both signs in one write, and the
    # write holds n_magnitudes of them: the kernel formats each once, in
    # one chunk or across a KERNEL_CHUNK edge
    rng = np.random.default_rng(n_cells)
    magnitudes = np.abs(rng.standard_normal(n_magnitudes)) * 10.0 ** rng.integers(-30, 30, n_magnitudes)
    pool = np.concatenate([magnitudes, -magnitudes, SIGNED_SPECIALS])
    cells = rng.permutation(np.resize(pool, max(n_cells, len(pool))))[:n_cells]
    formatted = []
    format_ = _table._format

    def recording(bits):
        formatted.append(len(bits))
        return format_(bits)

    monkeypatch.setattr(_table, "_format", recording)
    monkeypatch.setattr(_table, "WRITE_ROWS", n_cells)  # one write
    got = write_and_read(tmp_path, ["i", "v"], [range(n_cells), cells])
    old_writer(tmp_path / "old.csv", ["i", "v"], zip(range(n_cells), cells.tolist()))
    assert got == (tmp_path / "old.csv").read_bytes()
    if n_cells >= KERNEL_MIN:
        magnitude_bits = np.abs(cells).view(np.uint64)
        assert formatted == [len(np.unique(magnitude_bits))]
    else:
        assert formatted == []


def test_nan_sign_bit_prints_no_minus(tmp_path):
    nans = _bits(0xFFF8000000000000, 0x7FF8000000000000, 0xFFFFFFFFFFFFFFFF)
    cells = np.resize(np.array(nans + [-1.5, 1.5, -0.0]), KERNEL_MIN)
    got = write_and_read(tmp_path, ["v"], [cells])
    assert got.splitlines()[1:7] == [b"nan", b"nan", b"nan", b"-1.5", b"1.5", b"-0.0"]


# -- level columns ------------------------------------------------------------

LEVEL_CASES = {
    "repeated": ([-0.2, 0.0, 0.2], lambda n: np.arange(n) // 7 % 3),
    "reversed": (np.linspace(-1.0, 1.0, 17), lambda n: 16 - np.arange(n) % 17),
    "single": ([0.375], lambda n: np.zeros(n, dtype=np.intp)),
    "negative-zero": ([-0.0, 0.0, -5e-324, 1e16], lambda n: np.arange(n) * 5 % 4),
}


@pytest.mark.parametrize("n", [3, KERNEL_MIN // 2, KERNEL_MIN, WRITE_ROWS + 5])
@pytest.mark.parametrize("case", LEVEL_CASES)
@pytest.mark.parametrize("with_floats", [True, False], ids=["with-floats", "levels-only"])
def test_level_column_prints_as_its_expanded_column(tmp_path, n, case, with_floats):
    levels, index = LEVEL_CASES[case]
    levels, index = np.array(levels, dtype=np.float64), index(n)
    floats = [-np.random.default_rng(n).standard_normal(n)] if with_floats else []
    header = ["l", "m"] + ["f"] * with_floats
    write_repr_csv(tmp_path / "levels.csv", header, [[Levels(levels, index), Levels(levels[::-1], index), *floats]])
    write_repr_csv(tmp_path / "cells.csv", header, [[levels[index], levels[::-1][index], *floats]])
    assert (tmp_path / "levels.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


# -- atomic writes ------------------------------------------------------------

def test_failed_write_keeps_the_previous_bytes(tmp_path):
    # the writer truncated the file, then left the rows written before the
    # error in it
    path = tmp_path / "t.csv"
    path.write_bytes(b"old\r\n")

    def blocks():
        yield [np.arange(3.0)]
        raise RuntimeError("block failed")

    with pytest.raises(RuntimeError, match="block failed"):
        write_repr_csv(path, ["v"], blocks())
    assert path.read_bytes() == b"old\r\n"
    assert list(tmp_path.iterdir()) == [path]


def test_write_leaves_no_part_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"old\r\n")
    write_repr_csv(path, ["v"], [[[1.5, 2.5]]])
    assert path.read_bytes() == b"v\r\n1.5\r\n2.5\r\n"
    assert list(tmp_path.iterdir()) == [path]
