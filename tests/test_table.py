import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coilsim._table import write_repr_csv
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

ROW_COUNTS = [0, 1, MAP_BLOCK - 1, MAP_BLOCK, MAP_BLOCK + 1]


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
