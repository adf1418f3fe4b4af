"""The one CSV writer behind every numeric table the package exports.

A table arrives as blocks of columns, so a table too large to hold whole
streams through one block at a time.  Row-built tables (traces, logs,
diagnostics) pass their rows transposed as a single block.  The writer
turns WRITE_ROWS rows of a block's columns at a time into their cells'
`repr`s, then joins those rows and writes them as one string.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

# Rows formatted and written at a time: bounds the writer's own memory
# (about 1 kB of cells and text per row) whatever the block size.
WRITE_ROWS = 256


def _cells(column) -> list[str]:
    """The `repr` of each cell of `column`.

    A float64 array is formatted once per distinct bit pattern and the
    texts are gathered back in row order, so a grid coordinate repeated
    down the rows formatted together costs one `repr`.  Distinct bits, not distinct values,
    keep -0.0 and 0.0 apart.  Other arrays format their Python scalars.
    """
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
            text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            return text[inverse].tolist()
        column = column.tolist()
    return list(map(repr, column))


def write_repr_csv(path, header: Sequence[str], blocks: Iterable[Iterable[Sequence]]) -> None:
    """Write the header, then each block of equal-length columns as one line
    per row of `repr`'d cells, ending lines with "\\r\\n" as csv.writer does.

    Columns are float64 arrays, or sequences of Python ints or floats:
    their reprs round-trip and never need csv quoting (an np.float64 cell
    would print as `np.float64(...)`).
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            columns = list(columns)
            for start in range(0, len(columns[0]) if columns else 0, WRITE_ROWS):
                cells = [_cells(c[start:start + WRITE_ROWS]) for c in columns]
                fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
