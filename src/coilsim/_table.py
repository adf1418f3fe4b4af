"""The one CSV writer behind every numeric table the package exports."""

from __future__ import annotations

from typing import Iterable, Sequence


def write_repr_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the header, then one line per row of `repr`'d cells, ending
    lines with "\\r\\n" as csv.writer does.

    Cells must be Python ints or floats: their reprs round-trip and never
    need csv quoting (an np.float64 would print as `np.float64(...)`).
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)
