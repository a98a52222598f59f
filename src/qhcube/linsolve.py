"""Exact Gaussian elimination over the rationals, with uniqueness certificates."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import QhcubeError


class InconsistentError(QhcubeError):
    """The linear system has no solution."""

    code = "Inconsistent"


class UnderdeterminedError(QhcubeError):
    """The linear system has a nontrivial kernel; the solution is not unique."""

    code = "Underdetermined"


def solve_unique(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction]:
    """Solve A u = b exactly, requiring a unique solution.

    Raises InconsistentError when no solution exists and UnderdeterminedError
    when more than one does.  Internally rows are kept sparse, so very sparse
    overdetermined systems (the common case here) reduce quickly.
    """
    if len(rows) != len(rhs):
        raise ValueError("one right-hand side per row is required")
    if not rows:
        raise UnderdeterminedError("no equations")
    ncols = len(rows[0])
    sparse = [
        ({c: Fraction(v) for c, v in enumerate(row) if v}, Fraction(b))
        for row, b in zip(rows, rhs)
    ]
    return solve_unique_sparse(sparse, ncols)


def solve_unique_sparse(
    equations: Sequence[tuple[dict[int, Fraction], Fraction]], ncols: int
) -> list[Fraction]:
    """Sparse variant: each equation is ({column: coefficient}, rhs)."""
    pivots: dict[int, tuple[dict[int, Fraction], Fraction]] = {}
    for row, b in equations:
        row = dict(row)
        while True:
            hit = next((c for c in row if c in pivots), None)
            if hit is None:
                break
            factor = row.pop(hit)
            prow, pb = pivots[hit]
            for c, v in prow.items():
                if c == hit:
                    continue
                acc = row.get(c, Fraction(0)) - factor * v
                if acc:
                    row[c] = acc
                elif c in row:
                    del row[c]
            b = b - factor * pb
        if not row:
            if b:
                raise InconsistentError("no solution satisfies all equations")
            continue
        col = min(row)
        inv = 1 / row[col]
        pivots[col] = ({c: v * inv for c, v in row.items()}, b * inv)
    if len(pivots) < ncols:
        free = [c for c in range(ncols) if c not in pivots]
        raise UnderdeterminedError(f"free columns: {free}")
    solution: list[Fraction] = [Fraction(0)] * ncols
    for col in sorted(pivots, reverse=True):
        prow, pb = pivots[col]
        value = pb
        for c, v in prow.items():
            if c != col:
                value -= v * solution[c]
        solution[col] = value
    return solution
