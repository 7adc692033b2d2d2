"""Brute-force reference for realizability decisions, used only by the tests.

It decides feasibility without the simplex solver, so the tests can compare
``check_realizability`` against an independent answer on small systems.
"""

from __future__ import annotations

from fractions import Fraction

from corrlab.realizability import MarginalSystem, build_constraint_system


def realizability_oracle(system: MarginalSystem) -> bool:
    """Independent feasibility decision by exact vertex enumeration.

    A nonempty polytope {x >= 0 : Mx = b} (bounded by the normalization row)
    has a vertex supported on rank(M) linearly independent columns, so we try
    every candidate support and solve the square-ish system by Gaussian
    elimination over rationals.  Exponential; intended as a test oracle for
    small systems only.
    """
    from itertools import combinations

    encoded = build_constraint_system(system)
    matrix = [list(map(Fraction, row)) for row in encoded.matrix]
    rhs = list(encoded.rhs)
    ncols = len(encoded.atoms)

    rank = _rank([row[:] for row in matrix])
    for support in combinations(range(ncols), rank):
        solution = _solve_on_support(matrix, rhs, support)
        if solution is not None and all(v >= 0 for v in solution):
            return True
    return False


def _rank(rows: list[list[Fraction]]) -> int:
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot_row = next(
            (i for i in range(rank, len(rows)) if rows[i][col] != 0), None
        )
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / pivot
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _solve_on_support(matrix, rhs, support) -> list[Fraction] | None:
    # Eliminate on the selected columns; remaining rows must be consistent.
    rows = [[matrix[r][c] for c in support] + [rhs[r]] for r in range(len(matrix))]
    pivots: list[int] = []
    rank = 0
    for col in range(len(support)):
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            return None  # dependent support columns: not a basis
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / pivot
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(rows)):
        if rows[i][-1] != 0:
            return None  # inconsistent with the dropped rows
    return [rows[k][-1] / rows[k][pivots[k]] for k in range(rank)]
