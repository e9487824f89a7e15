"""Exact phase-1 simplex on an integer tableau.

Decides whether ``A x = b`` has a nonnegative solution and returns one.
Minimizes the sum of artificial variables with Bland's smallest-index
pivoting rule, which rules out cycling, so termination is unconditional.

Each tableau row, the objective row included, is a list of integer
numerators over one positive row denominator, reduced by its gcd after
every pivot.  Every cell equals the rational a Fraction tableau would
hold, so pivots, verdict and solution are exactly those of rational
arithmetic, at integer cost.  Entries may be ints or Fractions (read
through ``numerator``/``denominator``); Fractions appear again only in
the returned solution, which is checked exactly against the input on
integers: the basic values over one common denominator, each row over
its own.

This backs the brute-force feasibility oracle, which must stay
structurally independent of the constructive pipeline it cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import InputError, InternalInvariantError


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    """The same rationals ``row / den`` with the common factor divided out."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def feasible_nonnegative_solution(
    rows: Sequence[Sequence[int | Fraction]], rhs: Sequence[int | Fraction]
) -> Optional[tuple[Fraction, ...]]:
    """Return x >= 0 with ``rows @ x == rhs`` exactly, or None if none exists."""
    n_rows = len(rows)
    if n_rows != len(rhs):
        raise InputError("one right-hand side per row")
    n_vars = len(rows[0]) if n_rows else 0
    if any(len(r) != n_vars for r in rows):
        raise InputError("ragged constraint matrix")
    if n_rows == 0:
        return ()

    # Tableau: real columns, artificial identity, rhs; flip rows to b >= 0.
    # Row r holds the rationals tableau[r][j] / dens[r].
    width = n_vars + n_rows
    tableau: list[list[int]] = []
    dens: list[int] = []
    for r in range(n_rows):
        cells = [*rows[r], rhs[r]]
        den = lcm(*(v.denominator for v in cells))
        sign = -1 if rhs[r] < 0 else 1
        row = [sign * v.numerator * (den // v.denominator) for v in cells]
        row[n_vars:n_vars] = [0] * n_rows
        row[n_vars + r] = den
        row, den = _reduced(row, den)
        tableau.append(row)
        dens.append(den)
    basis = [n_vars + r for r in range(n_rows)]

    # Reduced costs for minimizing the artificial sum: objective row holds
    # c_j - c_B.col_j; the last cell tracks minus the objective value.
    obj_den = lcm(*dens)
    scales = [obj_den // d for d in dens]
    obj = [0] * (width + 1)
    for j in (*range(n_vars), width):
        obj[j] = -sum(row[j] * s for row, s in zip(tableau, scales))
    obj, obj_den = _reduced(obj, obj_den)

    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        # Bland's ratio test: the least rhs/coeff over positive coefficients
        # (row denominators cancel), ties to the smallest basic variable.
        pivot_row = None
        for r in range(n_rows):
            coeff = tableau[r][entering]
            if coeff > 0:
                if pivot_row is None:
                    pivot_row = r
                    continue
                here = tableau[r][width] * tableau[pivot_row][entering]
                best = tableau[pivot_row][width] * coeff
                if here < best or (here == best and basis[r] < basis[pivot_row]):
                    pivot_row = r
        if pivot_row is None:
            raise InternalInvariantError("phase-1 objective unbounded")
        # Scaling the pivot row to a unit pivot is a change of denominator.
        pivot, pivot_den = _reduced(tableau[pivot_row], tableau[pivot_row][entering])
        tableau[pivot_row], dens[pivot_row] = pivot, pivot_den
        for r in range(n_rows):
            factor = tableau[r][entering]
            if r != pivot_row and factor != 0:
                tableau[r], dens[r] = _reduced(
                    [v * pivot_den - factor * pv for v, pv in zip(tableau[r], pivot)],
                    dens[r] * pivot_den,
                )
        factor = obj[entering]
        if factor != 0:
            obj, obj_den = _reduced(
                [v * pivot_den - factor * pv for v, pv in zip(obj, pivot)],
                obj_den * pivot_den,
            )
        basis[pivot_row] = entering

    if obj[width] != 0:
        return None

    # The positive basic values as integers xs[j] over one denominator D.
    D = lcm(*(dens[r] for r, var in enumerate(basis) if var < n_vars))
    xs = {
        var: tableau[r][width] * (D // dens[r])
        for r, var in enumerate(basis)
        if var < n_vars and tableau[r][width]
    }
    # rows @ x == rhs, each row over the lcm E of its cells' denominators:
    # sum(cell * x) = total / (E * D) must equal b.
    for r in range(n_rows):
        cells = [(rows[r][j], x) for j, x in xs.items()]
        E = lcm(*(v.denominator for v, _ in cells))
        total = sum(v.numerator * (E // v.denominator) * x for v, x in cells)
        b = rhs[r]
        if total * b.denominator != b.numerator * E * D:
            raise InternalInvariantError("phase-1 solution fails its constraints")
    solution = [Fraction(0)] * n_vars
    for var, x in xs.items():
        solution[var] = Fraction(x, D)
    return tuple(solution)
