"""Exact phase-1 simplex on an integer-preserving tableau.

Decides whether ``A x = b`` has a nonnegative solution and returns one.
Minimizes the sum of artificial variables with Bland's smallest-index
pivoting rule, which rules out cycling, so termination is unconditional.

Every cell is an integer and no row is ever reduced by a gcd.  Row r holds
its coefficients times s_r, the lcm of the row's coefficient denominators,
and its right-hand side times s_r and one common B.  A pivot with entry p,
after previous pivot ``prev`` (1 at the start), sets every other row to
``(p*row - f*pivot_row) // prev``, the objective row included, and leaves
the pivot row as it is; when ``p == prev == 1`` and f is 1 or -1 that is
one subtraction or addition of the pivot row.  The division is exact:
every cell is an entry of adj(basis) times the integer system (Edmonds,
J. Res. NBS 71B, 1967; Bareiss, Math. Comp. 22, 1968).  Each row is the
row of the rational tableau times a positive factor, so every sign and
every cross-multiplied ratio comparison, hence every pivot, verdict and
solution, is that of rational arithmetic.  Entries may be ints or
Fractions (read through ``numerator``/``denominator``); Fractions appear
again only in the returned solution, which is checked exactly against the
input on integers.

The rows hold no artificial block: artificial r is only the basis label
``n_vars + r``.  Artificial columns come after the real ones, so Bland's
rule would enter one only once no real column prices out, where the LP
with the nonbasic artificials fixed at 0 is optimal.  If ``A x = b`` has
a solution x* >= 0, (x*, 0) is feasible there, so the objective is 0 and
every further pivot is degenerate and leaves x as it is; otherwise the
objective is not 0 and there is no solution.  So stopping there gives the
solution the full tableau gives.  For the same reason the loop stops as
soon as the objective reaches 0: a further pivot, real or artificial, is
degenerate and leaves x as it is.

This backs the brute-force feasibility oracle, which must stay
structurally independent of the constructive pipeline it cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul, sub
from typing import Optional, Sequence

from .errors import InputError, InternalInvariantError


def _objective(tableau: list[list[int]], scales: list[int]) -> list[int]:
    """Reduced costs for minimizing the artificial sum, c_j - c_B.col_j,
    times the lcm of the row scales s_r, and the last cell minus the
    objective value."""
    L = lcm(*scales)
    weights = [L // s for s in scales]
    return [-sum(map(mul, column, weights)) for column in zip(*tableau)]


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

    # Tableau: real columns and rhs; flip rows to b >= 0.  The objective
    # row comes last and is updated as the others are.
    B = lcm(*(b.denominator for b in rhs))
    tableau: list[list[int]] = []
    scales: list[int] = []
    for r in range(n_rows):
        s = lcm(*(v.denominator for v in rows[r]))
        b = rhs[r]
        sign = -1 if b < 0 else 1
        row = [sign * v.numerator * (s // v.denominator) for v in rows[r]]
        row.append(sign * b.numerator * s * (B // b.denominator))
        tableau.append(row)
        scales.append(s)
    tableau.append(_objective(tableau, scales))
    basis = [n_vars + r for r in range(n_rows)]

    prev = 1
    while True:
        obj = tableau[n_rows]
        if obj[n_vars] == 0:
            break  # objective 0: every further pivot would be degenerate
        entering = next((j for j in range(n_vars) if obj[j] < 0), None)
        if entering is None:
            break
        # Bland's ratio test: the least rhs/coeff over positive coefficients
        # (row factors cancel), ties to the smallest basic variable.
        pivot_row = None
        for r in range(n_rows):
            coeff = tableau[r][entering]
            if coeff > 0:
                if pivot_row is None:
                    pivot_row = r
                    continue
                here = tableau[r][n_vars] * tableau[pivot_row][entering]
                best = tableau[pivot_row][n_vars] * coeff
                if here < best or (here == best and basis[r] < basis[pivot_row]):
                    pivot_row = r
        if pivot_row is None:
            raise InternalInvariantError("phase-1 objective unbounded")
        pivot = tableau[pivot_row]
        p = pivot[entering]
        unit = p == prev == 1
        for r, row in enumerate(tableau):
            f = row[entering]
            if r == pivot_row or (not f and p == prev):
                continue
            if unit and (f == 1 or f == -1):
                tableau[r] = list(map(sub if f == 1 else add, row, pivot))
            else:
                tableau[r] = [(p * v - f * pv) // prev for v, pv in zip(row, pivot)]
        prev = p
        basis[pivot_row] = entering

    if tableau[n_rows][n_vars] != 0:
        return None

    # Every row pivoted on holds the last pivot in its basic cell, so the
    # positive basic values are integers xs[j] over one denominator D.
    D = prev * B
    xs = {
        var: tableau[r][n_vars]
        for r, var in enumerate(basis)
        if var < n_vars and tableau[r][n_vars]
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
