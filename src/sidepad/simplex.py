"""Exact phase-1 simplex in basis-inverse form on integers.

Decides whether ``A x = b`` has a nonnegative solution and returns one.
Minimizes the sum of artificial variables with Bland's smallest-index
pivoting rule, which rules out cycling, so termination is unconditional.

``feasible_sparse_solution`` takes A as 0/1 columns, each listing the rows
where it is 1, over b as integer numerators with a positive common
denominator: the oracle's LP, one column per support injection.  No
nonnegative mix of such columns reaches a negative value, so a negative
b_r means no solution, before any pivot; otherwise b >= 0 and no row is
flipped or scaled.

A is never stored as a tableau.  The solver keeps only the artificial
block, started at the identity, and the rhs: ``n_rows + 1`` integers per
row.  Every row operation of a pivot acts on the whole row, so the block
is the row operator M of all pivots so far, the real column j of the
tableau is M A_j and the rhs column is M b.  The objective row minimizes
the artificial sum: its block u starts at all -1 and is updated as every
other row, so its real cell j, the reduced cost, is u A_j.

A pivot with entry p, after previous pivot ``prev`` (1 at the start), sets
every other row to ``(p*row - f*pivot_row) // prev``, the objective row
included, and leaves the pivot row as it is; when ``p == prev == 1`` and f
is 1 or -1 that is one subtraction or addition of the pivot row.  No row
is ever reduced by a gcd.  The division is exact: every cell, in the
block, the rhs or a column computed from them, is a minor of the integer
matrix [A | I | b] with the objective row appended (Edmonds, J. Res. NBS
71B, 1967; Bareiss, Math. Comp. 22, 1968).  Each row is the row of the
rational tableau times a positive factor, so every sign and every
cross-multiplied ratio comparison, hence every pivot, verdict and
solution, is that of rational arithmetic.

Bland's rule is priced lazily: columns are priced in index order and the
first negative reduced cost enters, so only the columns up to it are
priced, each as the plain sum of the cells of u it selects.  Then only the
entering column, ``a_r = sum(M[r][c])`` over its rows, is computed, for
the ratio test and the row updates.

The pivots never enter an artificial column.  Those come after the real
ones, so Bland's rule would enter one only once no real column prices
out, where the LP with the nonbasic artificials fixed at 0 is optimal.  If
``A x = b`` has a solution x* >= 0, (x*, 0) is feasible there, so the
objective is 0 and every further pivot is degenerate and leaves x as it
is; otherwise the objective is not 0 and there is no solution.  So
stopping there gives the solution the full tableau gives.  For the same
reason the loop stops as soon as the objective reaches 0: a further
pivot, real or artificial, is degenerate and leaves x as it is.  The
solution is checked exactly against the input, on integers, before it is
returned as Fractions.

This backs the brute-force feasibility oracle, which must stay
structurally independent of the constructive pipeline it cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import add, itemgetter, sub
from typing import Callable, Optional, Sequence

from .errors import InputError, InternalInvariantError


def _cells(rows: Sequence[int]) -> Callable:
    """A getter of the cells of a row at ``rows``, always as a sequence."""
    if len(rows) > 1:
        return itemgetter(*rows)
    return itemgetter(slice(rows[0], rows[0] + 1) if rows else slice(0))


def _entering(u: list[int], columns: Sequence[Callable]) -> Optional[int]:
    """Bland's entering column: the first whose reduced cost, the sum of
    the cells of ``u`` its getter selects, is negative; None when no column
    prices out."""
    for j, get in enumerate(columns):
        if sum(get(u)) < 0:
            return j
    return None


def _phase_one(
    columns: Sequence[Sequence[int]], rhs: Sequence[int]
) -> Optional[tuple[dict[int, int], int]]:
    """Solve ``sum_j x_j A_j == rhs`` for x >= 0, A_j 1 at the rows
    ``columns[j]`` and 0 elsewhere, over ``rhs >= 0``.  Returns the positive
    basic values as integers over the last pivot, ``(xs, prev)`` with x_j =
    xs[j] / prev, or None when there is no solution."""
    n_rows = len(rhs)
    getters = list(map(_cells, columns))

    # The block of row r starts at e_r; the objective's at all -1.
    tableau = [[0] * n_rows + [b] for b in rhs]
    for r, row in enumerate(tableau):
        row[r] = 1
    tableau.append([-1] * n_rows + [-sum(rhs)])
    n_vars = len(getters)
    basis = list(range(n_vars, n_vars + n_rows))

    prev = 1
    while tableau[n_rows][n_rows]:  # objective 0: further pivots are degenerate
        entering = _entering(tableau[n_rows], getters)
        if entering is None:
            break
        get = getters[entering]
        column = [sum(get(row)) for row in tableau]
        # Bland's ratio test: the least rhs/coeff over positive coefficients
        # (row factors cancel), ties to the smallest basic variable.
        pivot_row = None
        for r in range(n_rows):
            coeff = column[r]
            if coeff > 0:
                if pivot_row is None:
                    pivot_row = r
                    continue
                here = tableau[r][n_rows] * column[pivot_row]
                best = tableau[pivot_row][n_rows] * coeff
                if here < best or (here == best and basis[r] < basis[pivot_row]):
                    pivot_row = r
        if pivot_row is None:
            raise InternalInvariantError("phase-1 objective unbounded")
        pivot = tableau[pivot_row]
        p = column[pivot_row]
        unit = p == prev == 1
        for r, row in enumerate(tableau):
            f = column[r]
            if r == pivot_row or (not f and p == prev):
                continue
            if unit and (f == 1 or f == -1):
                tableau[r] = list(map(sub if f == 1 else add, row, pivot))
            else:
                tableau[r] = [(p * v - f * pv) // prev for v, pv in zip(row, pivot)]
        prev = p
        basis[pivot_row] = entering

    if tableau[n_rows][n_rows]:
        return None
    # Every basic column is the last pivot times a unit vector, so the
    # positive basic values are the rhs cells over it.
    return {
        var: tableau[r][n_rows]
        for r, var in enumerate(basis)
        if var < n_vars and tableau[r][n_rows]
    }, prev


def feasible_sparse_solution(
    columns: Sequence[Sequence[int]], rhs: Sequence[int], den: int = 1
) -> Optional[tuple[Fraction, ...]]:
    """Return x >= 0 with ``sum_j x_j A_j == rhs / den`` exactly, or None if
    none exists.  Column A_j is 1 at the rows ``columns[j]`` lists (each at
    most once) and 0 elsewhere; ``rhs`` holds integer numerators over the
    positive integer ``den``."""
    n_rows = len(rhs)
    if den <= 0:
        raise InputError("den must be positive")
    listed = list(chain.from_iterable(columns))
    if listed and not 0 <= min(listed) <= max(listed) < n_rows:
        raise InputError("column row out of range")
    if any(b < 0 for b in rhs):
        return None
    found = _phase_one(columns, rhs)
    if found is None:
        return None
    xs, prev = found
    totals = [0] * n_rows
    for j, x in xs.items():
        for r in columns[j]:
            totals[r] += x
    if any(t != b * prev for t, b in zip(totals, rhs)):
        raise InternalInvariantError("phase-1 solution fails its constraints")
    solution = [Fraction(0)] * len(columns)
    for var, x in xs.items():
        solution[var] = Fraction(x, prev * den)
    return tuple(solution)
