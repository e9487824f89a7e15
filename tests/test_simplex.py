"""The integer phase-1 simplex against the Fraction tableau it replaced."""

import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sidepad as sp
from sidepad.simplex import feasible_nonnegative_solution
from corpus import corpus, mixed23


def _reference_simplex(rows, rhs):
    """The Fraction phase-1 simplex (Bland's rule) the integer tableau
    replaced: a reference for ``feasible_nonnegative_solution``."""
    n_rows = len(rows)
    assert n_rows == len(rhs)
    n_vars = len(rows[0]) if n_rows else 0
    assert all(len(r) == n_vars for r in rows)
    if n_rows == 0:
        return ()

    tableau = []
    for r in range(n_rows):
        sign = -1 if rhs[r] < 0 else 1
        row = [sign * F(v) for v in rows[r]]
        row += [F(0)] * n_rows
        row[n_vars + r] = F(1)
        row.append(sign * F(rhs[r]))
        tableau.append(row)
    basis = [n_vars + r for r in range(n_rows)]
    width = n_vars + n_rows

    obj = [F(0)] * (width + 1)
    for j in range(n_vars):
        obj[j] = -sum((tableau[r][j] for r in range(n_rows)), F(0))
    obj[width] = -sum((tableau[r][width] for r in range(n_rows)), F(0))

    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        pivot_row = None
        best = None
        for r in range(n_rows):
            coeff = tableau[r][entering]
            if coeff > 0:
                ratio = tableau[r][width] / coeff
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[r] < basis[pivot_row])
                ):
                    best = ratio
                    pivot_row = r
        assert pivot_row is not None
        pivot = tableau[pivot_row][entering]
        tableau[pivot_row] = [v / pivot for v in tableau[pivot_row]]
        for r in range(n_rows):
            if r != pivot_row and tableau[r][entering] != 0:
                factor = tableau[r][entering]
                tableau[r] = [
                    v - factor * pv for v, pv in zip(tableau[r], tableau[pivot_row])
                ]
        if obj[entering] != 0:
            factor = obj[entering]
            obj = [v - factor * pv for v, pv in zip(obj, tableau[pivot_row])]
        basis[pivot_row] = entering

    if obj[width] != 0:
        return None
    solution = [F(0)] * n_vars
    for r, var in enumerate(basis):
        if var < n_vars:
            solution[var] = tableau[r][width]
    return tuple(solution)


def _assert_same_solution(rows, rhs):
    got = feasible_nonnegative_solution(rows, rhs)
    assert got == _reference_simplex(rows, rhs)
    if got is not None:
        assert all(type(v) is F and v >= 0 for v in got)
    return got


def _oracle_lps(instances):
    """The dense all-permutation systems the oracle solved before it moved
    to support injections, kept as simplex workloads: one 0/1 row per
    (supported state, column) over all m! permutations, right-hand side the
    conditional entry; instances with more supported states than columns
    are skipped."""
    for inst in instances:
        cm = sp.conditional_y_given_x(inst)
        if cm.n > cm.m:
            continue
        perms = list(itertools.permutations(range(cm.m)))
        rows = [[1 if perm[i] == j else 0 for perm in perms]
                for i in range(cm.n) for j in range(cm.m)]
        rhs = [cm.entries[i][j] for i in range(cm.n) for j in range(cm.m)]
        yield rows, rhs


def test_matches_the_fraction_reference_on_every_corpus_oracle_lp():
    checked = 0
    for rows, rhs in _oracle_lps(corpus()):
        _assert_same_solution(rows, rhs)
        checked += 1
    assert checked > 500


def test_takes_fraction_entries_as_well_as_ints():
    rows, rhs = next(_oracle_lps([mixed23()]))
    as_fractions = [[F(v) for v in row] for row in rows]
    assert (feasible_nonnegative_solution(as_fractions, rhs)
            == feasible_nonnegative_solution(rows, rhs))


_VALUES = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def systems(draw):
    """Small systems ``rows @ x == rhs``: entries in [-3, 3] with small
    denominators, mixed int/Fraction; rhs either drawn freely (often
    infeasible, often negative, so rows get flipped) or made from a sparse
    x >= 0 (feasible and often degenerate, which exercises ratio ties);
    rows may be all zero."""
    n_rows = draw(st.integers(1, 4))
    n_vars = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-3, 3), _VALUES, st.just(0))
    rows = [draw(st.lists(entry, min_size=n_vars, max_size=n_vars))
            for _ in range(n_rows)]
    if draw(st.booleans()):
        for r in draw(st.lists(st.integers(0, n_rows - 1), max_size=2)):
            rows[r] = [0] * n_vars
    if draw(st.booleans()):
        x = draw(st.lists(st.one_of(st.just(0), _VALUES.map(abs)),
                          min_size=n_vars, max_size=n_vars))
        rhs = [sum((F(a) * b for a, b in zip(row, x)), F(0)) for row in rows]
    else:
        rhs = draw(st.lists(st.one_of(st.integers(-3, 3), _VALUES),
                            min_size=n_rows, max_size=n_rows))
    return rows, rhs


@given(systems())
def test_matches_the_fraction_reference_on_small_systems(system):
    _assert_same_solution(*system)


def test_degenerate_ties_follow_blands_rule():
    # Every ratio is zero at the first pivot; the tie goes to the row whose
    # basic variable has the smallest index.
    rows = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert _assert_same_solution(rows, [0, 0, 0]) == (0, 0, 0)
    rows = [[1, 1, 1, 1], [1, -1, 1, -1], [2, 0, 2, 0]]
    assert _assert_same_solution(rows, [1, 0, 1]) is not None


def test_negative_right_hand_sides_flip_their_rows():
    assert _assert_same_solution([[-1, 0], [0, -2]], [F(-1, 3), -1]) == (
        F(1, 3), F(1, 2),
    )
    assert _assert_same_solution([[1, 1]], [-1]) is None


def test_zero_rows_and_empty_systems():
    assert _assert_same_solution([[0, 0], [1, 1]], [0, F(1, 2)]) is not None
    assert _assert_same_solution([[0, 0], [1, 1]], [1, F(1, 2)]) is None
    assert feasible_nonnegative_solution([], []) == ()
    with pytest.raises(sp.InputError):
        feasible_nonnegative_solution([[1]], [1, 2])
    with pytest.raises(sp.InputError):
        feasible_nonnegative_solution([[1], [1, 2]], [1, 2])


def _triage_instances(seed):
    """The 480 instances of the benchmark's triage workload for ``seed``:
    permutation mixtures and random unit grids, m in 2..5 on a fixed shape
    schedule."""
    rng = random.Random(f"triage/{seed}")
    out = []
    for index in range(480):
        mixture = index % 2 == 0
        m = 2 + (index // 2) % 4
        n = 1 + (index // 8) % (m if mixture else m + 1)
        labels = [f"x{i+1}" for i in range(n)], [f"y{j+1}" for j in range(m)]
        if mixture:
            total = 4 * m
            cuts = sorted(rng.sample(range(1, total), m - 1))
            counts = [[0] * m for _ in range(n)]
            for weight in (b - a for a, b in zip([0, *cuts], [*cuts, total])):
                perm = rng.sample(range(m), m)
                for i in range(n):
                    counts[i][perm[i]] += weight
            conditional = [[F(c, total) for c in row] for row in counts]
            inst = sp.instance_from_conditional([F(1, n)] * n, conditional, *labels)
        else:
            cells = [[0] * m for _ in range(n)]
            for _ in range(n * m):
                cells[rng.randrange(n)][rng.randrange(m)] += 1
            inst = sp.make_instance(
                *labels, [[F(v, n * m) for v in row] for row in cells]
            )
        out.append(inst)
        rng.randrange(2**63)  # the workload's per-job simulate seed
    return out


# SHA-256 over repr() of ``_reference_simplex`` on the oracle LP of every
# triage instance of seed 1 that reaches the solver (428 systems), in order.
_TRIAGE_SEED1_DIGEST = (
    "6f9ad64aa6dff74e39c4d4d31f174ce1355ba898efdaeab501c443ed5e12b2a4"
)


def test_matches_the_fraction_reference_on_triage_instances():
    digest = hashlib.sha256()
    systems_seen = 0
    for rows, rhs in _oracle_lps(_triage_instances(1)):
        digest.update(repr(feasible_nonnegative_solution(rows, rhs)).encode())
        systems_seen += 1
    assert systems_seen == 428
    assert digest.hexdigest() == _TRIAGE_SEED1_DIGEST


def test_unbounded_phase_one_raises(monkeypatch):
    # Exact arithmetic keeps phase 1 bounded; a corrupted objective row (a
    # negative reduced cost over an all-zero column) must not pass silently.
    reduced = sp.simplex._reduced
    calls = []

    def corrupt_objective(row, den):
        calls.append(row)
        if len(calls) == 2:  # the objective row, after the single tableau row
            row = [row[0], -1, *row[2:]]
        return reduced(row, den)

    monkeypatch.setattr(sp.simplex, "_reduced", corrupt_objective)
    with pytest.raises(sp.InternalInvariantError, match="unbounded"):
        feasible_nonnegative_solution([[1, 0]], [1])


class _TwoFacedRow(list):
    """Iterates as its values but indexes as their doubles."""

    def __getitem__(self, j):
        return 2 * list.__getitem__(self, j)


def test_solution_failing_its_constraints_raises():
    with pytest.raises(sp.InternalInvariantError, match="fails its constraints"):
        feasible_nonnegative_solution([_TwoFacedRow([1, 1])], [1])
