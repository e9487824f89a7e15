"""The integer phase-1 simplex's one entry, on 0/1 columns over an integer
rhs, against the Fraction tableau it replaced."""

import hashlib
import itertools
import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sidepad as sp
from sidepad import verification
from sidepad.simplex import feasible_sparse_solution
from corpus import corpus, uniform_independent


def _reference_simplex(rows, rhs, artificial_entries=None):
    """The Fraction phase-1 simplex (Bland's rule) the integer tableau
    replaced, artificial columns kept, on dense rows: a reference for
    ``feasible_sparse_solution``.  Each time an artificial column
    enters, the objective cell (minus the artificial sum) is appended to
    ``artificial_entries`` when it is a list."""
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
        if entering >= n_vars and artificial_entries is not None:
            artificial_entries.append(obj[width])
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


def _sparse(rows, rhs):
    """The sparse system a dense 0/1 one stands for: column j lists the
    rows where it is 1, and the rhs becomes integer numerators over the
    lcm of its denominators."""
    assert all(v in (0, 1) for row in rows for v in row)
    n_vars = len(rows[0]) if rows else 0
    columns = [tuple(r for r, row in enumerate(rows) if row[j])
               for j in range(n_vars)]
    den = lcm(*(b.denominator for b in rhs))
    return columns, [b.numerator * (den // b.denominator) for b in rhs], den


def _assert_same_solution(rows, rhs):
    got = feasible_sparse_solution(*_sparse(rows, rhs))
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


def test_degenerate_ties_follow_blands_rule():
    # Every ratio is zero at the first pivot; the tie goes to the row whose
    # basic variable has the smallest index.
    rows = [[1, 1, 0], [1, 0, 1], [0, 1, 1]]
    assert _assert_same_solution(rows, [0, 0, 0]) == (0, 0, 0)


def test_a_negative_right_hand_side_returns_none_before_solving(monkeypatch):
    # No nonnegative mix of 0/1 columns reaches a negative value; the
    # reference, which flips the row, finds no solution either.
    def no_solve(*args):
        raise AssertionError("phase 1 ran")

    monkeypatch.setattr(sp.simplex, "_phase_one", no_solve)
    for rows, rhs in [([[1, 1]], [-1]), ([[1, 0], [0, 1]], [2, F(-1, 3)])]:
        assert _reference_simplex(rows, rhs) is None
        assert feasible_sparse_solution(*_sparse(rows, rhs)) is None


def test_zero_rows_and_empty_systems():
    assert _assert_same_solution([[0, 0], [1, 1]], [0, F(1, 2)]) is not None
    assert _assert_same_solution([[0, 0], [1, 1]], [1, F(1, 2)]) is None
    assert feasible_sparse_solution([], []) == ()


@pytest.mark.parametrize("rows, rhs, objective, solution", [
    # Feasible: the artificial column enters once the objective is 0, and
    # every pivot after it is degenerate.
    ([[1, 0], [1, 1], [0, 1], [0, 1]], [1, 1, 0, 0], 0, (1, 0)),
    # Infeasible: the artificial column enters with the objective short of 0.
    ([[1, 0], [1, 1], [0, 1], [0, 1]], [0, 0, 0, 1], F(-1), None),
])
def test_stops_where_the_reference_enters_an_artificial_column(
    rows, rhs, objective, solution
):
    # The tableau holds no artificial columns, so it stops at the basis
    # where the reference enters one; both edge cases end as the reference.
    entries = []
    assert _reference_simplex(rows, rhs, entries) == solution
    assert entries and entries[0] == objective
    assert feasible_sparse_solution(*_sparse(rows, rhs)) == solution


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
        digest.update(repr(feasible_sparse_solution(*_sparse(rows, rhs))).encode())
        systems_seen += 1
    assert systems_seen == 428
    assert digest.hexdigest() == _TRIAGE_SEED1_DIGEST


def _dense(columns, rhs, den=1):
    """The dense system a sparse one stands for: ``rows @ x == rhs / den``
    with column j holding 1 at rows ``columns[j]`` and 0 elsewhere."""
    rows = [[0] * len(columns) for _ in rhs]
    for j, listed in enumerate(columns):
        for r in listed:
            rows[r][j] = 1
    return rows, [F(b, den) for b in rhs]


def _assert_sparse_is_the_reference(columns, rhs, den=1):
    got = feasible_sparse_solution(columns, rhs, den)
    assert got == _reference_simplex(*_dense(columns, rhs, den))
    if got is not None:
        assert all(type(v) is F and v >= 0 for v in got)
    return got


def test_matches_the_fraction_reference_on_triage_injection_lps(monkeypatch):
    # The LPs the oracle solves: one variable per support injection, one
    # row per supported cell, on every triage instance of seed 1 that
    # reaches the solver.
    systems = []
    solve = verification.feasible_sparse_solution

    def recording(*args):
        systems.append(args)
        return solve(*args)

    monkeypatch.setattr(verification, "feasible_sparse_solution", recording)
    for inst in _triage_instances(1):
        sp.feasibility_oracle(inst)
    assert len(systems) == 422
    for system in systems:
        _assert_sparse_is_the_reference(*system)


def _injection_systems(rng, count):
    """Random 0/1 injection systems as the oracle poses them: n states with
    random supports in m columns, one row per supported cell, one column
    per injection of the states into their supports listing its cells'
    rows, and a right-hand side mixed from up to four injections with
    random integer weights over their total, so each is feasible."""
    out = []
    while len(out) < count:
        m = rng.randint(2, 5)
        n = rng.randint(1, m)
        supports = [sorted(rng.sample(range(m), rng.randint(1, m))) for _ in range(n)]
        injections = [()]
        for cols in supports:
            injections = [inj + (j,) for inj in injections for j in cols if j not in inj]
        if not injections:
            continue
        rows = {}
        for i, cols in enumerate(supports):
            for j in cols:
                rows[i, j] = len(rows)
        columns = [tuple(rows[i, j] for i, j in enumerate(inj)) for inj in injections]
        rhs = [0] * len(rows)
        for _ in range(rng.randint(1, 4)):
            weight = rng.randint(1, 9)
            for r in rng.choice(columns):
                rhs[r] += weight
        out.append((n, columns, rhs, sum(rhs) // n))
    return out


def test_sparse_entry_matches_the_reference_on_feasible_injection_systems():
    for n, columns, rhs, den in _injection_systems(random.Random("mixtures"), 500):
        assert _assert_sparse_is_the_reference(columns, rhs, den) is not None


def test_sparse_entry_matches_the_reference_with_one_cell_moved():
    # The same systems.  Every injection puts one unit in each state's
    # cells, so moving mass from a cell of the first state to one of the
    # second leaves two state totals unequal: no mixture fits.
    moved = 0
    for n, columns, rhs, den in _injection_systems(random.Random("mixtures"), 500):
        if n < 2:
            continue
        # Each column lists the first state's cell first, the second's next.
        source = next(c[0] for c in columns if rhs[c[0]])
        rhs = list(rhs)
        rhs[source] -= 1
        rhs[columns[0][1]] += 1
        assert _assert_sparse_is_the_reference(columns, rhs, den) is None
        moved += 1
    assert moved == 334


@st.composite
def zero_one_systems(draw):
    """Small 0/1 systems as the sparse entry takes them: each column's rows
    (possibly none), the rhs as integer numerators (often negative, which
    no nonnegative mix reaches) over a positive ``den``."""
    n_rows = draw(st.integers(1, 4))
    rows = st.lists(st.integers(0, n_rows - 1), max_size=n_rows, unique=True)
    columns = draw(st.lists(rows, min_size=1, max_size=5))
    rhs = draw(st.lists(st.integers(-4, 6), min_size=n_rows, max_size=n_rows))
    return columns, rhs, draw(st.integers(1, 6))


@given(zero_one_systems())
def test_sparse_and_dense_entries_agree_on_small_systems(system):
    assert feasible_sparse_solution(*system) == _reference_simplex(*_dense(*system))


def test_sparse_entry_refuses_malformed_columns():
    with pytest.raises(sp.InputError):
        feasible_sparse_solution([(0, 1)], [1])
    with pytest.raises(sp.InputError):
        feasible_sparse_solution([(-1,)], [1])
    with pytest.raises(sp.InputError):
        feasible_sparse_solution([(0,)], [1], 0)
    with pytest.raises(sp.InputError):
        feasible_sparse_solution([(0,)], [1], -1)
    assert feasible_sparse_solution([(), ()], []) == (0, 0)


# SHA-256 over repr() of the oracle's support on the dense uniform grids:
# every cell positive, so every injection is a variable.  The 5x5 makes 83
# pivots, 51 of them with a pivot or previous pivot other than 1, so the
# tableau's exact division is exercised.
_UNIFORM_SUPPORT_DIGESTS = {
    (5, 5): "70221b30f08385b7aab7031507f2473064940afb3b7f9e44c659da97b94c8bba",
    (4, 6): "90b007e8f05c8c5b66de80abedd58c8de1c13b39e2069677b3a47cd0e30ee1da",
}


@pytest.mark.parametrize("n, m", sorted(_UNIFORM_SUPPORT_DIGESTS))
def test_oracle_support_on_dense_uniform_grids_is_pinned(n, m):
    support = sp.feasibility_oracle(uniform_independent(n, m)).support
    digest = hashlib.sha256(repr(support).encode()).hexdigest()
    assert digest == _UNIFORM_SUPPORT_DIGESTS[n, m]


def _plant_negative_reduced_cost(monkeypatch, planted):
    """Corrupt the pricing hook: column ``planted`` prices out on top of
    the real reduced costs, so Bland's rule enters it unless a column
    before it prices out."""
    entering = sp.simplex._entering

    def corrupt_entering(*args):
        found = entering(*args)
        return planted if found is None or found > planted else found

    monkeypatch.setattr(sp.simplex, "_entering", corrupt_entering)


def test_unbounded_phase_one_raises(monkeypatch):
    # Exact arithmetic keeps phase 1 bounded; a corrupted reduced cost (a
    # negative one over an all-zero column, which enters first while the
    # objective is still negative) must not pass silently.
    _plant_negative_reduced_cost(monkeypatch, 0)  # column 0 is all zero
    with pytest.raises(sp.InternalInvariantError, match="unbounded"):
        feasible_sparse_solution([(), (0,)], [1])


def test_phase_one_stops_at_objective_zero(monkeypatch):
    # Column 0 enters first and brings the objective to 0, so the loop
    # stops before the corrupted, all-zero column 1 could enter.
    _plant_negative_reduced_cost(monkeypatch, 1)
    assert feasible_sparse_solution([(0,), ()], [1]) == (1, 0)


def test_solution_failing_its_constraints_raises(monkeypatch):
    # A phase 1 that returns doubled values must not pass silently.
    phase_one = sp.simplex._phase_one

    def corrupt_phase_one(*args):
        xs, prev = phase_one(*args)
        return {j: 2 * x for j, x in xs.items()}, prev

    monkeypatch.setattr(sp.simplex, "_phase_one", corrupt_phase_one)
    with pytest.raises(sp.InternalInvariantError, match="fails its constraints"):
        feasible_sparse_solution([(0,), (0,)], [1])
