"""Extension, matchings, the exact decomposition, and scheme building."""

import dataclasses
import gc
import hashlib
import itertools
import random
import sys
from collections import Counter, namedtuple
from fractions import Fraction as F

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import sidepad as sp
from corpus import (
    corpus, corr23, det22, mixed23, otp2, overfull47, skew22, uniform_independent,
)
from test_simplex import _triage_instances


def _conditional(inst):
    return sp.conditional_y_given_x(inst)


def test_extend_pads_worked_example():
    ext = sp.extend(_conditional(corr23()))
    assert ext.n == 2 and ext.m == 3
    assert ext.entries[2] == (F(1, 2), F(0), F(1, 2))


def test_extend_pad_row_absorbs_column_slack():
    ext = sp.extend(_conditional(mixed23()))
    assert ext.entries[2] == (F(1, 2), F(1, 6), F(1, 3))


def test_extend_square_is_identity_operation():
    cm = _conditional(det22())
    ext = sp.extend(cm)
    assert ext.entries == cm.entries


def test_extend_pads_by_north_west_corner():
    # Slacks 1/2, 3/4, 3/4 poured column by column: row 1 takes column 0's
    # 1/2 and half of column 1, row 2 the rest.
    inst = sp.make_instance(["x1"], ["y1", "y2", "y3"], [["1/2", "1/4", "1/4"]])
    ext = sp.extend(_conditional(inst))
    assert ext.entries[1:] == (
        (F(1, 2), F(1, 2), F(0)),
        (F(0), F(1, 4), F(3, 4)),
    )


def test_extend_north_west_corner_skips_full_columns():
    # Slacks 3/4, 0, 1/2, 3/4: row 2 takes column 0's 3/4 and fills up on a
    # quarter of column 2, skipping the full column 1; row 3 takes the rest.
    inst = sp.instance_from_conditional(
        ["1/2", "1/2"],
        [["1/4", "1/2", "1/4", "0"], ["0", "1/2", "1/4", "1/4"]],
    )
    ext = sp.extend(_conditional(inst))
    assert ext.entries[2:] == (
        (F(3, 4), F(0), F(1, 4), F(0)),
        (F(0), F(0), F(1, 4), F(3, 4)),
    )


def test_extend_refuses_infeasible_with_witness_columns():
    with pytest.raises(sp.InfeasibleError) as exc_info:
        sp.extend(_conditional(skew22()))
    assert exc_info.value.violations == (0,)


def test_extended_matrix_validates():
    with pytest.raises(sp.InputError):
        sp.ExtendedMatrix(n=1, m=2, entries=((F(1), F(0)),))
    with pytest.raises(sp.InputError):
        sp.ExtendedMatrix(
            n=1, m=2, entries=((F(1), F(0)), (F(1), F(0)))
        )  # column sums 2 and 0


def test_birkhoff_of_worked_example():
    terms = sp.birkhoff_decompose(sp.extend(_conditional(corr23())))
    assert terms == ((F(1, 2), (0, 1, 2)), (F(1, 2), (1, 2, 0)))


def test_birkhoff_of_uniform_square():
    terms = sp.birkhoff_decompose(sp.extend(_conditional(otp2())))
    assert terms == ((F(1, 2), (0, 1)), (F(1, 2), (1, 0)))


def test_birkhoff_of_permutation_matrix_is_single_term():
    ext = sp.ExtendedMatrix(
        n=2, m=2, entries=((F(0), F(1)), (F(1), F(0)))
    )
    assert sp.birkhoff_decompose(ext) == ((F(1), (1, 0)),)


def test_birkhoff_is_deterministic():
    ext = sp.extend(_conditional(mixed23()))
    assert sp.birkhoff_decompose(ext) == sp.birkhoff_decompose(ext)


@st.composite
def doubly_stochastic(draw, max_m=5):
    """Random exact doubly stochastic matrices as convex combinations of
    permutation matrices (independent of the decomposition under test)."""
    m = draw(st.integers(2, max_m))
    count = draw(st.integers(1, 6))
    perms = draw(
        st.lists(st.permutations(range(m)), min_size=count, max_size=count)
    )
    raw = draw(
        st.lists(st.integers(1, 9), min_size=count, max_size=count)
    )
    total = sum(raw)
    grid = [[F(0)] * m for _ in range(m)]
    for w, perm in zip(raw, perms):
        for i in range(m):
            grid[i][perm[i]] += F(w, total)
    return sp.ExtendedMatrix(n=m, m=m, entries=tuple(tuple(r) for r in grid))


@given(doubly_stochastic())
def test_birkhoff_reconstructs_exactly(ext):
    terms = sp.birkhoff_decompose(ext)
    m = ext.m
    assert sum(alpha for alpha, _ in terms) == 1
    assert all(alpha > 0 for alpha, _ in terms)
    assert len(terms) <= m * m - 2 * m + 2
    for i in range(m):
        for j in range(m):
            mass = sum(
                (alpha for alpha, sigma in terms if sigma[i] == j), F(0)
            )
            assert mass == ext.entries[i][j]
    # each sigma is a real permutation
    for _, sigma in terms:
        assert sorted(sigma) == list(range(m))


def test_build_scheme_worked_example_structure():
    scheme = sp.build_scheme(corr23())
    assert scheme.x_labels == ("x1", "x2")
    assert scheme.y_labels == ("y1", "y2", "y3")
    assert scheme.z_labels == ("z1", "z2")
    assert scheme.px == (F(1, 2), F(1, 2))
    assert scheme.weights == (F(1, 2), F(1, 2))
    assert scheme.assignments == ((0, 1, 2), (1, 2, 0))


def _columns_verdict(assignments):
    """The Scheme's column rule entry by entry: None, or the message for the
    first entry that is neither None nor an int in range (bools are ints)."""
    m = len(assignments[0])
    for row in assignments:
        for col in row:
            if col is not None and not (isinstance(col, int) and 0 <= col < m):
                return f"assignment column {col!r} out of range"
    return None


@given(st.lists(
    st.lists(
        st.sampled_from([None, 0, 1, 2, True, False, 1.0, 3, -1, F(1), "1", [1]]),
        min_size=3, max_size=3,
    ),
    min_size=2, max_size=2,
))
def test_scheme_column_check_names_the_first_bad_column(rows):
    base = sp.build_scheme(corr23())
    want = _columns_verdict(rows)
    try:
        scheme = sp.Scheme(
            x_labels=base.x_labels, y_labels=base.y_labels,
            z_labels=base.z_labels, px=base.px, weights=base.weights,
            assignments=rows,
        )
    except sp.InputError as exc:
        assert str(exc) == want
    else:
        assert want is None
        assert scheme.assignments == tuple(map(tuple, rows))


def test_scheme_stores_its_labels_as_tuples():
    inst = mixed23()
    scheme = sp.build_scheme(inst)
    copy = sp.Scheme(
        x_labels=list(scheme.x_labels),
        y_labels=list(scheme.y_labels),
        z_labels=list(scheme.z_labels),
        px=scheme.px,
        weights=scheme.weights,
        assignments=scheme.assignments,
    )
    assert (copy.x_labels, copy.y_labels, copy.z_labels) == (
        scheme.x_labels, scheme.y_labels, scheme.z_labels)
    assert type(copy.x_labels) is type(copy.y_labels) is type(copy.z_labels) is tuple
    assert copy == scheme
    assert hash(copy) == hash(scheme)
    assert sp.verify_scheme(copy, inst).all_ok


def test_build_scheme_xor_pad_pairing():
    scheme = sp.build_scheme(otp2())
    # z1 pairs (x1,y1),(x2,y2); z2 pairs (x1,y2),(x2,y1)
    assert scheme.assignments == ((0, 1), (1, 0))
    assert scheme.weights == (F(1, 2), F(1, 2))


def test_build_scheme_skips_zero_mass_states():
    inst = sp.make_instance(
        ["x1", "x2"], ["y1", "y2"], [["1/2", "1/2"], ["0", "0"]]
    )
    scheme = sp.build_scheme(inst)
    assert scheme.x_labels == ("x1",)
    assert scheme.px == (F(1),)
    assert sp.verify_scheme(scheme, inst).all_ok


def test_build_scheme_refuses_infeasible():
    with pytest.raises(sp.InfeasibleError) as exc_info:
        sp.build_scheme(skew22())
    assert exc_info.value.violations == (0,)


def test_row_value_multisets_condition():
    assert sp.row_value_multisets_equal(_conditional(det22()))
    assert sp.row_value_multisets_equal(_conditional(corr23()))
    assert not sp.row_value_multisets_equal(_conditional(mixed23()))


def test_deterministic_search_finds_square_witness():
    outcome = sp.find_deterministic_scheme(det22())
    assert outcome.status == "found"
    scheme = outcome.scheme
    assert scheme.weights == (F(2, 3), F(1, 3))
    assert scheme.assignments == ((0, 1), (1, 0))
    assert sp.verify_scheme(scheme, det22()).all_ok


def test_deterministic_search_on_worked_example():
    # The built scheme for the 2x3 example is itself deterministic, and the
    # search recovers exactly it.
    outcome = sp.find_deterministic_scheme(corr23())
    assert outcome.status == "found"
    assert outcome.scheme == sp.build_scheme(corr23())


def test_deterministic_search_exhausts_to_none():
    outcome = sp.find_deterministic_scheme(mixed23())
    assert outcome.status == "none_found"
    assert outcome.scheme is None
    assert outcome.nodes == 0  # the rows' value multisets differ


def test_deterministic_search_leaves_no_cyclic_garbage():
    # Found and none found: each call's state must be freed by reference
    # counting on return, not left for the collector.
    instances = [det22(), mixed23(), overfull47()]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        statuses = [sp.find_deterministic_scheme(inst).status for inst in instances]
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert statuses == ["found", "none_found", "none_found"]


# The reference search's result: ``find_deterministic_scheme``'s two
# statuses, plus "budget_exhausted", which only a bounded search can reach.
Outcome = namedtuple("Outcome", "status scheme nodes")


def _reference_deterministic(inst, limit=1_000_000):
    """The exhaustive backtracking search for a deterministic scheme, kept
    as ground truth for :func:`find_deterministic_scheme`.  ``status`` is
    "budget_exhausted" (undecided) once it has tried ``limit`` nodes.

    Signals are pinned to first-row cells in column order (any
    deterministic scheme is a relabeling of one found this way), and the
    remaining rows are filled one signal at a time, each cell value-matched
    to the signal weight in a column the signal has not used.
    """
    cm = _conditional(inst)
    sp.construction._column_condition(cm, strict=True)

    cells = [
        [(j, v) for j, v in enumerate(row) if v > 0] for row in cm.entries
    ]
    n, m = cm.n, cm.m
    first = cells[0]
    p = len(first)
    alphas = [v for _, v in first]
    used: list[set[int]] = [{j} for j, _ in first]
    chosen = [[j for j, _ in first]] + [[-1] * p for _ in range(n - 1)]
    nodes = 0

    # Depth-first over the slots (row i, signal k) in row-major order, on an
    # explicit stack of the option index placed in each filled slot.  A row
    # whose support size differs from p offers no options.  Backtracking out
    # of a row has undone all its placements, so ``taken`` needs no reset.
    taken = [[False] * p for _ in range(n)]
    picks: list[int] = []
    i, k, t = 1, 0, 0  # the slot to fill and the first option to try there
    while i < n:
        options = cells[i] if len(cells[i]) == p else []
        for t in range(t, len(options)):
            if taken[i][t]:
                continue
            nodes += 1
            if nodes > limit:
                return Outcome("budget_exhausted", None, nodes)
            j, v = options[t]
            if v != alphas[k] or j in used[k]:
                continue
            taken[i][t] = True
            used[k].add(j)
            chosen[i][k] = j
            picks.append(t)
            i, k, t = (i, k + 1, 0) if k + 1 < p else (i + 1, 0, 0)
            break
        else:  # slot exhausted: undo the previous slot and try its next option
            if not picks:
                return Outcome("none_found", None, nodes)
            i, k = (i, k - 1) if k else (i - 1, p - 1)
            t = picks.pop()
            taken[i][t] = False
            used[k].remove(cells[i][t][0])
            t += 1

    assignments = [
        [chosen[i][k] for i in range(n)] + sorted(set(range(m)) - used[k])
        for k in range(p)
    ]
    scheme = sp.construction._named_scheme(inst, cm, alphas, assignments)
    return Outcome("found", scheme, nodes)


def _search_cases():
    """Uniform rows whose last row cannot match: the reference search
    backtracks through every placement of the other rows, and its budget
    cuts the longest searches."""
    for m in range(3, 8):
        for n in range(2, m):
            rows = [[F(1, m)] * m for _ in range(n - 1)]
            for last in (
                [F(1, m - 1)] * (m - 1) + [F(0)],
                [F(2, m + 1)] + [F(1, m + 1)] * (m - 1),
            ):
                inst = sp.instance_from_conditional([F(1, n)] * n, rows + [last])
                if sp.check_feasible(inst).feasible:
                    yield inst


def _differential_instances():
    """Every feasible corpus instance and triage instance (seeds 1-4), and
    ``_search_cases()``."""
    triage = (inst for seed in range(1, 5) for inst in _triage_instances(seed))
    for inst in itertools.chain(corpus(), triage):
        if sp.check_feasible(inst).feasible:
            yield inst
    yield from _search_cases()


def _assert_reference_verdict(inst, limit=30_000) -> bool:
    """``find_deterministic_scheme`` gives the reference's verdict on
    ``inst`` wherever the reference decides within ``limit`` nodes, and a
    scheme it finds verifies, passes the audit and meets p_lower_bound.
    Returns whether the reference decided."""
    outcome = sp.find_deterministic_scheme(inst)
    assert outcome.status in ("found", "none_found")
    assert (outcome.scheme is None) == (outcome.status == "none_found")
    if outcome.scheme is not None:
        assert sp.verify_scheme(outcome.scheme, inst).all_ok
        assert sp.necessity_audit(outcome.scheme).ok
        assert outcome.scheme.p == sp.p_lower_bound(inst)
    reference = _reference_deterministic(inst, limit)
    if reference.status == "budget_exhausted":
        return False
    assert outcome.status == reference.status
    return True


def test_deterministic_search_golden_outcomes():
    # The reference search's verdict on every differential instance it
    # decides; it leaves only a few of the longest uniform-row searches open.
    instances = list(_differential_instances())
    decided = sum(_assert_reference_verdict(inst) for inst in instances)
    assert len(instances) - decided <= 10
    assert decided > 1500


def test_deterministic_search_decides_what_the_reference_cannot():
    inst = overfull47()
    assert sp.row_value_multisets_equal(_conditional(inst))
    assert _reference_deterministic(inst, 10_000).status == "budget_exhausted"
    outcome = sp.find_deterministic_scheme(inst)
    assert (outcome.status, outcome.scheme) == ("none_found", None)
    assert outcome.nodes == 23


def _marginal_x_calls(call, *args):
    """How many times ``call(*args)`` runs ``marginal_x``, however bound."""
    code = sp.model.marginal_x.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize(
    "call", [sp.build_scheme, sp.find_deterministic_scheme, sp.check_feasible]
)
def test_p_x_is_summed_once_per_call(call):
    inst = sp.make_instance(
        ["x1", "x2", "x3"], ["y1", "y2", "y3"],
        [["1/6", "1/6", "0"], ["0", "0", "0"], ["1/3", "0", "1/3"]],
    )
    assert _marginal_x_calls(call, inst) == 1
    assert _marginal_x_calls(call, corr23()) == 1


def test_deterministic_search_caps_width():
    # Width is no limit: a single uniform row over nine columns is found.
    inst = sp.make_instance(
        ["x1"], [f"y{j}" for j in range(9)], [[F(1, 9)] * 9]
    )
    outcome = sp.find_deterministic_scheme(inst)
    assert outcome.status == "found"
    assert outcome.scheme.p == 9
    assert sp.verify_scheme(outcome.scheme, inst).all_ok


def test_deterministic_search_refuses_infeasible():
    with pytest.raises(sp.InfeasibleError):
        sp.find_deterministic_scheme(skew22())


def test_deterministic_scheme_has_singleton_signal_sets():
    # The fixtures and every scheme found on the differential instances.
    for inst in (det22(), corr23(), *_differential_instances()):
        scheme = sp.find_deterministic_scheme(inst).scheme
        if scheme is None:
            continue
        for i in range(scheme.n):
            for j in range(scheme.m):
                covering = sp.support_signals(scheme, i, j)
                cm = _conditional(inst)
                if cm.entries[i][j] > 0:
                    assert len(covering) == 1
                else:
                    assert not covering


@st.composite
def feasible_instances(draw, max_m=4):
    """Mixture-built instances: feasible by construction."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, m))
    count = draw(st.integers(1, 4))
    perms = draw(
        st.lists(st.permutations(range(m)), min_size=count, max_size=count)
    )
    raw = draw(st.lists(st.integers(1, 6), min_size=count, max_size=count))
    total = sum(raw)
    px_raw = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    px_total = sum(px_raw)
    grid = [[F(0)] * m for _ in range(n)]
    for w, perm in zip(raw, perms):
        for i in range(n):
            grid[i][perm[i]] += F(px_raw[i], px_total) * F(w, total)
    return sp.make_instance(
        [f"x{i+1}" for i in range(n)], [f"y{j+1}" for j in range(m)], grid
    )


@given(feasible_instances(max_m=6))
def test_extend_padding_is_sparse_and_doubly_stochastic(inst):
    cm = _conditional(inst)
    ext = sp.extend(cm)
    n, m = cm.n, cm.m
    assert ext.entries[:n] == cm.entries
    pad = ext.entries[n:]
    assert all(v >= 0 for row in pad for v in row)
    assert all(sum(row) == 1 for row in pad)
    assert all(sum(row[j] for row in ext.entries) == 1 for j in range(m))
    assert sum(v != 0 for row in pad for v in row) <= 2 * m - n - 1


def _assert_p_within_bounds(inst):
    scheme = sp.build_scheme(inst)
    m = scheme.m
    assert sp.p_lower_bound(inst) <= scheme.p <= m * m - 2 * m + 2


def test_p_lower_bound_holds_on_corpus():
    for inst in corpus():
        if sp.check_feasible(inst).feasible:
            _assert_p_within_bounds(inst)


@given(feasible_instances(max_m=6))
def test_p_lower_bound_holds_on_random_instances(inst):
    _assert_p_within_bounds(inst)


def test_p_lower_bound_is_the_largest_row_support():
    assert sp.p_lower_bound(corr23()) == 2
    assert sp.p_lower_bound(mixed23()) == 2
    assert sp.p_lower_bound(otp2()) == 2
    inst = sp.make_instance(
        ["x1", "x2", "x3"], ["y1", "y2", "y3"],
        [["1/6", "1/6", "0"], ["0", "1/6", "1/6"], ["0", "0", "1/3"]],
    )
    assert sp.p_lower_bound(inst) == 2


@given(feasible_instances())
def test_built_schemes_always_verify(inst):
    scheme = sp.build_scheme(inst)
    assert sp.verify_scheme(scheme, inst).all_ok
    assert sp.necessity_audit(scheme).ok


@given(feasible_instances(max_m=3))
def test_deterministic_witness_implies_row_condition(inst):
    outcome = sp.find_deterministic_scheme(inst)
    if outcome.status == "found":
        assert sp.row_value_multisets_equal(_conditional(inst))
        assert sp.verify_scheme(outcome.scheme, inst).all_ok


def test_deterministic_search_reports_the_row_rule():
    # The CLI reads rule (1) off the decision instead of deciding it again.
    for inst in (overfull47(), *corpus()):
        if sp.check_feasible(inst).feasible:
            outcome = sp.find_deterministic_scheme(inst)
            want = sp.row_value_multisets_equal(_conditional(inst))
            assert outcome.row_multisets_equal is want
            assert want or outcome.status == "none_found"


@st.composite
def shuffled_rows(draw, max_m=5):
    """Instances whose conditional rows are permutations of one row of
    small integer parts: every row holds one multiset of values, so the
    columns decide."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, m))
    parts = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
    rows = [draw(st.permutations(parts)) for _ in range(n)]
    px = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    return sp.instance_from_conditional(
        [F(w, sum(px)) for w in px],
        [[F(v, sum(parts)) for v in row] for row in rows],
    )


@given(st.one_of(shuffled_rows(), feasible_instances(max_m=5)))
def test_deterministic_search_matches_the_reference_on_random_instances(inst):
    if sp.check_feasible(inst).feasible:
        _assert_reference_verdict(inst)
    else:
        with pytest.raises(sp.InfeasibleError):
            sp.find_deterministic_scheme(inst)


def test_decomposition_size_bound_on_random_instances():
    rng = random.Random(4096)
    for _ in range(150):
        m = rng.randrange(2, 6)
        n = rng.randrange(1, m + 1)
        # random feasible conditional via permutation mixture
        count = rng.randrange(1, 7)
        perms = [
            tuple(rng.sample(range(m), m)) for _ in range(count)
        ]
        raw = [rng.randrange(1, 9) for _ in range(count)]
        total = sum(raw)
        grid = [[F(0)] * m for _ in range(n)]
        for w, perm in zip(raw, perms):
            for i in range(n):
                grid[i][perm[i]] += F(w, total) * F(1, n)
        inst = sp.make_instance(
            [f"x{i+1}" for i in range(n)],
            [f"y{j+1}" for j in range(m)],
            grid,
        )
        scheme = sp.build_scheme(inst)
        assert scheme.p <= m * m - 2 * m + 2
        assert sum(scheme.weights) == 1


def test_perfect_matching_long_augmenting_path():
    # Row i covers columns {i, i+1} and the last row only column 0: rows
    # 0..m-2 grab their diagonal, and the last row then needs an augmenting
    # path through all m rows, far deeper than the interpreter's recursion
    # limit.  The unique perfect matching shifts every row right by one.
    m = 1500
    work = [[int(j in (i, i + 1)) for j in range(m)] for i in range(m - 1)]
    work.append([int(j == 0) for j in range(m)])
    matcher = sp.construction._Matcher(work)
    matcher.threshold(1)
    assert matcher.match(range(m))
    assert matcher.col_of == list(range(1, m)) + [0]


@st.composite
def residual_grids(draw, max_m=6):
    m = draw(st.integers(1, max_m))
    row = st.lists(st.integers(0, 9), min_size=m, max_size=m)
    return draw(st.lists(row, min_size=m, max_size=m))


@given(residual_grids(), st.integers(1, 10))
def test_matcher_threshold_lists_the_usable_columns(work, t):
    # A cell is usable when its residual is at least t: ``use[i]`` lists
    # exactly those columns of row i, by residual descending, then column.
    matcher = sp.construction._Matcher(work)
    matcher.threshold(t)
    assert len(matcher.use) == len(work)
    for row, use in zip(work, matcher.use):
        usable = [j for j, v in enumerate(row) if v >= t]
        assert use == sorted(usable, key=lambda j: (-row[j], j))


def _recursive_matching(support):
    """The textbook recursive augmenting-path matcher: rows ascending, each
    taking its first free column, else an augmenting path."""
    m = len(support)
    col_of, row_of = [-1] * m, [-1] * m

    def augment(i, visited):
        for j in range(m):
            if support[i][j] and j not in visited:
                visited.add(j)
                if row_of[j] == -1 or augment(row_of[j], visited):
                    row_of[j], col_of[i] = i, j
                    return True
        return False

    for i in range(m):
        free = next((j for j in range(m) if support[i][j] and row_of[j] == -1), None)
        if free is not None:
            row_of[free], col_of[i] = i, free
        elif not augment(i, set()):
            return None
    return tuple(col_of)


def _reference_extend(cm):
    """The dense padding the north-west-corner fill replaced: m - n equal
    rows, entry j being (1 - column_sum_j) / (m - n)."""
    n, m = cm.n, cm.m
    pad = tuple((1 - s) / (m - n) for s in sp.column_sums(cm)) if n < m else ()
    return sp.ExtendedMatrix(n=n, m=m, entries=cm.entries + (pad,) * (m - n))


def _reference_birkhoff(ext):
    """The Fraction decomposition the integer engine replaced, matching
    from scratch every round on the recursive matcher."""
    m = ext.m
    work = [list(row) for row in ext.entries]
    terms = []
    while any(v > 0 for row in work for v in row):
        support = [[v > 0 for v in row] for row in work]
        sigma = _recursive_matching(support)
        assert sigma is not None
        alpha = min(work[i][sigma[i]] for i in range(m))
        assert alpha > 0
        for i in range(m):
            work[i][sigma[i]] -= alpha
        terms.append((alpha, sigma))
    assert sum((a for a, _ in terms), F(0)) == 1
    return tuple(terms)


def reference_scheme(inst):
    """The scheme ``build_scheme`` made before sparse padding and
    incremental matching: dense padding, the from-scratch Fraction scan."""
    cm = _conditional(inst)
    terms = _reference_birkhoff(_reference_extend(cm))
    px = sp.marginal_x(inst)
    return sp.Scheme(
        x_labels=tuple(inst.x_labels[i] for i in cm.rows),
        y_labels=inst.y_labels,
        z_labels=tuple(f"z{k+1}" for k in range(len(terms))),
        px=tuple(px[i] for i in cm.rows),
        weights=tuple(a for a, _ in terms),
        assignments=tuple(sigma for _, sigma in terms),
    )


def _assert_terms_rebuild(ext, terms):
    """Positive Fraction weights summing to 1 on permutations through
    positive cells, rebuilding ``ext`` cell by cell, within nnz - m + 1."""
    m = ext.m
    assert all(type(alpha) is F and alpha > 0 for alpha, _ in terms)
    assert sum(alpha for alpha, _ in terms) == 1
    grid = [[F(0)] * m for _ in range(m)]
    for alpha, sigma in terms:
        assert sorted(sigma) == list(range(m))
        for i, j in enumerate(sigma):
            assert ext.entries[i][j] > 0
            grid[i][j] += alpha
    assert tuple(map(tuple, grid)) == ext.entries
    nnz = sum(v > 0 for row in ext.entries for v in row)
    assert len(terms) <= nnz - m + 1


def _assert_agrees_with_the_reference(inst):
    """The Birkhoff terms of the padded conditional rebuild it and verify
    with the Fraction reference's Q_XY, on every instance, whether or not
    ``build_scheme`` takes the colouring; ``build_scheme`` is the
    colouring's scheme when the search finds one, else the peeled one."""
    cm = _conditional(inst)
    ext = sp.extend(cm)
    terms = sp.birkhoff_decompose(ext)
    _assert_terms_rebuild(ext, terms)
    peeled = sp.construction._named_scheme(
        inst, cm, [alpha for alpha, _ in terms], [sigma for _, sigma in terms]
    )
    reference = reference_scheme(inst)
    reports = [sp.verify_scheme(s, inst) for s in (peeled, reference)]
    assert all(report.all_ok for report in reports)
    assert reports[0].q_xy == reports[1].q_xy
    assert sp.necessity_audit(peeled).ok and sp.necessity_audit(reference).ok
    _assert_build_takes_the_colouring_first(inst, peeled)
    return peeled, reference


def _assert_build_takes_the_colouring_first(inst, peeled):
    # The search runs on a fresh twin, so each call colours on its own.
    found = sp.find_deterministic_scheme(dataclasses.replace(inst)).scheme
    assert sp.build_scheme(inst) == (peeled if found is None else found)


def test_birkhoff_matches_the_fraction_reference_on_corpus():
    feasible = [inst for inst in corpus() if sp.check_feasible(inst).feasible]
    assert feasible
    for inst in feasible:
        _assert_agrees_with_the_reference(inst)


@given(doubly_stochastic())
def test_birkhoff_matches_the_fraction_reference_on_mixtures(ext):
    # Uniform P_X over the square's rows makes it an instance's conditional.
    m = ext.m
    inst = sp.instance_from_conditional([F(1, m)] * m, ext.entries)
    assert sp.extend(_conditional(inst)) == ext
    _assert_agrees_with_the_reference(inst)


def _at_scale_mixture(m, ratio):
    """Uniform P_X over the first m/ratio rows of a mixture of m random
    permutations with integer weights summing to 4m."""
    rng = random.Random(f"birkhoff/{m}/{ratio}")
    n, total = m // ratio, 4 * m
    cuts = sorted(rng.sample(range(1, total), m - 1))
    grid = [[F(0)] * m for _ in range(n)]
    for weight in (b - a for a, b in zip([0, *cuts], [*cuts, total])):
        perm = rng.sample(range(m), m)
        for i in range(n):
            grid[i][perm[i]] += F(weight, total)
    return sp.instance_from_conditional([F(1, n)] * n, grid)


@pytest.mark.parametrize("m", [16, 24, 32])
@pytest.mark.parametrize("ratio", [2, 4])
def test_birkhoff_matches_the_fraction_reference_at_scale(m, ratio):
    inst = _at_scale_mixture(m, ratio)
    scheme, reference = _assert_agrees_with_the_reference(inst)
    assert scheme.p < reference.p
    assert scheme.p <= 2 * sp.p_lower_bound(inst)


@pytest.mark.parametrize(("m", "ratio", "p", "digest"), [
    (16, 2, 20, "26ec82fa6c8714861d058393c181066545f48ae92957f5a4b31423d3f7536103"),
    (16, 4, 16, "55742b6a84c8114d8238751b8ae218356b6e5a81d1f2fb3b607e7d09e52ccb27"),
    (32, 2, 35, "be90a05ccb481ce7def4a6620de2c1677fcba34700db3a91394ebf6e2c601355"),
    (32, 4, 35, "f834ae0b0795d40b57220d5966a28d80a8b72b665025dab5ee5e209d07f624ce"),
    (48, 2, 51, "28391302e2e2d24ad617be48b940fe7e31bab8e5f047c9e2777fe111605e4d76"),
    (48, 4, 50, "a9262b8f10b4a0c55efc0a141a9b580181c2bf4c4bebabf5373bc76ec149d0f1"),
    (64, 2, 69, "f59f946995304e4f1cb1febb862fd562984015d9d180007d264be3cc7774a468"),
    (64, 4, 68, "b7e9f6315ed32e9c9ba362bfdf899752d6f0ab5928fc70c902cf12a5302d1523"),
    (96, 2, 102, "42aa68f5a1a8276f85b31539328baa61ce7ad50ff373e550bd2d637022282653"),
    (96, 4, 99, "270e95505429947ff9d2ed8c869487ac194d598b6ce2f116dd373341c44187bb"),
])
def test_birkhoff_terms_are_pinned_at_scale(m, ratio, p, digest):
    # The terms, weight and permutation per line, in extraction order: any
    # change to the matcher's scan order or the rounds' freeing rule that
    # moves a signal shows here, at sizes no CLI golden reaches.
    terms = sp.birkhoff_decompose(sp.extend(_conditional(_at_scale_mixture(m, ratio))))
    lines = "".join(f"{alpha} {' '.join(map(str, sigma))}\n" for alpha, sigma in terms)
    assert len(terms) == p
    assert hashlib.sha256(lines.encode()).hexdigest() == digest


def _max_bottleneck(work):
    """The largest smallest cell over the permutations through positive
    cells of a square residual, by brute force."""
    m = len(work)
    return max(
        min(work[i][sigma[i]] for i in range(m))
        for sigma in itertools.permutations(range(m))
        if all(work[i][sigma[i]] > 0 for i in range(m))
    )


def _assert_max_bottleneck_rounds(ext):
    terms = sp.birkhoff_decompose(ext)
    _assert_terms_rebuild(ext, terms)
    work = [list(row) for row in ext.entries]
    for alpha, sigma in terms:
        assert alpha == _max_bottleneck(work)
        for i, j in enumerate(sigma):
            work[i][j] -= alpha
    weights = [alpha for alpha, _ in terms]
    assert weights == sorted(weights, reverse=True)


def test_birkhoff_peels_the_max_bottleneck_on_corpus():
    feasible = [inst for inst in corpus() if sp.check_feasible(inst).feasible]
    assert any(inst.m >= 3 for inst in feasible)
    for inst in feasible:
        if inst.m <= 5:
            _assert_max_bottleneck_rounds(sp.extend(_conditional(inst)))


@given(doubly_stochastic())
def test_birkhoff_peels_the_max_bottleneck_on_mixtures(ext):
    _assert_max_bottleneck_rounds(ext)


@pytest.mark.parametrize("inst", [mixed23(), _at_scale_mixture(16, 2)],
                         ids=["mixed23", "mixture16x8"])
def test_birkhoff_keeps_the_pairs_still_above_the_start(monkeypatch, inst):
    # A round starts at t0, the smaller of the smallest row maximum and the
    # last weight.  The matcher sees the last matching's pairs whose
    # residual is still >= t0 already matched, and gets every other row,
    # ascending, to match.
    calls = []
    match = sp.construction._Matcher.match

    def spy(self, rows):
        rows = list(rows)
        calls.append((rows, list(self.col_of)))
        return match(self, rows)

    monkeypatch.setattr(sp.construction._Matcher, "match", spy)
    ext = sp.extend(_conditional(inst))
    terms = sp.birkhoff_decompose(ext)
    assert len(calls) == len(terms)
    m = ext.m
    work = [list(row) for row in ext.entries]
    last, previous = F(1), (-1,) * m
    for (alpha, sigma), (rows, kept) in zip(terms, calls):
        t0 = min(last, min(max(row) for row in work))
        assert kept == [j if j != -1 and work[i][j] >= t0 else -1
                        for i, j in enumerate(previous)]
        assert rows == [i for i in range(m) if kept[i] == -1]
        for i, j in enumerate(sigma):
            work[i][j] -= alpha
        last, previous = alpha, sigma
    kept_counts = [m - len(rows) for rows, _ in calls[1:]]
    assert max(kept_counts) > 0  # some round keeps pairs
    assert min(kept_counts) < m  # some round re-matches rows


def test_birkhoff_raises_when_the_matcher_finds_none(monkeypatch):
    monkeypatch.setattr(
        sp.construction._Matcher, "match", lambda self, rows: False
    )
    with pytest.raises(sp.InternalInvariantError):
        sp.birkhoff_decompose(sp.extend(_conditional(corr23())))


def test_birkhoff_raises_when_the_matching_hits_a_zero_cell(monkeypatch):
    # The only permutation through positive cells is the swap; the matcher
    # first offers the identity, through two zero cells.
    offers = iter([(0, 1)])

    def match(self, rows):
        self.col_of[:] = next(offers, (1, 0))
        return True

    monkeypatch.setattr(sp.construction._Matcher, "match", match)
    ext = sp.ExtendedMatrix(n=2, m=2, entries=((F(0), F(1)), (F(1), F(0))))
    with pytest.raises(sp.InternalInvariantError):
        sp.birkhoff_decompose(ext)


def _koenig_criterion(inst):
    """Rules (1) and (2) on the Fraction conditional: every row holds one
    multiset of positive values, and no column holds a value more often
    than a row does."""
    entries = _conditional(inst).entries
    counts = [Counter(filter(None, row)) for row in entries]
    return all(c == counts[0] for c in counts) and not _overfull_columns(entries)


def _overfull_columns(rows):
    """How many columns hold a value more often than row 0 does."""
    row = Counter(filter(None, rows[0]))
    return sum(bool(Counter(filter(None, col)) - row) for col in zip(*rows))


def test_build_meets_p_lower_bound_whenever_the_criterion_holds():
    holds = 0
    for inst in _differential_instances():
        scheme = sp.build_scheme(inst)
        m = scheme.m
        assert scheme.p <= m * m - 2 * m + 2
        if _koenig_criterion(inst):
            holds += 1
            assert scheme.p == sp.p_lower_bound(inst)
    assert holds > 100


@pytest.mark.parametrize("build_first", [False, True], ids=["find-build", "build-find"])
def test_search_and_build_share_one_scheme(monkeypatch, build_first):
    # The search's outcome is kept on the instance's conditional, so in
    # either call order a König instance gets one Scheme object, which the
    # build returns and a second verify against the instance does not check
    # again; elsewhere the search finds none and the build makes the one.
    instances = list(_differential_instances())
    made, checks, found = Counter(), Counter(), 0
    post_init = sp.Scheme.__post_init__

    def counting_post_init(scheme):
        made["schemes"] += 1
        post_init(scheme)

    monkeypatch.setattr(sp.Scheme, "__post_init__", counting_post_init)
    for law in ("consistency", "informativeness", "secrecy"):
        check = getattr(sp.verification, f"check_{law}")
        monkeypatch.setattr(
            sp.verification, f"check_{law}",
            lambda *args, check=check, law=law: checks.update([law]) or check(*args),
        )
    for original in instances:
        inst = dataclasses.replace(original)
        made.clear()
        if build_first:
            scheme = sp.build_scheme(inst)
            search = sp.find_deterministic_scheme(inst)
        else:
            search = sp.find_deterministic_scheme(inst)
            scheme = sp.build_scheme(inst)
        assert made["schemes"] == 1
        assert sp.find_deterministic_scheme(inst) is search
        if search.scheme is None:
            assert not _koenig_criterion(inst)
            continue
        found += 1
        assert scheme is search.scheme
        assert sp.verify_scheme(search.scheme, inst).all_ok
        checks.clear()
        assert sp.verify_scheme(scheme, inst).all_ok
        assert not checks
    assert found > 100


def test_build_is_its_public_steps(monkeypatch):
    # build_scheme searches once, and pads and peels only through extend
    # and birkhoff_decompose, and only when the search finds no scheme.
    calls = Counter()
    for name in ("find_deterministic_scheme", "extend", "birkhoff_decompose"):
        step = getattr(sp.construction, name)
        monkeypatch.setattr(
            sp.construction, name,
            lambda *args, step=step, name=name: calls.update([name]) or step(*args),
        )
    peeled = 0
    for original in _differential_instances():
        inst = dataclasses.replace(original)
        calls.clear()
        sp.build_scheme(inst)
        pads = int(_conditional(inst)._search.scheme is None)
        peeled += pads
        assert dict(calls) == {
            "find_deterministic_scheme": 1,
            **({"extend": 1, "birkhoff_decompose": 1} if pads else {}),
        }
    assert peeled > 100


class _CountedReads(tuple):
    """A tuple that tallies each item read from it, by index or by
    iteration, as ``reads[key, index]``."""

    def __new__(cls, items, reads, key):
        counted = super().__new__(cls, items)
        counted.reads, counted.key = reads, key
        return counted

    def __getitem__(self, i):
        self.reads[self.key, i] += 1
        return super().__getitem__(i)

    def __iter__(self):
        for i, item in enumerate(super().__iter__()):
            self.reads[self.key, i] += 1
            yield item


def test_each_step_rescales_each_row_once():
    # Counted on fresh copies whose conditional's integer rows (``_rows``)
    # and Fraction rows (``entries``) tally every row read.  A search
    # compares the integer rows as they are, up to the first whose values
    # differ from row 0's, and reads no Fraction row but row 0, for the
    # weights it returns; extend scales each integer row once; and a search
    # after a build reads the memo and no row.  So a rule-(2) failure
    # scales n rows, in extend, not 2n.  The column sums are the
    # conditional's own, computed before counting.
    reads = Counter()

    def counted(inst):
        cm = _conditional(inst)
        cm._columns
        cm.__dict__.update(
            _rows=_CountedReads(cm._rows, reads, "rows"),
            entries=_CountedReads(cm.entries, reads, "entries"),
        )
        return inst

    def rows_read(step, inst):
        reads.clear()
        step(inst)
        rows = sum(count for (kind, _), count in reads.items() if kind == "rows")
        return rows, {i for kind, i in reads if kind == "entries"}

    stopped_early = 0
    for original in _differential_instances():
        entries = _conditional(original).entries
        n, first = len(entries), sorted(entries[0])
        differs = next((i for i, row in enumerate(entries) if sorted(row) != first), None)
        searched = counted(dataclasses.replace(original))
        built = counted(dataclasses.replace(original))
        search_rows, weights_read = rows_read(sp.find_deterministic_scheme, searched)
        if _conditional(searched)._search.scheme is not None:
            assert (search_rows, weights_read) == (n, {0})
            assert rows_read(sp.build_scheme, built) == (n, {0})
        else:
            assert search_rows == (n if differs is None else differs + 1)
            assert weights_read == set()
            stopped_early += search_rows < n
            assert rows_read(sp.build_scheme, searched) == (n, set())
            assert reads == Counter({("rows", i): 1 for i in range(n)})
            assert rows_read(sp.build_scheme, built) == (search_rows + n, set())
        assert rows_read(sp.find_deterministic_scheme, built) == (0, set())
        assert rows_read(sp.find_deterministic_scheme, searched) == (0, set())
    assert stopped_early > 100


def _shifted_rows(draw, max_m):
    """Integer rows: one row of small parts shifted cyclically by a
    distinct s_i per row, then the columns permuted alike.  Each column
    takes each position of the row at most once, so no column holds a
    value more often than a row does."""
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, m))
    parts = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
    shifts = draw(st.permutations(range(m)))[:n]
    order = draw(st.permutations(range(m)))
    return [[parts[(order[j] - s) % m] for j in range(m)] for s in shifts]


def _instance_of_rows(draw, rows):
    px = draw(st.lists(st.integers(1, 5), min_size=len(rows), max_size=len(rows)))
    return sp.instance_from_conditional(
        [F(w, sum(px)) for w in px],
        [[F(v, sum(row)) for v in row] for row in rows],
    )


@st.composite
def koenig_instances(draw, max_m=6):
    """"Yes" instances: rows that permute one multiset of values, with no
    column over a row's count of any value."""
    return _instance_of_rows(draw, _shifted_rows(draw, max_m))


@st.composite
def near_misses(draw, max_m=6):
    """A "yes" instance whose last row swaps two cells of different
    values, so that exactly one column holds a value more often than a row
    does: rule (1) holds and rule (2) fails at that column."""
    rows = _shifted_rows(draw, max_m)
    last, m = rows[-1], len(rows[-1])
    swaps = []
    for a, b in itertools.combinations(range(m), 2):
        if last[a] != last[b]:
            swapped = last[:]
            swapped[a], swapped[b] = last[b], last[a]
            if _overfull_columns(rows[:-1] + [swapped]) == 1:
                swaps.append(rows[:-1] + [swapped])
    assume(swaps)
    return _instance_of_rows(draw, draw(st.sampled_from(swaps)))


def _assert_colouring_decides(inst, found):
    """The colouring's verdict is ``found`` and the Fraction criterion's;
    ``_assert_reference_verdict`` checks it against the backtracking
    search and checks the scheme found, and ``build_scheme`` takes it."""
    if not sp.check_feasible(inst).feasible:
        with pytest.raises(sp.InfeasibleError):
            sp.find_deterministic_scheme(inst)
        return
    assert _koenig_criterion(inst) is found
    outcome = sp.find_deterministic_scheme(inst)
    assert (outcome.scheme is not None) is found
    _assert_reference_verdict(inst)
    scheme = sp.build_scheme(dataclasses.replace(inst))
    assert sp.verify_scheme(scheme, inst).all_ok
    assert (scheme == outcome.scheme) is found


@given(koenig_instances())
def test_colouring_finds_every_koenig_instance(inst):
    _assert_colouring_decides(inst, True)


@given(near_misses())
def test_colouring_refuses_one_overfull_column(inst):
    _assert_colouring_decides(inst, False)


def test_colouring_swaps_along_an_alternating_path():
    # A circulant of one 1/5 and two 2/5 per row.  Cell (1, 2) finds its
    # row's free 2/5 colour taken at column 2, so that colour and the one
    # free at the column swap along a path through row 0, which ends at
    # column 0; cell (2, 0) then reads column 0's mask as that swap left it.
    inst = sp.instance_from_conditional(
        [F(1, 3)] * 3,
        [[F(2, 5), F(1, 5), F(2, 5)],
         [F(1, 5), F(2, 5), F(2, 5)],
         [F(2, 5), F(2, 5), F(1, 5)]],
    )
    outcome = sp.find_deterministic_scheme(inst)
    assert outcome.nodes == 11  # 9 cells coloured, 2 recoloured by the swap
    scheme = outcome.scheme
    assert scheme.weights == (F(2, 5), F(1, 5), F(2, 5))
    assert scheme.assignments == ((0, 2, 1), (1, 0, 2), (2, 1, 0))
    assert sp.verify_scheme(scheme, inst).all_ok
    assert sp.necessity_audit(scheme).ok
    assert scheme.p == sp.p_lower_bound(inst)
    assert sp.build_scheme(inst) == scheme


@pytest.mark.parametrize(("n", "m"), [(4, 8), (16, 32), (32, 64), (64, 64)])
def test_colouring_takes_one_step_per_cell_on_shannon_grids(n, m):
    # The lowest colour free at both a cell's row and its column is the
    # least one its row's earlier cells and its column's earlier rows miss:
    # i XOR j, the nim-sum table.  With m a power of two it stays below m,
    # so no path is walked, signal k pairs row i with column i XOR k, and
    # build takes p = m signals, the largest row support.
    inst = uniform_independent(n, m)
    outcome = sp.find_deterministic_scheme(inst)
    assert outcome.nodes == n * m
    assert [sigma[:n] for sigma in outcome.scheme.assignments] == [
        tuple(i ^ k for i in range(n)) for k in range(m)
    ]
    scheme = sp.build_scheme(inst)
    assert scheme.p == sp.p_lower_bound(inst) == m
    assert sp.verify_scheme(scheme, inst).all_ok
