"""Extension, matchings, the exact decomposition, and scheme building."""

import collections
import gc
import hashlib
import itertools
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sidepad as sp
from corpus import corpus, corr23, det22, mixed23, otp2, skew22


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
    assert outcome.nodes > 0


def test_deterministic_search_budget_exhaustion():
    outcome = sp.find_deterministic_scheme(mixed23(), limit=1)
    assert outcome.status == "budget_exhausted"
    assert outcome.scheme is None
    assert outcome.nodes >= 1


def test_deterministic_search_leaves_no_cyclic_garbage():
    # Found, none found and budget exhausted: each call's search state must
    # be freed by reference counting on return, not left for the collector.
    instances = [(det22(), 1_000_000), (mixed23(), 1_000_000), (det22(), 1)]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        statuses = [
            sp.find_deterministic_scheme(inst, limit=limit).status
            for inst, limit in instances
        ]
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert statuses == ["found", "none_found", "budget_exhausted"]


def _search_cases():
    """Every feasible corpus instance under four node budgets, plus uniform
    rows whose last row cannot match, whose long searches the budget cuts."""
    for inst in corpus():
        if sp.check_feasible(inst).feasible:
            for limit in (1, 3, 17, 1_000_000):
                yield inst, limit
    for m in range(3, 8):
        for n in range(2, m):
            rows = [[F(1, m)] * m for _ in range(n - 1)]
            for last in (
                [F(1, m - 1)] * (m - 1) + [F(0)],
                [F(2, m + 1)] + [F(1, m + 1)] * (m - 1),
            ):
                inst = sp.instance_from_conditional([F(1, n)] * n, rows + [last])
                if sp.check_feasible(inst).feasible:
                    for limit in (1000, 30000):
                        yield inst, limit


def test_deterministic_search_golden_outcomes():
    # Status, node count and scheme of every case, pinned across code
    # versions: the search order and the budget cut must not move.
    digest = hashlib.sha256()
    statuses = collections.Counter()
    nodes = 0
    for inst, limit in _search_cases():
        result = sp.find_deterministic_scheme(inst, limit=limit)
        digest.update(repr((result.status, result.nodes, result.scheme)).encode())
        statuses[result.status] += 1
        nodes += result.nodes
    assert statuses == {"found": 1283, "none_found": 620, "budget_exhausted": 193}
    assert nodes == 360115
    assert digest.hexdigest() == (
        "4a6904a7651a30ac6223ae59db456126980c7a3ef00c074cdb798f4c9c5f3090"
    )


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


def test_deterministic_search_caps_width(monkeypatch):
    inst = sp.make_instance(
        ["x1"], [f"y{j}" for j in range(9)], [[F(1, 9)] * 9]
    )
    with pytest.raises(sp.CapExceededError):
        sp.find_deterministic_scheme(inst)
    monkeypatch.setattr(sp.construction, "_DETERMINISTIC_MAX_M", 9)
    assert sp.find_deterministic_scheme(inst).status == "found"


def test_deterministic_search_refuses_infeasible():
    with pytest.raises(sp.InfeasibleError):
        sp.find_deterministic_scheme(skew22())


@pytest.mark.parametrize("inst", [
    sp.make_instance(["x1"], [f"y{j}" for j in range(9)], [[F(1, 9)] * 9]),
    skew22(),
], ids=["past-the-width-cap", "infeasible"])
def test_deterministic_search_checks_its_budget_first(inst):
    # The budget is checked before the width cap and the column test.
    with pytest.raises(sp.InputError, match="node budget must be >= 1, got 0"):
        sp.find_deterministic_scheme(inst, limit=0)


def test_deterministic_scheme_has_singleton_signal_sets():
    for inst in (det22(), corr23()):
        scheme = sp.find_deterministic_scheme(inst).scheme
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
    outcome = sp.find_deterministic_scheme(inst, limit=20000)
    if outcome.status == "found":
        assert sp.row_value_multisets_equal(_conditional(inst))
        assert sp.verify_scheme(outcome.scheme, inst).all_ok


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
    ext = sp.extend(_conditional(inst))
    terms = sp.birkhoff_decompose(ext)
    _assert_terms_rebuild(ext, terms)
    scheme, reference = sp.build_scheme(inst), reference_scheme(inst)
    assert scheme.weights == tuple(alpha for alpha, _ in terms)
    assert scheme.assignments == tuple(sigma for _, sigma in terms)
    reports = [sp.verify_scheme(s, inst) for s in (scheme, reference)]
    assert all(report.all_ok for report in reports)
    assert reports[0].q_xy == reports[1].q_xy
    assert sp.necessity_audit(scheme).ok and sp.necessity_audit(reference).ok
    return scheme, reference


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
