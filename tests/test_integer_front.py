"""The front half of the pipeline on integer numerators, against the
Fraction code it replaced.

Instance validation, the marginals, the conditional and its validation,
the column-sum verdict, the Shannon test, the north-west padding and the
``ExtendedMatrix`` validation all run on each row's (or the extended
grid's) integer numerators.  The ``_reference_*`` functions below are the
Fraction versions they replaced, kept as written; every test here requires
equal values, equal verdicts, and the same exception type and message,
naming the same first offender.
"""

import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sidepad as sp
from sidepad.model import _check_label, _clip_rat, _numerators
from corpus import corpus, det22, mixed23, skew22
from test_model import DIGIT_LIMIT

# -- the Fraction references ------------------------------------------------


def _reference_instance(x_labels, y_labels, p_xy):
    """``Instance.__post_init__`` on Fraction sums: the validated grid."""
    xl = tuple(_check_label(s, "x") for s in x_labels)
    yl = tuple(_check_label(s, "y") for s in y_labels)
    if not xl or not yl:
        raise sp.InputError("an instance needs at least one x and one y label")
    if len(set(xl)) != len(xl):
        raise sp.InputError("duplicate x labels")
    if len(set(yl)) != len(yl):
        raise sp.InputError("duplicate y labels")
    grid = tuple(tuple(sp.as_fraction(v) for v in row) for row in p_xy)
    if len(grid) != len(xl) or any(len(row) != len(yl) for row in grid):
        raise sp.InputError(
            f"probability grid must be {len(xl)}x{len(yl)} to match the labels"
        )
    for row in grid:
        for v in row:
            if v < 0:
                raise sp.InputError(f"negative probability {_clip_rat(v)}")
    total = sum(v for row in grid for v in row)
    if total != 1:
        raise sp.InputError(
            f"probability mass sums to {_clip_rat(total)}, expected 1"
        )
    return grid


def _reference_marginal_x(grid):
    return tuple(sum(row, F(0)) for row in grid)


def _reference_marginal_y(grid):
    return tuple(sum((row[j] for row in grid), F(0)) for j in range(len(grid[0])))


def _reference_conditional(grid):
    """``conditional_y_given_x``: (rows, entries, masses)."""
    px = _reference_marginal_x(grid)
    rows = tuple(i for i, v in enumerate(px) if v > 0)
    masses = tuple(px[i] for i in rows)
    entries = tuple(
        tuple(v / mass for v in grid[i]) for i, mass in zip(rows, masses)
    )
    return rows, entries, masses


def _reference_conditional_matrix(rows, cols, entries, masses=()):
    """``ConditionalMatrix.__post_init__`` on Fraction sums."""
    if len(entries) != len(rows):
        raise sp.InputError("conditional matrix: one entry row per covered row")
    if masses and len(masses) != len(rows):
        raise sp.InputError("conditional matrix: one mass per covered row")
    for row in entries:
        if len(row) != len(cols):
            raise sp.InputError("conditional matrix: ragged row")
        if any(v < 0 for v in row):
            raise sp.InputError("conditional matrix: negative entry")
        if sum(row, F(0)) != 1:
            raise sp.InputError(
                "conditional matrix row sums to "
                f"{_clip_rat(sum(row, F(0)))}, expected 1"
            )


def _reference_column_sums(entries, m):
    return tuple(sum((row[j] for row in entries), F(0)) for j in range(m))


def _reference_column_condition(sums, strict=False):
    bad = tuple(j for j, s in enumerate(sums) if s > 1)
    if bad and strict:
        raise sp.InfeasibleError(
            f"column {bad[0]} sums to {sp.rat_str(sums[bad[0]])} > 1; no scheme exists",
            violations=bad,
        )
    return bad


def _reference_shannon_case(grid, rows, masses):
    py = _reference_marginal_y(grid)
    independent = all(
        v == mass * q
        for i, mass in zip(rows, masses)
        for v, q in zip(grid[i], py)
    )
    py_support = [v for v in py if v > 0]
    uniform_mass = F(1, len(py_support))
    return sp.ShannonCase(
        independent=independent,
        y_uniform=all(v == uniform_mass for v in py_support),
        n=sum(1 for v in masses if v > 0),
        m=len(py_support),
    )


def _reference_north_west(entries, sums):
    """``extend``'s north-west-corner fill of the slacks, on Fractions."""
    n, m = len(entries), len(sums)
    pad = [[F(0)] * m for _ in range(m - n)]
    r, room = 0, F(1)
    for j, s in enumerate(sums):
        slack = 1 - s
        while slack:
            pad[r][j] = take = min(room, slack)
            slack -= take
            room -= take
            if not room:
                r, room = r + 1, F(1)
    return tuple(map(tuple, pad))


def _reference_extended_matrix(n, m, entries):
    """``ExtendedMatrix.__post_init__`` on Fraction sums."""
    if not (1 <= n <= m):
        raise sp.InputError(f"need 1 <= n <= m, got n={n} m={m}")
    if len(entries) != m:
        raise sp.InputError("extended matrix must be square (m rows)")
    grid = tuple(tuple(sp.as_fraction(v) for v in row) for row in entries)
    for row in grid:
        if len(row) != m:
            raise sp.InputError("extended matrix must be square (m columns)")
        if any(v < 0 for v in row):
            raise sp.InputError("extended matrix entries must be nonnegative")
        if sum(row, F(0)) != 1:
            raise sp.InputError("extended matrix row does not sum to 1")
    for j in range(m):
        if sum((row[j] for row in grid), F(0)) != 1:
            raise sp.InputError(f"extended matrix column {j} does not sum to 1")
    return grid


def _reference_front(x_labels, y_labels, p_xy):
    """Parse-and-check on Fractions: the verdict, the column sums and the
    Shannon record, as ``make_instance`` plus ``check_feasible`` give."""
    grid = _reference_instance(x_labels, y_labels, p_xy)
    rows, entries, masses = _reference_conditional(grid)
    _reference_conditional_matrix(rows, range(len(grid[0])), entries, masses)
    sums = _reference_column_sums(entries, len(grid[0]))
    bad = _reference_column_condition(sums)
    return not bad, sums, bad, _reference_shannon_case(grid, rows, masses)


# -- comparing outcomes -----------------------------------------------------


def _outcome(call, *args, **kwargs):
    """A call's value, or its exception's type, message and violations."""
    try:
        return "ok", call(*args, **kwargs)
    except sp.SidepadError as exc:
        return type(exc), str(exc), getattr(exc, "violations", None)


def _assert_same_front(inst):
    """Every front-half value of a valid instance equals the reference's."""
    grid = inst.p_xy
    assert sp.marginal_x(inst) == _reference_marginal_x(grid)
    assert sp.marginal_y(inst) == _reference_marginal_y(grid)
    rows, entries, masses = _reference_conditional(grid)
    cm = sp.conditional_y_given_x(inst)
    assert (cm.rows, cm.entries, cm.masses) == (rows, entries, masses)
    sums = _reference_column_sums(entries, inst.m)
    assert sp.column_sums(cm) == sums
    report = sp.check_feasible(inst)
    bad = _reference_column_condition(sums)
    assert (report.feasible, report.column_sums, report.violations) == (
        not bad, sums, bad,
    )
    shannon = _reference_shannon_case(grid, rows, masses)
    assert report.shannon_case == shannon
    assert sp.shannon_reduce(inst) == shannon
    assert sp.shannon_reduce(inst) == _reference_shannon_case(
        grid, range(inst.n), _reference_marginal_x(grid)
    )
    # extend: the same refusal, or the reference's fill, validated alike.
    got = _outcome(sp.extend, cm)
    if bad:
        assert got == _outcome(_reference_column_condition, sums, strict=True)
        return
    expected = entries + _reference_north_west(entries, sums)
    assert got[0] == "ok" and got[1].entries == expected
    assert _reference_extended_matrix(cm.n, cm.m, expected) == expected


def test_front_half_matches_the_reference_on_corpus():
    instances = corpus()
    verdicts = [sp.check_feasible(inst).feasible for inst in instances]
    assert any(verdicts) and not all(verdicts)
    for inst in instances:
        _assert_same_front(inst)


def test_boundary_columns_summing_to_exactly_one_are_feasible():
    # Columns summing to exactly 1 sit on the boundary of the column test:
    # the corpus holds many such instances, feasible under the reference.
    boundary = [
        inst for inst in corpus()
        if F(1) in _reference_column_sums(
            _reference_conditional(inst.p_xy)[1], inst.m
        )
    ]
    assert len(boundary) > 100
    for inst in boundary:
        report = sp.check_feasible(inst)
        expected = _reference_column_condition(
            _reference_column_sums(_reference_conditional(inst.p_xy)[1], inst.m)
        )
        assert report.violations == expected


@st.composite
def joint_grids(draw, max_n=5, max_m=5):
    """Exact valid grids: per-row denominators, zero rows and columns, n > m
    as often as n < m, masses summing to exactly one."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    weights = draw(
        st.lists(st.integers(0, 9), min_size=n * m, max_size=n * m)
        .filter(lambda w: sum(w) > 0)
    )
    if draw(st.booleans()):  # blank a whole column
        j = draw(st.integers(0, m - 1))
        weights = [0 if k % m == j else w for k, w in enumerate(weights)]
        if not sum(weights):
            weights[(j + 1) % m if m > 1 else 0] = 1
    # Row i's cells over its own scale, then one normalisation: rows keep
    # distinct denominators.
    scales = draw(st.lists(st.integers(1, 7), min_size=n, max_size=n))
    cells = [F(weights[i * m + j], scales[i]) for i in range(n) for j in range(m)]
    total = sum(cells)
    return [[cells[i * m + j] / total for j in range(m)] for i in range(n)]


def _labels(n, m):
    return [f"x{i+1}" for i in range(n)], [f"y{j+1}" for j in range(m)]


@given(joint_grids())
def test_front_half_matches_the_reference_on_random_instances(grid):
    inst = sp.make_instance(*_labels(len(grid), len(grid[0])), grid)
    assert inst.p_xy == _reference_instance(*_labels(len(grid), len(grid[0])), grid)
    _assert_same_front(inst)


# Unprintable: a denominator past the interpreter's digit limit.
UNPRINTABLE = F(1, 3 ** (DIGIT_LIMIT * 2096 // 1000 + 10)) if DIGIT_LIMIT else F(1, 3 ** 9100)


@st.composite
def malformed_grids(draw, max_n=4, max_m=4):
    """Grids that may be wrong in every way validation checks: negative
    cells, masses off one, ragged or missing rows, unprintable rationals."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    cell = st.one_of(
        st.fractions(min_value=-1, max_value=1, max_denominator=12),
        st.integers(-2, 3).map(F),
        st.just(UNPRINTABLE),
        st.just(-UNPRINTABLE),
    )
    grid = draw(st.lists(st.lists(cell, min_size=m, max_size=m), min_size=n, max_size=n))
    if draw(st.booleans()):  # rescale so the mass sums to 1 when it can
        total = sum(v for row in grid for v in row)
        if total:
            grid = [[v / total for v in row] for row in grid]
    shape = draw(st.sampled_from(["ok", "ok", "ok", "ragged", "short"]))
    if shape == "ragged":
        grid[draw(st.integers(0, n - 1))].append(F(0))
    elif shape == "short":
        grid = grid[:-1]
    return n, m, grid


@given(malformed_grids())
def test_instance_validation_matches_the_reference(case):
    n, m, grid = case
    x, y = _labels(n, m)
    got = _outcome(sp.make_instance, x, y, grid)
    expected = _outcome(_reference_instance, x, y, grid)
    if expected[0] == "ok":
        assert got[0] == "ok" and got[1].p_xy == expected[1]
    else:
        assert got == expected


def _malformed_corpus():
    """Every corpus instance broken three ways: its first positive cell
    negated, its mass halved, and the row of that cell doubled."""
    for inst in corpus():
        grid = [list(row) for row in inst.p_xy]
        i, j = next((i, j) for i, row in enumerate(grid)
                    for j, v in enumerate(row) if v > 0)
        negated = [row[:] for row in grid]
        negated[i][j] = -negated[i][j]
        yield inst, negated
        yield inst, [[v / 2 for v in row] for row in grid]
        yield inst, grid[:i] + [[2 * v for v in grid[i]]] + grid[i + 1:]


def test_instance_validation_matches_the_reference_on_the_malformed_corpus():
    count = 0
    for inst, grid in _malformed_corpus():
        got = _outcome(sp.make_instance, inst.x_labels, inst.y_labels, grid)
        assert got[0] is sp.InputError
        assert got == _outcome(_reference_instance, inst.x_labels, inst.y_labels, grid)
        count += 1
    assert count == 3 * len(corpus())


def test_the_first_negative_cell_in_row_major_order_is_named():
    grid = [["1/2", "1/2", "-1/5"], ["-1/3", "1/6", "1/3"]]
    with pytest.raises(sp.InputError, match=r"^negative probability -1/5$"):
        sp.make_instance(["a", "b"], ["u", "v", "w"], grid)


@st.composite
def conditional_rows(draw, max_n=4, max_m=4):
    """Hand-built conditional matrices, right or wrong: rows summing to one
    or not, negative entries, ragged rows, a mass count that disagrees."""
    n = draw(st.integers(0, max_n))
    m = draw(st.integers(0, max_m))
    value = st.one_of(
        st.fractions(min_value=-1, max_value=2, max_denominator=9),
        st.just(UNPRINTABLE),
    )
    entries = []
    for _ in range(n):
        row = draw(st.lists(value, min_size=m, max_size=m))
        total = sum(row)
        if row and total and draw(st.booleans()):
            row = [v / total for v in row]
        if draw(st.integers(0, 9)) == 0:
            row = row + [F(0)]
        entries.append(tuple(row))
    rows = tuple(range(n))
    extra = draw(st.integers(0, 6))
    masses = (F(1, n),) * n if n and extra else ()
    if extra == 1:
        rows = rows + (n,)
    elif extra == 2:
        masses = masses + (F(0),)
    return rows, tuple(range(m)), tuple(entries), masses


@given(conditional_rows())
def test_conditional_matrix_validation_matches_the_reference(case):
    rows, cols, entries, masses = case
    got = _outcome(sp.ConditionalMatrix, rows=rows, cols=cols, entries=entries,
                   masses=masses)
    expected = _outcome(_reference_conditional_matrix, rows, cols, entries, masses)
    if expected[0] == "ok":
        assert got[0] == "ok"
        assert sp.column_sums(got[1]) == _reference_column_sums(entries, len(cols))
    else:
        assert got == expected


def _extended_cases():
    """Hand-built square matrices, most not doubly stochastic: rows summing
    to one with columns that do not, a negative entry that sums right, a
    ragged row after a bad row sum, and an unprintable entry."""
    h, t, q = F(1, 2), F(1, 3), F(1, 4)
    yield 2, 2, ((F(1), F(0)), (F(1), F(0)))  # rows fine, columns 2 and 0
    yield 3, 3, ((h, h, 0), (h, h, 0), (0, 0, 1))  # last column fine, first 1
    yield 2, 3, ((t, t, t), (t, t, t), (t, t, t))  # doubly stochastic
    yield 1, 3, ((t, t, t), (q, q, h), (5 * F(1, 12), 5 * F(1, 12), F(1, 6)))
    yield 2, 2, ((F(3, 2), F(-1, 2)), (F(-1, 2), F(3, 2)))  # negative, sums 1
    yield 2, 2, ((h, q), (h,))  # bad sum before a ragged row
    yield 2, 2, ((h, h), (h,))  # ragged row
    yield 2, 2, ((h, h, 0), (h, h))  # ragged first row
    yield 1, 2, ((h, h),)  # one row short
    yield 3, 2, ((h, h), (h, h))  # n > m
    yield 0, 2, ((h, h), (h, h))  # n < 1
    yield 1, 2, ((1 - UNPRINTABLE, UNPRINTABLE), (UNPRINTABLE, 1 - UNPRINTABLE))
    yield 1, 2, ((1 - UNPRINTABLE, UNPRINTABLE), (UNPRINTABLE, 1))
    yield 1, 2, (("1/2", "1/2"), (1, 0))  # column 1 sums to 1/2
    yield 1, 1, ((F(1),),)


@pytest.mark.parametrize("n, m, entries", list(_extended_cases()))
def test_extended_matrix_validation_matches_the_reference(n, m, entries):
    got = _outcome(sp.ExtendedMatrix, n=n, m=m, entries=entries)
    expected = _outcome(_reference_extended_matrix, n, m, entries)
    if expected[0] == "ok":
        assert got[0] == "ok" and got[1].entries == expected[1]
    else:
        assert got == expected


@st.composite
def square_grids(draw, max_m=4):
    """Square grids whose rows each sum to one; columns sum to one only
    when the grid happens to be doubly stochastic."""
    m = draw(st.integers(1, max_m))
    grid = []
    for _ in range(m):
        row = draw(st.lists(st.integers(0, 5), min_size=m, max_size=m)
                   .filter(lambda w: sum(w) > 0))
        grid.append(tuple(F(w, sum(row)) for w in row))
    if draw(st.booleans()):  # make it doubly stochastic: a permutation mixture
        perms = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=3))
        grid = [[F(0)] * m for _ in range(m)]
        for perm in perms:
            for i, j in enumerate(perm):
                grid[i][j] += F(1, len(perms))
        grid = [tuple(row) for row in grid]
    return draw(st.integers(1, m)), m, tuple(grid)


@given(square_grids())
def test_extended_matrix_validation_matches_the_reference_on_random_squares(case):
    n, m, entries = case
    got = _outcome(sp.ExtendedMatrix, n=n, m=m, entries=entries)
    expected = _outcome(_reference_extended_matrix, n, m, entries)
    if expected[0] == "ok":
        assert got[0] == "ok" and got[1].entries == expected[1]
    else:
        assert got == expected


def test_extended_matrix_grid_is_private_and_shared_with_birkhoff():
    ext = sp.extend(sp.conditional_y_given_x(mixed23()))
    rows, L = ext._grid
    assert L == 6 and rows[2] == (3, 1, 2)
    twin = sp.ExtendedMatrix(n=ext.n, m=ext.m, entries=ext.entries)
    assert twin == ext and hash(twin) == hash(ext) and repr(twin) == repr(ext)
    assert "_grid" not in repr(ext)
    before = ext._grid
    terms = sp.birkhoff_decompose(ext)
    assert ext._grid == before  # peeled a copy
    assert sum(a for a, _ in terms) == 1


def test_extend_hands_over_the_grid_of_its_entries():
    # extend seeds _grid with the integers it filled rather than converting
    # its entries again: the grid must be their numerators over their lcm.
    padded = 0
    for inst in corpus():
        if not sp.check_feasible(inst).feasible:
            continue
        ext = sp.extend(sp.conditional_y_given_x(inst))
        assert "_grid" in vars(ext)
        cells, L = _numerators(v for row in ext.entries for v in row)
        m = ext.m
        assert ext._grid == (
            tuple(tuple(cells[i * m:(i + 1) * m]) for i in range(m)), L
        )
        padded += ext.n < m
    assert padded > 100


def test_extend_grid_is_checked_like_any_other():
    # The seeded grid gets the same 2m sum checks as a converted one.
    entries = ((F(1), F(0)), (F(0), F(1)))
    with pytest.raises(sp.InputError, match="column 0 does not sum to 1"):
        sp.ExtendedMatrix._of_grid(2, 2, entries, (((1, 0), (1, 0)), 1))
    with pytest.raises(sp.InputError, match="need 1 <= n <= m"):
        sp.ExtendedMatrix._of_grid(3, 2, entries, (((1, 0), (0, 1)), 1))


def test_extend_keeps_the_conditional_rows():
    # The conditional's Fraction rows are coerced once, by ConditionalMatrix:
    # the extended matrix holds the very same row objects, padded or square.
    for inst in (mixed23(), det22()):
        cm = sp.conditional_y_given_x(inst)
        ext = sp.extend(cm)
        assert all(ext.entries[i] is cm.entries[i] for i in range(cm.n))


def test_extend_refuses_like_the_reference():
    cm = sp.conditional_y_given_x(skew22())
    sums = _reference_column_sums(cm.entries, cm.m)
    assert _outcome(sp.extend, cm) == _outcome(
        _reference_column_condition, sums, strict=True
    )
    assert _outcome(sp.extend, cm)[1] == "column 0 sums to 3/2 > 1; no scheme exists"


def test_north_west_fill_matches_the_reference_at_scale():
    # Conditional rows over many different denominators: the fill runs
    # over their lcm, and the padding must not move.
    rng = random.Random(1729)
    filled = 0
    for m in (16, 32, 48):
        for n in (m // 4, m // 2):
            rows = []
            for _ in range(n):
                den = rng.randrange(2 * m, 8 * m)
                weights = [0] * m
                for _ in range(den):
                    weights[rng.randrange(m)] += 1
                rows.append([F(w, den) for w in weights])
            inst = sp.instance_from_conditional([F(1, n)] * n, rows)
            cm = sp.conditional_y_given_x(inst)
            sums = _reference_column_sums(cm.entries, m)
            if _reference_column_condition(sums):
                assert _outcome(sp.extend, cm) == _outcome(
                    _reference_column_condition, sums, strict=True
                )
                continue
            ext = sp.extend(cm)
            assert ext.entries[n:] == _reference_north_west(cm.entries, sums)
            filled += 1
    assert filled >= 3


# -- memory: parse and check hold no global-lcm grid ------------------------


def _primes(count, start):
    found, k = [], start
    while len(found) < count:
        if all(k % d for d in range(2, int(k ** 0.5) + 1)):
            found.append(k)
        k += 1
    return found


def _prime_grid(n=200, m=40, seed=20261018):
    """Row i's cells over n * q_i for distinct primes q_i near 10^9, each
    row of mass 1/n: every row's lcm stays small while the lcm of the whole
    grid grows with n."""
    rng = random.Random(seed)
    grid = []
    for q in _primes(n, 10 ** 9):
        cuts = sorted(rng.sample(range(1, q), m - 1))
        grid.append([F(b - a, n * q) for a, b in zip([0, *cuts], [*cuts, q])])
    return _labels(n, m), grid


def _peak(call):
    """Peak traced bytes and seconds of one call."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - start
        return tracemalloc.get_traced_memory()[1], seconds, result
    finally:
        tracemalloc.stop()


def test_parse_and_check_hold_no_global_lcm_grid():
    (x, y), grid = _prime_grid()

    def current():
        return sp.check_feasible(sp.make_instance(x, y, grid))

    peak, seconds, report = _peak(current)
    ref_peak, ref_seconds, expected = _peak(lambda: _reference_front(x, y, grid))
    assert (report.feasible, report.column_sums, report.violations,
            report.shannon_case) == expected
    print(
        f"\nmake_instance + check_feasible, 200x40 over distinct primes: "
        f"{peak / 1024:.0f} KiB in {seconds * 1e3:.0f} ms; Fraction reference "
        f"{ref_peak / 1024:.0f} KiB in {ref_seconds * 1e3:.0f} ms"
    )
    assert peak <= 2 * ref_peak, (peak, ref_peak)
