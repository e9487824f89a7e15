"""Exact rational parsing and the instance data model."""

import sys
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sidepad as sp
from corpus import corpus


@st.composite
def instances(draw, max_n=4, max_m=4, max_unit=12):
    """Random exact instances: integer grids normalized by their total."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    cells = draw(
        st.lists(st.integers(0, max_unit), min_size=n * m, max_size=n * m).filter(
            lambda w: sum(w) > 0
        )
    )
    total = sum(cells)
    grid = [[F(cells[i * m + j], total) for j in range(m)] for i in range(n)]
    return sp.make_instance(
        [f"x{i+1}" for i in range(n)], [f"y{j+1}" for j in range(m)], grid
    )


def test_rat_parse_accepts_all_three_forms():
    assert sp.rat_parse("1/2") == F(1, 2)
    assert sp.rat_parse("-3/6") == F(-1, 2)
    assert sp.rat_parse("+2/4") == F(1, 2)
    assert sp.rat_parse("7") == F(7)
    assert sp.rat_parse("-0") == F(0)
    assert sp.rat_parse("0.25") == F(1, 4)
    assert sp.rat_parse(".5") == F(1, 2)
    assert sp.rat_parse("1.") == F(1)
    assert sp.rat_parse(" 2/3 ") == F(2, 3)


@pytest.mark.parametrize(
    "token",
    ["", "1e-3", "1E3", "nan", "inf", "1/0", "0/0", "1/-2", "1//2", "a/b",
     "0x10", "1,5", "1 / 2", "--1", "1.2.3"],
)
def test_rat_parse_rejects_garbage(token):
    with pytest.raises(sp.InputError):
        sp.rat_parse(token)


@given(st.fractions(max_denominator=10**6))
def test_rat_str_round_trips(q):
    assert sp.rat_parse(sp.rat_str(q)) == q


def test_as_fraction_refuses_floats():
    with pytest.raises(sp.InputError):
        sp.as_fraction(0.1)
    with pytest.raises(sp.InputError):
        sp.as_fraction(True)
    assert sp.as_fraction(2) == F(2)
    assert sp.as_fraction("3/9") == F(1, 3)


def test_instance_is_frozen_and_canonical():
    inst = sp.make_instance(["a", "b"], ["u", "v"], [["1/2", 0], [0, "2/4"]])
    with pytest.raises(FrozenInstanceError):
        inst.x_labels = ("c",)
    assert inst.p_xy == ((F(1, 2), F(0)), (F(0), F(1, 2)))
    assert inst.n == 2 and inst.m == 2


@pytest.mark.parametrize(
    "x, y, grid",
    [
        (["a", "a"], ["u", "v"], [["1/2", 0], [0, "1/2"]]),  # dup x label
        (["a", "b"], ["u", "u"], [["1/2", 0], [0, "1/2"]]),  # dup y label
        (["a", "b"], ["u", "v"], [["1/2", 0], [0, "1/4"]]),  # mass 3/4
        (["a", "b"], ["u", "v"], [["3/4", 0], [0, "1/2"]]),  # mass 5/4
        (["a", "b"], ["u", "v"], [["-1/4", "1/2"], ["1/4", "1/2"]]),  # negative
        (["a", "b"], ["u", "v"], [["1/2", 0, 0], [0, "1/2", 0]]),  # ragged
        (["a", "b"], ["u", "v"], [["1/2", 0]]),  # missing row
        (["a b"], ["u"], [["1"]]),  # whitespace label
        (["a#1"], ["u"], [["1"]]),  # comment char in label
        ([], [], []),  # empty
    ],
)
def test_instance_rejects_malformed(x, y, grid):
    with pytest.raises(sp.InputError):
        sp.make_instance(x, y, grid)


def test_marginals_of_worked_example():
    inst = sp.make_instance(
        ["x1", "x2"], ["y1", "y2", "y3"],
        [["1/4", "1/4", "0"], ["0", "1/4", "1/4"]],
    )
    assert sp.marginal_x(inst) == (F(1, 2), F(1, 2))
    assert sp.marginal_y(inst) == (F(1, 4), F(1, 2), F(1, 4))
    assert sp.supp_x(inst) == (0, 1)
    assert sp.supp_y(inst) == (0, 1, 2)


def _supports_on_the_fraction_grid(inst):
    """supp_x, supp_y and p_lower_bound written on the Fraction grid p_xy."""
    grid = inst.p_xy
    return (
        tuple(i for i, row in enumerate(grid) if any(v > 0 for v in row)),
        tuple(j for j in range(inst.m) if any(row[j] > 0 for row in grid)),
        max(sum(1 for v in row if v > 0) for row in grid),
    )


def _assert_supports_are_those_of_the_fraction_grid(inst):
    got = (sp.supp_x(inst), sp.supp_y(inst), sp.p_lower_bound(inst))
    assert got == _supports_on_the_fraction_grid(inst)


def test_supports_equal_the_fraction_grid_on_corpus():
    for inst in corpus():
        _assert_supports_are_those_of_the_fraction_grid(inst)


@given(instances())
def test_supports_equal_the_fraction_grid_on_random_instances(inst):
    _assert_supports_are_those_of_the_fraction_grid(inst)


def test_conditional_of_worked_example():
    inst = sp.make_instance(
        ["x1", "x2"], ["y1", "y2", "y3"],
        [["1/4", "1/4", "0"], ["0", "1/4", "1/4"]],
    )
    cm = sp.conditional_y_given_x(inst)
    assert cm.rows == (0, 1)
    assert cm.cols == (0, 1, 2)
    assert cm.entries == (
        (F(1, 2), F(1, 2), F(0)),
        (F(0), F(1, 2), F(1, 2)),
    )
    assert sp.column_sums(cm) == (F(1, 2), F(1), F(1, 2))


def test_conditional_normalizes_unequal_rows():
    inst = sp.make_instance(
        ["x1", "x2"], ["y1", "y2"], [["1/3", "0"], ["1/3", "1/3"]]
    )
    cm = sp.conditional_y_given_x(inst)
    assert cm.entries == ((F(1), F(0)), (F(1, 2), F(1, 2)))


def test_conditional_skips_zero_mass_states():
    inst = sp.make_instance(
        ["x1", "x2", "x3"], ["y1", "y2"],
        [["1/2", "0"], ["0", "0"], ["0", "1/2"]],
    )
    cm = sp.conditional_y_given_x(inst)
    assert cm.rows == (0, 2)
    assert cm.entries == ((F(1), F(0)), (F(0), F(1)))


def test_conditional_keeps_zero_y_columns():
    inst = sp.make_instance(["x1"], ["y1", "y2"], [["1", "0"]])
    cm = sp.conditional_y_given_x(inst)
    assert cm.cols == (0, 1)
    assert cm.entries == ((F(1), F(0)),)


def test_conditional_is_built_once_per_instance():
    inst = sp.make_instance(
        ["x1", "x2"], ["y1", "y2"], [["1/3", "0"], ["1/3", "1/3"]]
    )
    cm = sp.conditional_y_given_x(inst)
    assert sp.conditional_y_given_x(inst) is cm
    # An equal instance builds its own, equal conditional.
    twin = replace(inst)
    assert sp.conditional_y_given_x(twin) is not cm
    assert sp.conditional_y_given_x(twin) == cm
    assert twin == inst


def test_conditional_keeps_its_integer_rows_and_column_sums():
    # Validation's integer rows are kept as the one integer form of the
    # conditional: the column sums derive from them, the search compares
    # them and extend scales them, so no step converts the Fraction entries
    # again.  They cost what the instance's own ``_rows`` cost.  Beside
    # them stay the column sums and the search's outcome, whose scheme
    # holds no row numerators.
    inst = sp.make_instance(
        ["x1", "x2"], ["y1", "y2", "y3"],
        [["1/4", "1/4", "0"], ["0", "1/4", "1/4"]],
    )
    sp.check_feasible(inst)
    sp.build_scheme(inst)
    sp.find_deterministic_scheme(inst)
    sp.feasibility_oracle(inst)
    cm = sp.conditional_y_given_x(inst)
    assert set(vars(cm)) == {
        "rows", "cols", "entries", "masses", "_rows", "_columns", "_search"
    }
    # The search's memo is the search's outcome itself.
    assert cm._search is sp.find_deterministic_scheme(inst)
    assert cm._rows == (([1, 1, 0], 2), ([0, 1, 1], 2))
    assert cm._columns == ([1, 2, 1], 2)
    assert sp.column_sums(cm) == (F(1, 2), F(1), F(1, 2))


def test_instance_conditional_equals_the_validated_constructor():
    # Instance._conditional builds its matrix without coercing or checking
    # again; the public constructor, which does both, gives the same matrix,
    # the same integer rows and the same integer column sums.  Every row is
    # in lowest terms: its numerators have gcd 1 and sum to its denominator,
    # which makes the search's rule (1) a plain comparison.
    for inst in corpus():
        cm = sp.conditional_y_given_x(inst)
        checked = sp.ConditionalMatrix(
            rows=cm.rows, cols=cm.cols, entries=cm.entries, masses=cm.masses
        )
        assert checked == cm
        assert (checked.masses, checked._rows, checked._columns) == (
            cm.masses, cm._rows, cm._columns
        )
        for nums, den in cm._rows:
            assert gcd(*nums) == 1 and sum(nums) == den


@st.composite
def conditional_tokens(draw, max_n=4, max_m=4):
    """Conditional rows written as tokens: each row a shuffle of one shared
    row or of its own, each row's parts over a denominator up to 6, with
    zero columns, unreduced ``"a/b"`` tokens and plain ints mixed in."""
    m = draw(st.integers(1, max_m))

    def parts():
        den = draw(st.integers(1, 6))
        cuts = draw(st.lists(st.integers(0, den), min_size=m - 1, max_size=m - 1))
        cuts.sort()
        return [b - a for a, b in zip([0] + cuts, cuts + [den])], den

    shared = parts()
    rows = []
    for _ in range(draw(st.integers(1, max_n))):
        nums, den = shared if draw(st.booleans()) else parts()
        nums = draw(st.permutations(nums))
        scale = draw(st.integers(1, 3))
        rows.append([
            v // den if v % den == 0 and draw(st.booleans())
            else f"{v * scale}/{den * scale}"
            for v in nums
        ])
    return rows


@given(conditional_tokens())
def test_rule_one_compares_the_kept_rows_like_sorted_fraction_rows(rows):
    cm = sp.ConditionalMatrix(
        rows=range(len(rows)), cols=range(len(rows[0])), entries=rows
    )
    values = [sorted(map(F, row)) for row in rows]
    same = all(v == values[0] for v in values)
    assert sp.row_value_multisets_equal(cm) == same
    if same:  # one denominator, the column sums' own
        assert {den for _, den in cm._rows} == {cm._columns[1]}


def test_conditional_matrix_validates_rows():
    with pytest.raises(sp.InputError):
        sp.ConditionalMatrix(rows=(0,), cols=(0, 1), entries=((F(1, 2), F(1, 4)),))
    with pytest.raises(sp.InputError):
        sp.ConditionalMatrix(rows=(0,), cols=(0,), entries=((F(-1),),))


def test_conditional_matrix_coerces_at_its_boundary():
    with pytest.raises(sp.InputError, match="not an exact rational value: 0.5"):
        sp.ConditionalMatrix(rows=(0,), cols=(0, 1), entries=((0.5, 0.5),))
    with pytest.raises(sp.InputError, match="not an exact rational value: 1.0"):
        sp.ConditionalMatrix(rows=(0,), cols=(0,), entries=((F(1),),), masses=(1.0,))
    cm = sp.ConditionalMatrix(rows=(0,), cols=(0, 1), entries=(("1/2", "1/2"),))
    assert cm.entries == ((F(1, 2), F(1, 2)),)
    assert sp.extend(cm).entries[1] == (F(1, 2), F(1, 2))
    cm = sp.ConditionalMatrix(
        rows=(0, 1), cols=(0, 1), entries=((1, 0), (0, 1)), masses=(F(1, 2), "1/2")
    )
    assert cm.entries == ((F(1), F(0)), (F(0), F(1)))
    assert cm.masses == (F(1, 2), F(1, 2))
    assert {type(v) for v in (*cm.entries[0], *cm.entries[1], *cm.masses)} == {F}


def test_conditional_matrix_stores_rows_and_cols_as_tuples():
    entries = ((F(1, 2), F(1, 2)),)
    listed = sp.ConditionalMatrix(rows=[0], cols=[0, 1], entries=entries)
    tupled = sp.ConditionalMatrix(rows=(0,), cols=(0, 1), entries=entries)
    assert (listed.rows, listed.cols) == ((0,), (0, 1))
    assert listed == tupled
    assert hash(listed) == hash(tupled)


def test_instance_from_conditional():
    inst = sp.instance_from_conditional(
        ["1/2", "1/2"], [["2/3", "1/3"], ["1/3", "2/3"]]
    )
    assert inst.p_xy == ((F(1, 3), F(1, 6)), (F(1, 6), F(1, 3)))
    assert inst.x_labels == ("x1", "x2")


def test_instance_from_conditional_ignores_zero_rows():
    inst = sp.instance_from_conditional(
        ["1", "0"], [["1/2", "1/2"], ["0", "0"]], x_labels=["a", "b"]
    )
    assert inst.p_xy == ((F(1, 2), F(1, 2)), (F(0), F(0)))
    with pytest.raises(sp.InputError):
        sp.instance_from_conditional(["1/2", "1/2"], [["1/2", "1/2"], ["0", "0"]])


@pytest.mark.parametrize(("px", "conditional", "message"), [
    ([], [], "conditional grid is empty"),
    (["1/2", "1/2"], [["1/2", "1/2"], ["1"]], "conditional grid is ragged"),
    (["2", "-1"], [["1"], ["1"]], "negative marginal mass -1"),
], ids=["empty", "ragged", "negative-mass"])
def test_instance_from_conditional_refuses_a_bad_grid(px, conditional, message):
    with pytest.raises(sp.InputError, match=message):
        sp.instance_from_conditional(px, conditional)


@given(instances())
def test_marginals_sum_to_one(inst):
    assert sum(sp.marginal_x(inst)) == 1
    assert sum(sp.marginal_y(inst)) == 1


@given(instances())
def test_joint_reconstructs_from_conditional(inst):
    px = sp.marginal_x(inst)
    cm = sp.conditional_y_given_x(inst)
    for r, i in enumerate(cm.rows):
        for j in range(inst.m):
            assert cm.entries[r][j] * px[i] == inst.p_xy[i][j]
    # states outside cm.rows have zero mass rows
    for i in set(range(inst.n)) - set(cm.rows):
        assert all(v == 0 for v in inst.p_xy[i])


@given(instances())
def test_conditional_rows_are_distributions(inst):
    cm = sp.conditional_y_given_x(inst)
    assert cm.rows == sp.supp_x(inst)
    for row in cm.entries:
        assert sum(row) == 1
        assert all(v >= 0 for v in row)


@given(instances())
def test_column_sums_total_equals_supported_states(inst):
    cm = sp.conditional_y_given_x(inst)
    assert sum(sp.column_sums(cm)) == len(cm.rows)


@pytest.mark.parametrize("token", ["٣/٤", "1/٤", "٣", "-٣", "٣.5", "0.٥", "1_0"])
def test_rat_parse_accepts_ascii_digits_only(token):
    with pytest.raises(sp.InputError):
        sp.rat_parse(token)


# Python refuses int() on more digits than sys.get_int_max_str_digits()
# (4,300 by default); 0 means no limit.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="int() has no digit limit in this interpreter"
)


@needs_digit_limit
@pytest.mark.parametrize(
    "template", ["{d}", "-{d}", "{d}/{d}", "1/{d}", "{d}/3", "0.{d}", "{d}.5"]
)
def test_rat_parse_refuses_numbers_past_the_digit_limit(template):
    digits = "7" * (DIGIT_LIMIT + 1)
    with pytest.raises(sp.InputError, match="too long") as caught:
        sp.rat_parse(template.format(d=digits))
    assert len(str(caught.value)) < 200


def test_long_values_are_clipped_in_input_errors():
    # Printable but long values are cut short, as tokens are.
    value = F(-1, 3 ** 200)
    with pytest.raises(sp.InputError) as caught:
        sp.make_instance(["x1", "x2"], ["y1"], [[value], [1 - value]])
    message = str(caught.value)
    assert message.startswith("negative probability -1/") and "..." in message
    assert len(message) < 100


@needs_digit_limit
def test_rat_str_refuses_rationals_past_the_digit_limit():
    den = 3 ** (DIGIT_LIMIT * 2096 // 1000 + 10)  # more digits than the limit
    for value in (F(1, den), F(den, 7), F(-den)):
        with pytest.raises(sp.CapExceededError, match="too long to print") as caught:
            sp.rat_str(value)
        assert len(str(caught.value)) < 200


@needs_digit_limit
def test_rat_parse_reads_numbers_at_the_digit_limit():
    digits = "7" * DIGIT_LIMIT
    assert sp.rat_parse(digits) == int(digits)
    assert sp.rat_parse(f"{digits}/{digits}") == 1
    assert sp.rat_parse(f"0.{digits[1:]}") == F(int(digits[1:]), 10 ** (DIGIT_LIMIT - 1))
