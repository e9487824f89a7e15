"""The three laws, the necessity audit, and the brute-force oracle."""

import dataclasses
import itertools
import pickle
import random
from fractions import Fraction as F
from math import lcm

import pytest

import sidepad as sp
from sidepad import verification
from sidepad.simplex import feasible_sparse_solution
from corpus import (
    corpus, corr23, det22, mixed23, otp2, skew22, uniform_independent,
)
from test_simplex import _triage_instances


@pytest.fixture
def worked():
    inst = corr23()
    return inst, sp.build_scheme(inst)


def test_built_schemes_pass_everything(worked):
    inst, scheme = worked
    report = sp.verify_scheme(scheme, inst)
    assert report.all_ok
    assert report.consistency.witness is None
    assert report.q_z == (F(1, 2), F(1, 2))
    assert report.q_xy == inst.p_xy
    assert report.q_yz == (
        (F(1, 4), F(0)),
        (F(1, 4), F(1, 4)),
        (F(0), F(1, 4)),
    )


def test_consistency_fails_against_different_instance(worked):
    _, scheme = worked
    other = sp.make_instance(
        ["x1", "x2"], ["y1", "y2", "y3"],
        [["1/2", "0", "0"], ["0", "1/4", "1/4"]],
    )
    result = sp.check_consistency(scheme, other)
    assert not result.ok
    assert result.witness == {
        "x": "x1", "y": "y1", "got": F(1, 4), "expected": F(1, 2)
    }


def test_consistency_requires_matching_shape(worked):
    _, scheme = worked
    with pytest.raises(sp.DimensionMismatchError):
        sp.check_consistency(scheme, otp2())
    relabeled = sp.make_instance(
        ["a", "b"], ["y1", "y2", "y3"],
        [["1/4", "1/4", "0"], ["0", "1/4", "1/4"]],
    )
    with pytest.raises(sp.DimensionMismatchError):
        sp.check_consistency(scheme, relabeled)


def test_verdicts_follow_the_instance_they_were_checked_against(worked):
    # The verdicts are kept per instance object: an instance B with the same
    # labels and another P_XY gets B's verdict, before and after A's.
    inst, scheme = worked
    other = sp.make_instance(
        ["x1", "x2"], ["y1", "y2", "y3"],
        [["1/2", "0", "0"], ["0", "1/4", "1/4"]],
    )
    for case in (inst, other, inst, inst, other, other):
        report = sp.verify_scheme(scheme, case)
        assert report.all_ok is (case is inst)
        assert report.consistency == sp.check_consistency(scheme, case)
        assert report.scheme is scheme
    with pytest.raises(sp.DimensionMismatchError):
        sp.verify_scheme(scheme, otp2())
    assert sp.verify_scheme(scheme, other).consistency.witness["x"] == "x1"


def test_an_equal_but_distinct_instance_is_checked_again(worked, monkeypatch):
    inst, scheme = worked
    calls = []
    check = verification.check_consistency
    monkeypatch.setattr(
        verification, "check_consistency",
        lambda *args: calls.append(args[1]) or check(*args),
    )
    twin = sp.parse_instance(sp.serialize_instance(inst))
    assert twin == inst and twin is not inst
    for case in (inst, inst, twin, twin, inst):
        assert sp.verify_scheme(scheme, case).all_ok
    assert [case is inst for case in calls] == [True, False, True]


def test_a_report_pickles_after_its_marginals_are_read(worked):
    inst, scheme = worked
    report = sp.verify_scheme(scheme, inst)
    marginals = (report.q_z, report.q_xz, report.q_yz, report.q_xy)
    copy = pickle.loads(pickle.dumps(report))
    assert copy == report
    assert (copy.q_z, copy.q_xz, copy.q_yz, copy.q_xy) == marginals


def test_perturbed_weight_fails_consistency_with_witness(worked):
    inst, scheme = worked
    perturbed = sp.Scheme(
        x_labels=scheme.x_labels,
        y_labels=scheme.y_labels,
        z_labels=scheme.z_labels,
        px=scheme.px,
        weights=(F(1, 2) + F(1, 100), F(1, 2)),
        assignments=scheme.assignments,
    )
    result = sp.check_consistency(perturbed, inst)
    assert not result.ok
    assert result.witness == {
        "x": "x1", "y": "y1", "got": F(51, 200), "expected": F(1, 4)
    }
    # the other two laws are indifferent to the perturbation
    assert sp.check_informativeness(perturbed).ok
    assert sp.check_secrecy(perturbed).ok


def test_merged_signal_fails_informativeness(worked):
    _, scheme = worked
    merged = sp.Scheme(
        x_labels=scheme.x_labels,
        y_labels=scheme.y_labels,
        z_labels=scheme.z_labels,
        px=scheme.px,
        weights=scheme.weights,
        # second signal now sends both states to column y2
        assignments=(scheme.assignments[0], (1, 1, 0)),
    )
    result = sp.check_informativeness(merged)
    assert not result.ok
    assert result.witness == {"y": "y2", "z": "z2", "xs": ("x1", "x2")}
    # a receiver holding y2 and seeing z2 could not decode
    with pytest.raises(sp.UnverifiedSchemeError):
        sp.decode_table(merged)


def test_dropped_pair_fails_secrecy(worked):
    inst, scheme = worked
    holed = sp.Scheme(
        x_labels=scheme.x_labels,
        y_labels=scheme.y_labels,
        z_labels=scheme.z_labels,
        px=scheme.px,
        weights=scheme.weights,
        # z1 no longer covers (x2, y2): the signal now leaks
        assignments=((0, None, 2), scheme.assignments[1]),
    )
    secrecy = sp.check_secrecy(holed)
    assert not secrecy.ok
    assert secrecy.witness == {
        "x": "x1", "z": "z1", "got": F(1, 4), "expected": F(1, 8)
    }
    assert not sp.check_consistency(holed, inst).ok


def test_single_signal_secrecy_iff_permutation():
    # Deterministic Y per state.  When the map is a permutation, the one
    # total signal reveals nothing beyond the prior...
    perm_inst = sp.make_instance(
        ["x1", "x2"], ["y1", "y2"], [["1/2", "0"], ["0", "1/2"]]
    )
    perm_scheme = sp.build_scheme(perm_inst)
    assert perm_scheme.p == 1
    assert sp.check_secrecy(perm_scheme).ok
    # ...but a non-injective map forces a dropped pair, and secrecy breaks.
    collapsed = sp.Scheme(
        x_labels=("x1", "x2"),
        y_labels=("y1", "y2"),
        z_labels=("z1",),
        px=(F(1, 2), F(1, 2)),
        weights=(F(1),),
        assignments=((0, None),),
    )
    result = sp.check_secrecy(collapsed)
    assert not result.ok
    assert result.witness == {
        "x": "x1", "z": "z1", "got": F(1, 2), "expected": F(1, 4)
    }


def test_support_signals_worked_example(worked):
    _, scheme = worked
    assert sp.support_signals(scheme, 1, 1) == {0}  # (x2, y2): identity signal
    assert sp.support_signals(scheme, 0, 1) == {1}  # (x1, y2): cycle signal
    assert sp.support_signals(scheme, 0, 2) == frozenset()  # zero-mass pair
    with pytest.raises(sp.DimensionMismatchError):
        sp.support_signals(scheme, 2, 0)


def test_support_signals_can_overlap():
    scheme = sp.build_scheme(mixed23())
    assert sp.support_signals(scheme, 0, 0) == {1, 2}


def test_decode_table_worked_example(worked):
    _, scheme = worked
    assert sp.decode_table(scheme) == {
        (0, 0): 0,  # (y1, z1) -> x1
        (1, 0): 1,  # (y2, z1) -> x2
        (1, 1): 0,  # (y2, z2) -> x1
        (2, 1): 1,  # (y3, z2) -> x2
    }


def test_decode_table_xor_pad():
    scheme = sp.build_scheme(otp2())
    assert sp.decode_table(scheme) == {
        (0, 0): 0, (1, 0): 1, (1, 1): 0, (0, 1): 1
    }


def test_necessity_audit_worked_example(worked):
    _, scheme = worked
    audit = sp.necessity_audit(scheme)
    assert audit.ok
    assert audit.triple_bound_ok and audit.disjoint_ok and audit.column_mass_ok
    # the middle column is exactly saturated
    assert audit.column_mass == (F(1, 2), F(1), F(1, 2))
    assert audit.witness is None


def test_necessity_audit_xor_pad_saturates_every_column():
    audit = sp.necessity_audit(sp.build_scheme(otp2()))
    assert audit.column_mass == (F(1), F(1))


def test_necessity_audit_mass_equals_conditional_column_sums():
    scheme = sp.build_scheme(mixed23())
    audit = sp.necessity_audit(scheme)
    assert audit.column_mass == (F(1, 2), F(5, 6), F(2, 3))
    assert audit.column_mass == sp.column_sums(
        sp.conditional_y_given_x(mixed23())
    )


def test_necessity_audit_skips_unsupported_columns():
    inst = sp.make_instance(["x1"], ["y1", "y2"], [["1", "0"]])
    audit = sp.necessity_audit(sp.build_scheme(inst))
    assert audit.column_mass == (F(1), None)


def test_necessity_audit_flags_overlapping_signal_sets(worked):
    _, scheme = worked
    merged = sp.Scheme(
        x_labels=scheme.x_labels,
        y_labels=scheme.y_labels,
        z_labels=scheme.z_labels,
        px=scheme.px,
        weights=scheme.weights,
        assignments=(scheme.assignments[0], (1, 1, 0)),
    )
    audit = sp.necessity_audit(merged)
    assert not audit.ok
    assert not audit.disjoint_ok
    assert audit.witness is not None and audit.witness["law"] == "disjoint_support"


def test_oracle_agrees_on_examples():
    assert sp.feasibility_oracle(corr23()).feasible
    assert sp.feasibility_oracle(det22()).feasible
    assert not sp.feasibility_oracle(skew22()).feasible
    assert sp.feasibility_oracle(skew22()).support is None


def test_oracle_support_reconstructs_conditional():
    inst = mixed23()
    report = sp.feasibility_oracle(inst)
    assert report.feasible
    cm = sp.conditional_y_given_x(inst)
    assert sum((w for w, _ in report.support), F(0)) == 1
    for i in range(cm.n):
        for j in range(cm.m):
            mass = sum(
                (w for w, perm in report.support if perm[i] == j), F(0)
            )
            assert mass == cm.entries[i][j]


def test_oracle_handles_more_states_than_columns():
    inst = sp.make_instance(
        ["x1", "x2"], ["y1"], [["1/2"], ["1/2"]]
    )
    assert not sp.feasibility_oracle(inst).feasible


def test_oracle_point_mass():
    report = sp.feasibility_oracle(sp.make_instance(["x1"], ["y1"], [["1"]]))
    assert report.feasible
    assert report.support == ((F(1), (0,)),)


def test_oracle_caps_column_count(monkeypatch):
    inst = sp.make_instance(
        ["x1"], [f"y{j}" for j in range(7)], [[F(1, 7)] * 7]
    )
    with pytest.raises(sp.CapExceededError):
        sp.feasibility_oracle(inst)
    monkeypatch.setattr(verification, "_ORACLE_MAX_M", 7)
    assert sp.feasibility_oracle(inst).feasible


def test_oracle_matches_column_condition_on_random_instances():
    rng = random.Random(1729)
    checked = 0
    for _ in range(150):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 4)
        denominator = rng.choice((2, 3, 4, 6, 8, 12))
        counts = [0] * (n * m)
        for _ in range(denominator):
            counts[rng.randrange(n * m)] += 1
        grid = [
            [F(counts[i * m + j], denominator) for j in range(m)]
            for i in range(n)
        ]
        inst = sp.make_instance(
            [f"x{i+1}" for i in range(n)], [f"y{j+1}" for j in range(m)], grid
        )
        assert (
            sp.feasibility_oracle(inst).feasible
            == sp.check_feasible(inst).feasible
        )
        checked += 1
    assert checked == 150


def _dense_oracle(inst):
    """The LP the support-injection oracle replaced: one variable per
    permutation of all m columns, one row per (supported state, column),
    zero cells included, so permutation perm is 1 at rows i*m + perm[i];
    right-hand side the conditional entries as integer numerators over
    their lcm.  More supported states than columns is infeasible without a
    solve."""
    cm = sp.conditional_y_given_x(inst)
    if cm.n > cm.m:
        return sp.OracleReport(feasible=False, support=None)
    perms = list(itertools.permutations(range(cm.m)))
    columns = [tuple(i * cm.m + perm[i] for i in range(cm.n)) for perm in perms]
    rhs = [cm.entries[i][j] for i in range(cm.n) for j in range(cm.m)]
    den = lcm(*(b.denominator for b in rhs))
    solution = feasible_sparse_solution(
        columns, [b.numerator * (den // b.denominator) for b in rhs], den
    )
    if solution is None:
        return sp.OracleReport(feasible=False, support=None)
    return sp.OracleReport(feasible=True, support=tuple(
        (weight, perm) for perm, weight in zip(perms, solution) if weight > 0
    ))


def _assert_oracle_support_rebuilds(inst, report):
    """Permutations of range(m) with positive weights summing to 1, each
    sending every supported state to a positive cell and filling its free
    rows with the unused columns ascending, that rebuild every entry of
    P(Y|X), zero cells included."""
    cm = sp.conditional_y_given_x(inst)
    assert all(type(w) is F and w > 0 for w, _ in report.support)
    assert sum(w for w, _ in report.support) == 1
    for _, perm in report.support:
        assert sorted(perm) == list(range(cm.m))
        assert list(perm[cm.n:]) == sorted(set(range(cm.m)) - set(perm[:cm.n]))
        assert all(cm.entries[i][perm[i]] > 0 for i in range(cm.n))
    for i in range(cm.n):
        for j in range(cm.m):
            mass = sum((w for w, perm in report.support if perm[i] == j), F(0))
            assert mass == cm.entries[i][j]


@pytest.mark.parametrize("source", ["corpus", 1, 2, 3])
def test_oracle_matches_the_dense_permutation_lp(source):
    instances = corpus() if source == "corpus" else _triage_instances(source)
    feasible = 0
    for inst in instances:
        report = sp.feasibility_oracle(inst)
        assert report.feasible == _dense_oracle(inst).feasible
        if report.feasible:
            _assert_oracle_support_rebuilds(inst, report)
            feasible += 1
        else:
            assert report.support is None
    assert 0 < feasible < len(instances)


@pytest.fixture
def lp_columns(monkeypatch):
    """The column count of every system the oracle hands the solver."""
    columns = []
    solve = verification.feasible_sparse_solution

    def recording(*args):
        columns.append(len(args[0]))
        return solve(*args)

    monkeypatch.setattr(verification, "feasible_sparse_solution", recording)
    return columns


def test_oracle_lp_on_the_identity_has_one_column(lp_columns):
    identity = [[F(int(i == j)) for j in range(6)] for i in range(6)]
    inst = sp.instance_from_conditional([F(1, 6)] * 6, identity)
    report = sp.feasibility_oracle(inst)
    assert report.support == ((F(1), tuple(range(6))),)
    assert lp_columns == [1]  # 720 permutations in the dense LP


def test_oracle_lp_on_a_two_cell_band_has_two_columns(lp_columns):
    band = [[F(1, 2) if j in (i, (i + 1) % 5) else F(0) for j in range(5)]
            for i in range(5)]
    inst = sp.instance_from_conditional([F(1, 5)] * 5, band)
    report = sp.feasibility_oracle(inst)
    assert report.feasible and sp.check_feasible(inst).feasible
    _assert_oracle_support_rebuilds(inst, report)
    assert len(lp_columns) == 1 and lp_columns[0] <= 2  # 120 in the dense LP


def test_oracle_without_a_support_injection_never_solves(lp_columns):
    inst = sp.make_instance(
        ["x1", "x2"], ["y1", "y2", "y3"], [["1/2", "0", "0"], ["1/2", "0", "0"]]
    )
    assert sp.feasibility_oracle(inst) == sp.OracleReport(feasible=False, support=None)
    assert not sp.check_feasible(inst).feasible
    assert lp_columns == []


def _repadded(scheme):
    """``scheme`` with every padding entry (rows n..m-1 of each assignment)
    replaced by the column of its first state: in range, so it loads, but
    no signal's assignment is a bijection any more."""
    n = scheme.n
    return dataclasses.replace(
        scheme,
        assignments=tuple(
            sigma[:n] + (sigma[0],) * (scheme.m - n) for sigma in scheme.assignments
        ),
    )


def _assert_padding_is_read_by_no_law(scheme, inst):
    repadded = _repadded(scheme)
    assert repadded != scheme
    assert all(len(set(sigma)) < scheme.m for sigma in repadded.assignments)
    before, after = sp.verify_scheme(scheme, inst), sp.verify_scheme(repadded, inst)
    for law in verification.LAWS:
        assert getattr(after, law) == getattr(before, law)
    assert sp.necessity_audit(repadded) == sp.necessity_audit(scheme)
    assert dict(sp.decode_table(repadded)) == dict(sp.decode_table(scheme))
    assert sp.simulate(repadded, inst, 500, 7, shards=2, min_count=5) == (
        sp.simulate(scheme, inst, 500, 7, shards=2, min_count=5)
    )


def test_padding_rows_are_read_by_no_law():
    # The 1x3 uniform scheme: its one state keeps its columns, and both
    # padding rows of every signal are sent to the state's own column.
    inst = uniform_independent(1, 3)
    scheme = sp.build_scheme(inst)
    repadded = _repadded(scheme)
    assert all(sigma == (sigma[0],) * 3 for sigma in repadded.assignments)
    assert sp.verify_scheme(repadded, inst).all_ok
    assert sp.necessity_audit(repadded).ok
    _assert_padding_is_read_by_no_law(scheme, inst)


def test_padding_rows_are_read_by_no_law_on_corpus():
    count = 0
    for inst in corpus():
        if sp.check_feasible(inst).feasible:
            scheme = sp.build_scheme(inst)
            if scheme.n < scheme.m:
                _assert_padding_is_read_by_no_law(scheme, inst)
                count += 1
    assert count > 100
