"""Acceptance gate: nine go/no-go criteria over the enumerated corpus.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Everything here is exact (Fraction equality) except
where a tolerance is stated inline.
"""

import time
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

import sidepad as sp
from corpus import PINNED_SEEDS, corpus, corr23, mixed23, otp2, uniform_independent

SWEEP_BUDGET_S = 60.0
MONTE_CARLO_BUDGET_S = 10.0


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sweep():
    instances = corpus()
    mismatches = 0
    feasible, infeasible = [], []
    start = time.perf_counter()
    for inst in instances:
        verdict = sp.check_feasible(inst).feasible
        if verdict != sp.feasibility_oracle(inst).feasible:
            mismatches += 1
        (feasible if verdict else infeasible).append(inst)
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        instances=instances,
        feasible=feasible,
        infeasible=infeasible,
        mismatches=mismatches,
        elapsed=elapsed,
    )


@pytest.fixture(scope="module")
def built(sweep):
    return [(inst, sp.build_scheme(inst)) for inst in sweep.feasible]


def test_criterion_1_theorem_equivalence_sweep(sweep):
    size_ok = len(sweep.instances) >= 1000
    shape_ok = all(i.n <= 4 and i.m <= 4 for i in sweep.instances)
    denom_ok = all(
        value.denominator <= 12
        for i in sweep.instances
        for row in i.p_xy
        for value in row
    )
    mass_ok = all(
        sum(v for row in i.p_xy for v in row) == 1 for i in sweep.instances
    )
    time_ok = sweep.elapsed < SWEEP_BUDGET_S
    ok = (
        size_ok and shape_ok and denom_ok and mass_ok
        and sweep.mismatches == 0 and time_ok
    )
    _report(
        1,
        ok,
        f"{len(sweep.instances)} instances, {sweep.mismatches} "
        f"check/oracle mismatches, swept in {sweep.elapsed:.2f}s "
        f"(budget {SWEEP_BUDGET_S:.0f}s)",
    )


def test_criterion_2_constructive_sufficiency(sweep, built):
    failures = 0
    for inst, scheme in built:
        report = sp.verify_scheme(scheme, inst)
        if not (report.all_ok and sp.necessity_audit(scheme).ok):
            failures += 1
    _report(
        2,
        failures == 0,
        f"{len(built)} feasible instances built; {failures} failed the "
        "three exact checks plus necessity audit",
    )


def test_criterion_3_necessity(sweep):
    escapees = sum(
        1 for inst in sweep.infeasible if sp.feasibility_oracle(inst).feasible
    )
    _report(
        3,
        escapees == 0,
        f"{len(sweep.infeasible)} infeasible instances; {escapees} admitted "
        "a permutation mixture under the exhaustive oracle",
    )


def test_criterion_4_uniform_independent_counting():
    wrong = []
    for n in range(1, 5):
        for m in range(1, 5):
            report = sp.check_feasible(uniform_independent(n, m))
            expected = n <= m
            if report.feasible != expected or not report.shannon_case.applies:
                wrong.append((n, m))
    _report(
        4,
        not wrong,
        "verdict equals (n <= m) on all 16 uniform-independent instances"
        if not wrong
        else f"mismatches at {wrong}",
    )


def test_criterion_5_decomposition_size_bound(built):
    violations = 0
    worst = 0
    for _, scheme in built:
        if sum(scheme.weights) != 1:
            violations += 1
        bound = scheme.m * scheme.m - 2 * scheme.m + 2 if scheme.m >= 2 else 1
        worst = max(worst, scheme.p - bound)
        if scheme.p > bound:
            violations += 1
    _report(
        5,
        violations == 0,
        f"{len(built)} schemes: signal counts within m^2-2m+2, "
        f"weights sum to 1 exactly (worst slack {worst})",
    )


def test_criterion_6_worked_2x3_example():
    inst = corr23()
    scheme = sp.build_scheme(inst)
    report = sp.verify_scheme(scheme, inst)
    table = sp.decode_table(scheme)
    search = sp.find_deterministic_scheme(inst)
    deterministic_ok = (
        search.status == "found"
        and all(None not in sigma for sigma in search.scheme.assignments)
        and sp.verify_scheme(search.scheme, inst).all_ok
    )
    ok = (
        scheme.p == 2
        and scheme.weights == (F(1, 2), F(1, 2))
        and report.q_z == (F(1, 2), F(1, 2))
        and table == {(0, 0): 0, (1, 0): 1, (1, 1): 0, (2, 1): 1}
        and deterministic_ok
    )
    _report(
        6,
        ok,
        f"p={scheme.p}, weights={tuple(map(str, scheme.weights))}, "
        f"q_z={tuple(map(str, report.q_z))}, decode table has "
        f"{len(table)} entries, deterministic witness {search.status}",
    )


def test_criterion_7_deterministic_impossibility():
    inst = mixed23()
    feasible = sp.check_feasible(inst).feasible
    scheme = sp.build_scheme(inst)
    verified = sp.verify_scheme(scheme, inst).all_ok
    search = sp.find_deterministic_scheme(inst)
    ok = feasible and verified and search.status == "none_found"
    _report(
        7,
        ok,
        f"feasible={feasible}, randomized scheme verified={verified}, "
        f"deterministic decision '{search.status}' after "
        f"{search.nodes} colouring steps",
    )


def test_criterion_8_monte_carlo():
    n_samples = 200000
    worst_tv = 0.0
    worst_qz_gap = 0.0
    problems = []
    start = time.perf_counter()
    for factory in (otp2, corr23):
        inst = factory()
        scheme = sp.build_scheme(inst)
        exact_qz = sp.verify_scheme(scheme, inst).q_z
        for seed in PINNED_SEEDS:
            first = sp.simulate(scheme, inst, n_samples, seed)
            again = sp.simulate(scheme, inst, n_samples, seed)
            if first != again:
                problems.append(f"{factory.__name__}/{seed}: not reproducible")
            if first.decode_success != 1.0:
                problems.append(f"{factory.__name__}/{seed}: decode failures")
            worst_tv = max(worst_tv, first.max_tv)
            gap = max(
                abs(first.empirical_qz[k] - float(exact_qz[k]))
                for k in range(scheme.p)
            )
            worst_qz_gap = max(worst_qz_gap, gap)
    elapsed = time.perf_counter() - start
    if worst_tv > 0.01:
        problems.append(f"max TV {worst_tv}")
    if worst_qz_gap > 0.01:
        problems.append(f"Q_Z gap {worst_qz_gap}")
    if elapsed >= MONTE_CARLO_BUDGET_S:
        problems.append(f"took {elapsed:.1f}s")
    _report(
        8,
        not problems,
        f"2 schemes x {len(PINNED_SEEDS)} seeds x {n_samples} samples: "
        f"decode success 1.0 exactly, max TV {worst_tv:.5f} <= 0.01, "
        f"Q_Z gap {worst_qz_gap:.5f} <= 0.01, bit-identical reruns, "
        f"{elapsed:.2f}s (budget {MONTE_CARLO_BUDGET_S:.0f}s)"
        if not problems
        else "; ".join(problems),
    )


def test_criterion_9_round_trip_formats(sweep, built):
    broken = 0
    for inst in sweep.instances:
        if sp.parse_instance(sp.serialize_instance(inst)) != inst:
            broken += 1
    for _, scheme in built:
        if sp.parse_scheme(sp.serialize_scheme(scheme)) != scheme:
            broken += 1
    _report(
        9,
        broken == 0,
        f"{len(sweep.instances)} instances and {len(built)} schemes "
        f"round-tripped field-exact; {broken} diverged",
    )
