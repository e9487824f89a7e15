"""Feasibility: when does a scheme exist at all?

The whole decision comes down to the column sums of the conditional
matrix P_{Y|X} over supported states: a scheme exists if and only if no
column of side information is, summed over states, "claimed" more than
once.  Intuitively each signal must pair every state with a distinct
column, so column y can absorb at most total mass 1 across states.

The classic special case: X independent of Y with Y uniform over its m
supported values makes every conditional entry 1/m, so the condition
collapses to counting — feasible iff at most m supported states.  That
case is detected and reported alongside the general verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .construction import _column_condition, build_scheme
from .errors import InputError
from .model import (
    Instance,
    RationalLike,
    _column_numerators,
    as_fraction,
    column_sums,
    conditional_y_given_x,
    instance_from_conditional,
    supp_x,
)


@dataclass(frozen=True)
class ShannonCase:
    """Detection record for the independent-uniform special case."""

    independent: bool
    y_uniform: bool
    n: int
    m: int

    @property
    def applies(self) -> bool:
        return self.independent and self.y_uniform

    @property
    def feasible_by_count(self) -> bool:
        return self.n <= self.m


@dataclass(frozen=True)
class FeasibilityReport:
    """Verdict plus the exact column sums and the violating columns."""

    feasible: bool
    column_sums: tuple[Fraction, ...]
    violations: tuple[int, ...]
    shannon_case: ShannonCase


def shannon_reduce(inst: Instance) -> ShannonCase:
    """Detect whether the instance is the counting special case: X and Y
    independent and Y uniform on its support.

    Runs one row at a time on integers: row x over its own denominator d
    is ``nums / d`` with P_X(x) = S / d for S = sum(nums), and P_Y is
    ``py / L``, so P_XY(x, y) == P_X(x) P_Y(y) reads ``nums[y] * L ==
    S * py[y]``."""
    py, L = _column_numerators(inst._rows, inst.m)
    independent = all(
        v * L == S * q
        for nums, S in ((nums, sum(nums)) for nums, _ in inst._rows)
        for v, q in zip(nums, py)
    )
    py_support = [q for q in py if q]
    return ShannonCase(
        independent=independent,
        y_uniform=len(set(py_support)) == 1,
        n=len(supp_x(inst)),
        m=len(py_support),
    )


def check_feasible(inst: Instance) -> FeasibilityReport:
    """Decide feasibility from the exact column sums of P_{Y|X}."""
    cm = conditional_y_given_x(inst)
    violations = _column_condition(cm)
    return FeasibilityReport(
        feasible=not violations,
        column_sums=column_sums(cm),
        violations=violations,
        shannon_case=shannon_reduce(inst),
    )


def marginal_invariance_witness(
    inst: Instance, alt_px: Sequence[RationalLike]
) -> bool:
    """Demonstrate that the state marginal is irrelevant: rebuild the
    instance with a different P_X on the same support and the same
    P_{Y|X}, and report whether the feasibility verdict — and, when
    feasible, the constructed signals and weights — are unchanged.

    ``alt_px`` must be a distribution over all states that is positive
    exactly on the original support.
    """
    alt = [as_fraction(v) for v in alt_px]
    supp = set(supp_x(inst))
    for i, v in enumerate(alt):
        if (i in supp) != (v > 0):
            raise InputError(
                "alternative state marginal must be positive exactly on the "
                "original support"
            )

    cm = conditional_y_given_x(inst)
    cond_rows = iter(cm.entries)
    full_conditional = [
        next(cond_rows) if i in supp else [Fraction(0)] * inst.m
        for i in range(inst.n)
    ]
    # Zero-mass rows pass an all-zero conditional, which the rebuild ignores.
    rebuilt = instance_from_conditional(
        alt, full_conditional, x_labels=inst.x_labels, y_labels=inst.y_labels
    )

    original = check_feasible(inst)
    other = check_feasible(rebuilt)
    if original.feasible != other.feasible:
        return False
    if not original.feasible:
        return True
    a = build_scheme(inst)
    b = build_scheme(rebuilt)
    return a.weights == b.weights and a.assignments == b.assignments
