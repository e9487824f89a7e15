"""Exact verification of schemes.

A scheme together with an instance determines the joint distribution

    Q(x_i, y_j, z_k) = weight_k * px_i * [assignments[k][i] == j]

over real state rows i (padding rows carry no mass).  The scheme compiles
that joint once, in a single pass over its assignments, into a sparse form
on integers (``Scheme._joint``): with D the lcm of the weight denominators
and E that of the state masses, every mass is an integer numerator over
D * E — Q_XZ(x_i, z_k) is alpha_k * D times P_X(x_i) * E — next to each
signal's inverse (column -> state rows) and the support sets
phi(x, y) = { z : Q(x,y,z) > 0 }.  Everything here is derived from that one
enumeration — never from the construction's intermediate values — and the
three defining laws are checked exactly, by integer sums and
cross-multiplication; Fractions are built only for what a report or a
witness returns, and a report's marginals only when first read:

* consistency: Q_XY equals the instance's P_XY cell by cell;
* informativeness: whenever Q_YZ(y,z) > 0, exactly one state is possible,
  so the receiver decodes with certainty;
* secrecy: Q_XZ(x,z) == Q_Z(z) * P_X(x), i.e. the public signal alone
  carries nothing about the state.

``necessity_audit`` additionally recomputes the quantities that make a
verified scheme *certify* the column condition: the triple bound
Q_XYZ <= Q_XZ, disjointness across states of the sets phi(x, y) for fixed
y, and the per-column signal mass sums they force to stay at or below one.
The decode table reads the same form, and so does the runtime, which
refuses unverified schemes through ``verify_scheme``.

``feasibility_oracle`` answers "does any scheme exist?" by brute force —
an exact phase-1 simplex over mixtures of support injections — sharing no
code with the constructive pipeline, so the two can cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional

from .construction import Scheme
from .errors import (
    CapExceededError,
    DimensionMismatchError,
    UnverifiedSchemeError,
)
from .model import Instance, _fractions, conditional_y_given_x, supp_x
from .simplex import feasible_nonnegative_solution

Witness = dict[str, object]

# The three defining laws, in report order: each names a CheckResult field
# of VerificationReport.
LAWS = ("consistency", "informativeness", "secrecy")

# The oracle's LP has one variable per support injection: up to m! of them.
_ORACLE_MAX_M = 6


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one law: ``ok`` plus the first counterexample found
    (row-major scan order), or None when the law holds."""

    ok: bool
    witness: Optional[Witness] = None


# Every law that holds reports this one result: it is immutable and carries
# no witness, and building a frozen dataclass is most of a passing check's
# cost (``decode`` runs the informativeness check on every call).
_PASS = CheckResult(ok=True)


@dataclass(frozen=True)
class VerificationReport:
    """The three law verdicts, and the marginals Q_Z, Q_XZ, Q_YZ and Q_XY as
    Fractions, each built from ``scheme._joint`` on first read and memoised
    outside the fields; equal reports hold equal schemes, so equal marginals."""

    consistency: CheckResult
    informativeness: CheckResult
    secrecy: CheckResult
    scheme: Scheme = field(repr=False)

    @property
    def all_ok(self) -> bool:
        return all(getattr(self, law).ok for law in LAWS)

    @cached_property
    def _fraction(self):
        # One memo for all four marginals, so equal values share a Fraction.
        return _fractions(self.scheme._joint.den)

    @cached_property
    def q_z(self) -> tuple[Fraction, ...]:
        return tuple(map(self._fraction, self.scheme._joint.q_z))

    @cached_property
    def q_xz(self) -> tuple[tuple[Fraction, ...], ...]:
        joint, fraction = self.scheme._joint, self._fraction
        return tuple(
            tuple(
                fraction(0 if sigma[i] is None else a_k * b_i)
                for a_k, sigma in zip(joint.a, self.scheme.assignments)
            )
            for i, b_i in enumerate(joint.b)
        )

    @cached_property
    def q_yz(self) -> tuple[tuple[Fraction, ...], ...]:
        joint, fraction = self.scheme._joint, self._fraction
        return tuple(zip(*(
            [fraction(a_k * sum(joint.b[i] for i in rows)) for rows in inverse]
            for a_k, inverse in zip(joint.a, joint.inverse)
        )))

    @cached_property
    def q_xy(self) -> tuple[tuple[Fraction, ...], ...]:
        fraction = self._fraction
        return tuple(tuple(map(fraction, row)) for row in self.scheme._joint.q_xy)


def _scheme_rows(scheme: Scheme, inst: Instance) -> tuple[int, ...]:
    """The instance rows behind the scheme's states: its supported states,
    in order.  Unless shapes and labels line up, scheme and instance pose
    different problems, and :class:`DimensionMismatchError` is raised."""
    supp = supp_x(inst)
    if (
        scheme.m != inst.m
        or scheme.n != len(supp)
        or scheme.x_labels != tuple(inst.x_labels[i] for i in supp)
        or scheme.y_labels != inst.y_labels
    ):
        raise DimensionMismatchError(
            "scheme and instance do not share shape and labels"
        )
    return supp


def check_consistency(scheme: Scheme, inst: Instance) -> CheckResult:
    """Does the scheme's Q_XY reproduce the instance's P_XY exactly?

    Mismatched shapes or labels raise rather than fail (see _scheme_rows).
    """
    supp = _scheme_rows(scheme, inst)
    joint = scheme._joint
    for i, got_row in enumerate(joint.q_xy):
        nums, d = inst._rows[supp[i]]
        for j, (got, want) in enumerate(zip(got_row, nums)):
            if got * d != want * joint.den:  # got / den != want / d
                return CheckResult(
                    ok=False,
                    witness={
                        "x": scheme.x_labels[i],
                        "y": scheme.y_labels[j],
                        "got": Fraction(got, joint.den),
                        "expected": inst.p_xy[supp[i]][j],
                    },
                )
    return _PASS


def check_informativeness(scheme: Scheme) -> CheckResult:
    """For every (y, z) with Q_YZ > 0, is exactly one state possible?"""
    joint = scheme._joint
    if joint.clash is None:
        return _PASS
    j, k = joint.clash
    return CheckResult(
        ok=False,
        witness={
            "y": scheme.y_labels[j],
            "z": scheme.z_labels[k],
            "xs": tuple(scheme.x_labels[i] for i in joint.inverse[k][j]),
        },
    )


def check_secrecy(scheme: Scheme) -> CheckResult:
    """Is Q_XZ(x,z) exactly Q_Z(z) * P_X(x) for every state and signal?

    States outside the scheme (zero instance mass) satisfy this vacuously;
    signals with Q_Z(z) = 0 impose no condition.
    """
    joint = scheme._joint
    signals = list(zip(joint.a, joint.q_z, scheme.assignments))
    for i, b in enumerate(joint.b):
        for k, (a, q_z, sigma) in enumerate(signals):
            if q_z == 0:
                continue
            # Q_XZ = got / den against Q_Z * P_X = q_z * b / (den * e).
            got = 0 if sigma[i] is None else a * b
            if got * joint.e != q_z * b:
                return CheckResult(
                    ok=False,
                    witness={
                        "x": scheme.x_labels[i],
                        "z": scheme.z_labels[k],
                        "got": Fraction(got, joint.den),
                        "expected": Fraction(q_z * b, joint.den * joint.e),
                    },
                )
    return _PASS


def verify_scheme(scheme: Scheme, inst: Instance) -> VerificationReport:
    """Run all three checks; the report's marginals are built on first read."""
    return VerificationReport(
        consistency=check_consistency(scheme, inst),
        informativeness=check_informativeness(scheme),
        secrecy=check_secrecy(scheme),
        scheme=scheme,
    )


def _signals_at(scheme: Scheme, x_index: int, y_index: int) -> list[int]:
    """phi(x, y) as ascending signal indices; the cell must exist."""
    if not (0 <= x_index < scheme.n and 0 <= y_index < scheme.m):
        raise DimensionMismatchError(
            f"no cell ({x_index}, {y_index}) in a {scheme.n}x{scheme.m} scheme"
        )
    return scheme._joint.phi[x_index].get(y_index, [])


def support_signals(scheme: Scheme, x_index: int, y_index: int) -> frozenset[int]:
    """phi(x, y): indices of signals that pair state row ``x_index`` with
    column ``y_index``.  Empty for pairs the scheme never produces."""
    return frozenset(_signals_at(scheme, x_index, y_index))


def decode_table(scheme: Scheme) -> Mapping[tuple[int, int], int]:
    """The receiver's lookup: (y column, z index) -> state row.

    Defined only for schemes passing informativeness (otherwise some cell
    would be ambiguous); keys exist exactly for the (y, z) pairs with
    positive probability, so a missing key means off-support.  The table
    is built once per scheme and returned as a read-only mapping.
    """
    info = check_informativeness(scheme)
    if not info.ok:
        raise UnverifiedSchemeError(
            f"decode table undefined: scheme fails informativeness at {info.witness}"
        )
    return scheme._joint.table


@dataclass(frozen=True)
class NecessityAudit:
    """Recomputed proof obligations tying a verified scheme to the column
    condition.

    ``column_mass[j]`` is, for each supported column y_j, the total signal
    mass sum_x sum_{z in phi(x, y_j)} Q_Z(z) — the quantity that cannot
    exceed one (None for unsupported columns).
    """

    ok: bool
    triple_bound_ok: bool
    disjoint_ok: bool
    column_mass_ok: bool
    column_mass: tuple[Optional[Fraction], ...]
    witness: Optional[Witness] = None


def necessity_audit(scheme: Scheme) -> NecessityAudit:
    """Audit the three facts a verified scheme certifies (see class doc).

    Meant for schemes that already pass the three checks; it still runs on
    anything and reports whichever obligation breaks first.
    """
    joint = scheme._joint
    phi, a, b = joint.phi, joint.a, joint.b
    witness: Optional[Witness] = None

    # Numerators over joint.den throughout, and only over the cells phi
    # holds.  Q_XZ marginalised over y from row i's cells, then the bound,
    # columns ascending.
    triple_ok = True
    for i, row in enumerate(phi):
        q_xz: dict[int, int] = {}
        for k in (k for ks in row.values() for k in ks):
            q_xz[k] = q_xz.get(k, 0) + a[k] * b[i]
        for j in sorted(row):
            for k in row[j]:
                if a[k] * b[i] > q_xz[k]:
                    triple_ok = False
                    witness = witness or {
                        "law": "triple_bound",
                        "x": scheme.x_labels[i],
                        "y": scheme.y_labels[j],
                        "z": scheme.z_labels[k],
                    }

    # Each supported column's cells, states ascending.  Weights and masses
    # are positive, so a column is supported exactly when some cell reaches it.
    columns: dict[int, list[tuple[int, list[int]]]] = {}
    for i, row in enumerate(phi):
        for j, ks in row.items():
            columns.setdefault(j, []).append((i, ks))

    disjoint_ok = True
    for j in sorted(columns):
        seen: dict[int, int] = {}
        for i, ks in columns[j]:
            for k in ks:
                if k in seen and seen[k] != i:
                    disjoint_ok = False
                    witness = witness or {
                        "law": "disjoint_support",
                        "y": scheme.y_labels[j],
                        "z": scheme.z_labels[k],
                        "xs": (
                            scheme.x_labels[seen[k]],
                            scheme.x_labels[i],
                        ),
                    }
                seen.setdefault(k, i)

    column_mass: list[Optional[Fraction]] = []
    mass_ok = True
    for j in range(scheme.m):
        if j not in columns:
            column_mass.append(None)
            continue
        total = sum(joint.q_z[k] for _, ks in columns[j] for k in ks)
        column_mass.append(Fraction(total, joint.den))
        if total > joint.den:
            mass_ok = False
            witness = witness or {
                "law": "column_mass",
                "y": scheme.y_labels[j],
                "mass": column_mass[j],
            }

    return NecessityAudit(
        ok=triple_ok and disjoint_ok and mass_ok,
        triple_bound_ok=triple_ok,
        disjoint_ok=disjoint_ok,
        column_mass_ok=mass_ok,
        column_mass=tuple(column_mass),
        witness=witness,
    )


@dataclass(frozen=True)
class OracleReport:
    """Brute-force verdict; ``support`` lists (weight, permutation) pairs of
    a witnessing mixture when feasible, None otherwise: support injections
    with the free rows n..m-1 filled by the unused columns, ascending."""

    feasible: bool
    support: Optional[tuple[tuple[Fraction, tuple[int, ...]], ...]]


def feasibility_oracle(inst: Instance) -> OracleReport:
    """Decide scheme existence by exact LP over support injections — no
    extension, no matchings, no decomposition.

    A scheme exists iff some mixture of column permutations reproduces the
    conditional rows of the supported states: one 0/1 row per (state,
    column), one variable >= 0 per permutation.  A permutation sending a
    state to a zero cell has a 1 in a row whose right-hand side is 0, so it
    is 0 in every feasible solution; dropping those empties the zero rows.
    One variable per injection of the states into their supports and one
    row per supported cell thus keep the same feasible mixtures, and no
    injection (Hall fails on the support) means no scheme, with no solve.
    Refuses m above ``_ORACLE_MAX_M`` with :class:`CapExceededError`.
    """
    if inst.m > _ORACLE_MAX_M:
        raise CapExceededError(f"oracle caps at m={_ORACLE_MAX_M} columns; got {inst.m}")
    cm = conditional_y_given_x(inst)
    supports = [[j for j in range(cm.m) if cm.entries[i][j]] for i in range(cm.n)]
    injections = [()]
    for cols in supports:
        injections = [inj + (j,) for inj in injections for j in cols if j not in inj]
    cells = [(i, j) for i, cols in enumerate(supports) for j in cols]
    solution = injections and feasible_nonnegative_solution(
        [[1 if inj[i] == j else 0 for inj in injections] for i, j in cells],
        [cm.entries[i][j] for i, j in cells],
    )
    if not solution:
        return OracleReport(feasible=False, support=None)
    return OracleReport(feasible=True, support=tuple(
        (weight, inj + tuple(j for j in range(cm.m) if j not in inj))
        for inj, weight in zip(injections, solution) if weight > 0
    ))
