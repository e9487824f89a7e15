"""Canonical fixture instances and the deterministic test corpus.

The corpus is regenerated identically on every run: a fixed-seed PRNG
fills integer grids k/D (D <= 12, so every reduced entry denominator
stays <= 12), layered over structured families — uniform independent
shapes, point masses, permutation conditionals, and mixtures of
permutation matrices (feasible by construction).  Shapes stay within
n, m <= 4 and total mass is exactly 1 everywhere.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import sidepad as sp

CORPUS_SEED = 20260814
CORPUS_TARGET = 1050
DENOMINATORS = (2, 3, 4, 6, 8, 12)

# Pinned seeds for every statistical assertion in the suite.
PINNED_SEEDS = (202608, 710, 8093)


def otp2() -> sp.Instance:
    """Uniform independent 2x2 — the XOR pad setting."""
    return sp.make_instance(
        ["x1", "x2"], ["y1", "y2"], [["1/4", "1/4"], ["1/4", "1/4"]]
    )


def corr23() -> sp.Instance:
    """The worked 2x3 example: correlated pair, two signals suffice."""
    return sp.make_instance(
        ["x1", "x2"],
        ["y1", "y2", "y3"],
        [["1/4", "1/4", "0"], ["0", "1/4", "1/4"]],
    )


def mixed23() -> sp.Instance:
    """Feasible, but provably without a deterministic encoder."""
    return sp.instance_from_conditional(
        ["1/2", "1/2"], [["1/2", "1/2", "0"], ["0", "1/3", "2/3"]]
    )


def det22() -> sp.Instance:
    """Square instance whose scheme is deterministic: (2/3 id, 1/3 swap)."""
    return sp.instance_from_conditional(
        ["1/2", "1/2"], [["2/3", "1/3"], ["1/3", "2/3"]]
    )


def skew22() -> sp.Instance:
    """Independent with a skewed Y marginal: column y1 is over-claimed."""
    return sp.make_instance(
        ["x1", "x2"], ["y1", "y2"], [["3/8", "1/8"], ["3/8", "1/8"]]
    )


def overfull47() -> sp.Instance:
    """Feasible 4x7 whose rows share one multiset of conditional values
    (one 1/4, six 1/8), but column y3 holds 1/4 twice while a row holds it
    once: no deterministic encoder."""
    rows = [
        ["1/32", "1/32", "1/16", "1/32", "1/32", "1/32", "1/32"],
        ["1/16", "1/32", "1/32", "1/32", "1/32", "1/32", "1/32"],
        ["1/32", "1/16", "1/32", "1/32", "1/32", "1/32", "1/32"],
        ["1/32", "1/32", "1/16", "1/32", "1/32", "1/32", "1/32"],
    ]
    return sp.make_instance(*_labels(4, 7), rows)


def uniform_independent(n: int, m: int) -> sp.Instance:
    mass = Fraction(1, n * m)
    return sp.make_instance(
        [f"x{i+1}" for i in range(n)],
        [f"y{j+1}" for j in range(m)],
        [[mass] * m for _ in range(n)],
    )


def _labels(n: int, m: int) -> tuple[list[str], list[str]]:
    return [f"x{i+1}" for i in range(n)], [f"y{j+1}" for j in range(m)]


def _point_mass(n: int, m: int) -> sp.Instance:
    grid = [[Fraction(0)] * m for _ in range(n)]
    grid[0][0] = Fraction(1)
    return sp.make_instance(*_labels(n, m), grid)


def _permutation_conditional(n: int) -> sp.Instance:
    grid = [
        [Fraction(1, n) if i == j else Fraction(0) for j in range(n)]
        for i in range(n)
    ]
    return sp.make_instance(*_labels(n, n), grid)


def _random_grid(rng: random.Random, n: int, m: int) -> sp.Instance:
    denominator = rng.choice(DENOMINATORS)
    counts = [0] * (n * m)
    for _ in range(denominator):
        counts[rng.randrange(n * m)] += 1
    grid = [
        [Fraction(counts[i * m + j], denominator) for j in range(m)]
        for i in range(n)
    ]
    return sp.make_instance(*_labels(n, m), grid)


# Weight vectors for permutation mixtures, keyed by the largest state count
# they may be combined with while keeping entry denominators (n * lcm of the
# weight denominators) at or below 12.
_WEIGHT_SETS = [
    ("1",),
    ("1/2", "1/2"),
    ("1/3", "2/3"),
    ("1/4", "3/4"),
    ("1/6", "5/6"),
    ("1/2", "1/3", "1/6"),
    ("1/3", "1/3", "1/3"),
    ("1/4", "1/4", "1/2"),
    ("1/12", "11/12"),
]


def _mixture(rng: random.Random, n: int, m: int) -> sp.Instance | None:
    """Uniform P_X mixed over random distinct permutations: always feasible."""
    from math import factorial, lcm

    eligible = []
    for tokens in _WEIGHT_SETS:
        weights = [sp.rat_parse(t) for t in tokens]
        if n * lcm(*(w.denominator for w in weights)) <= 12:
            if len(weights) <= factorial(m):
                eligible.append(weights)
    if n > m or not eligible:
        return None
    weights = rng.choice(eligible)
    perms = rng.sample(list(itertools.permutations(range(m))), len(weights))
    px = Fraction(1, n)
    grid = [
        [
            px
            * sum(
                (w for w, perm in zip(weights, perms) if perm[i] == j),
                Fraction(0),
            )
            for j in range(m)
        ]
        for i in range(n)
    ]
    return sp.make_instance(*_labels(n, m), grid)


def corpus() -> list[sp.Instance]:
    """The full deduplicated corpus, identical on every call."""
    rng = random.Random(CORPUS_SEED)
    out: list[sp.Instance] = []
    seen: set = set()

    def add(inst: sp.Instance | None) -> None:
        if inst is None:
            return
        key = (inst.x_labels, inst.y_labels, inst.p_xy)
        if key not in seen:
            seen.add(key)
            out.append(inst)

    for factory in (otp2, corr23, mixed23, det22, skew22):
        add(factory())
    for n, m in itertools.product(range(1, 5), repeat=2):
        if n * m <= 12:
            add(uniform_independent(n, m))
    for n, m in itertools.product(range(1, 4), repeat=2):
        add(_point_mass(n, m))
    for n in range(1, 5):
        add(_permutation_conditional(n))
    shapes = list(itertools.product(range(1, 5), repeat=2))
    for n, m in shapes:
        for _ in range(20):
            add(_mixture(rng, n, m))
    while len(out) < CORPUS_TARGET:
        for n, m in shapes:
            add(_random_grid(rng, n, m))
    return out
