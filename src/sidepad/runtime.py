"""Seeded sampling, encoding, decoding, and Monte Carlo checking.

Randomness contract
-------------------
:class:`RandomSource` wraps the stdlib Mersenne twister (``random.Random``,
a twisted feedback shift-register generator) seeded with an unsigned
64-bit integer.  Every uniform integer below a bound B is drawn by one
rule, :meth:`RandomSource.randbelow`: with k = (B - 1).bit_length(), the
fewest bits that span [0, B), take ``getrandbits(k)`` and draw again
while the value is >= B.  CPython's ``randrange(B)`` applies the same
rule except at a power of two, where it reads one bit more and draws
again half the time; this rule reads k bits once there, and B = 1 reads
``getrandbits(0)``, which is 0 and takes nothing from the generator.
The contract rests only on seeding and ``getrandbits``, not on
``randrange``'s implementation, which Python does not promise to keep.
Sub-streams are derived by hashing, not by jumping: stream ``index`` of
seed ``s`` reseeds a fresh generator with the first 8 bytes (big endian)
of SHA-256 of the ASCII string ``"{s}/{index}"``.  A sharded simulation
draws its samples on the fixed schedule "shard k performs
ceil-or-floor(n/shards) draws from sub-stream k", so any
(seed, n, shards) triple reproduces bit-identical results; a shard with
no draws is never seeded, so surplus shards cost nothing.

``sample_world`` and ``encode`` draw in two steps: a world cell (x, y)
from P_XY, then, only when phi(x, y) holds several signals, one of them.
``simulate`` draws each sample once, from one table over the (world cell,
signal) pairs whose masses are the product of those two steps.  So a
deterministic scheme's ``simulate`` reads exactly the integers a loop of
``sample_world`` and ``encode`` reads, but a randomized scheme's does not:
its outputs are those of the one-draw rule, not of that loop.

Exactness contract
------------------
Every discrete draw is an exact inverse transform, and one integer rule
builds every table: the masses are given as integer numerators a_k over
one common denominator; with S their sum and G their gcd, one uniform
integer below L = S / G, drawn by the rule above, is bisected into the
running sums of a_k / G.  That is the table of the Fraction masses
a_k / S over the lcm of their denominators.  Each sampler answers that
bisection by lookup: with k the bit length of L - 1, ``table[u]`` for every
u < 2**k is the index bisection gives when u < L and -1 otherwise, so a
draw reads ``table[getrandbits(k)]`` and reads again on -1.  That is the
same integer, in the same order, mapped to the same index as the rule
followed by bisection.  Up to 16 bits the table is a list of 2**k
entries; a wider one bisects on lookup.  ``sample_world``'s table passes
P_XY's numerators over their lcm (so G = 1 and L is that lcm); an
encoder cell passes its signals' weight numerators, giving the masses
alpha_k / sum(alpha); ``simulate``'s table passes, for each pair
(cell, k), a numerator of P_XY(cell) * alpha_k / sum(alpha over the
cell's signals), all over one denominator (see ``_slot_sampler``).  No
float takes part in a draw: ``simulate`` tallies integer counts per
(world cell, signal) pair, and floats appear only in the *report* of
empirical frequencies.  A deterministic encoder cell and a point mass
consume no randomness; every other draw consumes k bits per read, and a
``simulate`` sample takes one draw.  A limit that is a power of two
never reads twice.  An
instance keeps the sampler of its joint for ``sample_world``, and a
scheme's compiled joint (``Scheme._joint``, read here directly) keeps
each cell's encoder distribution for ``encode``.  ``simulate`` builds
its table from the instance rows once per call, and builds neither that
world sampler nor an encoder.  ``simulate`` refuses schemes through
``verify_scheme``, whose report builds its marginals only on first read.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from math import gcd, lcm
from typing import Optional

from .construction import Scheme
from .errors import (
    DimensionMismatchError,
    InputError,
    OffSupportError,
    UnverifiedSchemeError,
)
from .model import Instance, _Sampler
from .verification import (
    LAWS,
    _scheme_rows,
    _signals_at,
    decode_table,
    verify_scheme,
)

_SEED_LIMIT = 2**64


class RandomSource:
    """Deterministic pseudo-randomness with derivable sub-streams."""

    def __init__(self, seed: int):
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise InputError(f"seed must be an integer, got {seed!r}")
        if not 0 <= seed < _SEED_LIMIT:
            raise InputError(f"seed must be in [0, 2^64), got {seed}")
        self._seed = seed
        self._getrandbits = random.Random(seed).getrandbits

    @property
    def seed(self) -> int:
        return self._seed

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound) by the draw rule: with
        k = (bound - 1).bit_length(), draw getrandbits(k) until it is below
        bound.  That is CPython's ``randrange(bound)`` except at a power of
        two, where it reads k bits once; ``randbelow(1)`` reads nothing."""
        if bound < 1:
            raise InputError(f"bound must be >= 1, got {bound}")
        k = (bound - 1).bit_length()
        u = self._getrandbits(k)
        while u >= bound:
            u = self._getrandbits(k)
        return u

    def substream(self, index: int) -> "RandomSource":
        """Independent stream number ``index`` derived from this seed."""
        if index < 0:
            raise InputError(f"substream index must be >= 0, got {index}")
        digest = hashlib.sha256(f"{self._seed}/{index}".encode("ascii")).digest()
        return RandomSource(int.from_bytes(digest[:8], "big"))


def sample_world(inst: Instance, rng: RandomSource) -> tuple[int, int]:
    """Draw one (x row, y column) pair from the instance's joint, exactly."""
    return inst._world.draw(rng)  # type: ignore[return-value]


def _off_support(scheme: Scheme, x_index: int, y_index: int) -> OffSupportError:
    """The refusal for a cell (state row, column) the scheme never emits."""
    return OffSupportError(
        f"pair ({scheme.x_labels[x_index]}, {scheme.y_labels[y_index]}) "
        "has zero probability under the scheme"
    )


def _conditional_signals(scheme: Scheme, x_index: int, y_index: int) -> int | _Sampler:
    """Encoder distribution for one supported pair: a bare signal index when
    deterministic, an exact sampler otherwise.  Memoised per cell."""
    memo = scheme._joint.encoders
    choice = memo.get((x_index, y_index))
    if choice is not None:
        return choice
    ks = _signals_at(scheme, x_index, y_index)
    if not ks:
        raise _off_support(scheme, x_index, y_index)
    if len(ks) == 1:
        choice = ks[0]
    else:
        a = scheme._joint.a
        choice = _Sampler(ks, [a[k] for k in ks])
    memo[x_index, y_index] = choice
    return choice


def _slot_sampler(scheme: Scheme, inst: Instance) -> _Sampler:
    """Exact sampler of ``simulate``'s slots (i, j, k): scheme state row i,
    column j, signal k, row-major over the positive cells of P_XY, each
    cell's signals ascending.  Slot (i, j, k) has mass
    P_XY(x, y) * alpha_k / A_xy, with A_xy the weights' sum over phi(x, y).
    As integers, with row x ``nums / d`` (``Instance._rows``) and A A_xy's
    numerator: c = nums[j] and T = d * A are divided by their gcd g, and
    the slot weighs (c / g) * (M / (T / g)) * a_k, with a_k alpha_k's
    numerator and M the lcm of T / g over the cells.  The masses are those
    of a world draw followed by an encoder draw, so a scheme whose every
    cell has one signal gets the world's own thresholds.  The first
    instance cell the scheme never emits raises :class:`OffSupportError`."""
    phi, a = scheme._joint.phi, scheme._joint.a
    cells = []
    for i, x in enumerate(_scheme_rows(scheme, inst)):
        nums, d = inst._rows[x]
        for j, c in enumerate(nums):
            if c:
                ks = phi[i].get(j)
                if not ks:
                    raise _off_support(scheme, i, j)
                T = d * sum(a[k] for k in ks)
                g = gcd(c, T)
                cells.append((i, j, ks, c // g, T // g))
    M = lcm(*(T for *_, T in cells))
    slots, weights = [], []
    for i, j, ks, c, T in cells:
        scale = c * (M // T)
        for k in ks:
            slots.append((i, j, k))
            weights.append(scale * a[k])
    return _Sampler(slots, weights)


def encode(scheme: Scheme, x_index: int, y_index: int, rng: RandomSource) -> int:
    """Draw a signal index for state row ``x_index`` and column ``y_index``
    with the scheme's exact conditional probabilities.

    Raises :class:`OffSupportError` for pairs the scheme gives zero mass.
    A deterministic cell returns without consuming randomness.
    """
    choice = _conditional_signals(scheme, x_index, y_index)
    if isinstance(choice, int):
        return choice
    return choice.draw(rng)  # type: ignore[return-value]


def decode(scheme: Scheme, y_index: int, z_index: int) -> int:
    """The receiver's map: (column, signal) to the unique state row.

    Raises :class:`OffSupportError` when the pair has zero probability
    (e.g. the signal's assignment sends only padding rows to that column).
    """
    if not (0 <= y_index < scheme.m and 0 <= z_index < scheme.p):
        raise DimensionMismatchError(
            f"no pair (y={y_index}, z={z_index}) in a "
            f"{scheme.m}-column, {scheme.p}-signal scheme"
        )
    try:
        return decode_table(scheme)[(y_index, z_index)]
    except KeyError:
        raise OffSupportError(
            f"pair ({scheme.y_labels[y_index]}, {scheme.z_labels[z_index]}) "
            "has zero probability under the scheme"
        ) from None


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo summary.

    ``decode_success`` is the fraction of samples whose emitted signal
    decoded back to the sampled state (vacuously 1.0 for zero samples).
    ``tv_secrecy[k]`` is the total-variation distance between the empirical
    state distribution among samples that emitted signal k and the exact
    P_X — None when signal k was observed fewer than ``min_count`` times.
    ``max_tv`` is the largest defined entry (0.0 when none is defined).
    """

    samples: int
    decode_success: float
    empirical_qz: tuple[float, ...]
    tv_secrecy: tuple[Optional[float], ...]
    max_tv: float
    min_count: int
    shards: int
    seed: int


def simulate(
    scheme: Scheme,
    inst: Instance,
    n_samples: int,
    seed: int,
    *,
    shards: int = 1,
    min_count: int = 1000,
    allow_unverified: bool = False,
) -> SimReport:
    """Run the whole loop end to end, ``n_samples`` times: sample (x, y)
    from the instance, encode, decode, and tally signal frequencies and
    per-signal state frequencies.  Each sample is one draw of a (world
    cell, signal) pair from their joint law (``_slot_sampler``), counted;
    counts and decode successes are read off those tallies, a pair
    decoding when its signal sends no lower state row to its column.

    The scheme is verified against the instance first and refused with
    :class:`UnverifiedSchemeError` if any law fails, because statistics
    from a broken scheme would be meaningless; ``allow_unverified=True``
    skips the value checks (shape and labels must still match) for
    deliberately poking at broken schemes.
    """
    if n_samples < 0:
        raise InputError(f"sample count must be >= 0, got {n_samples}")
    if shards < 1:
        raise InputError(f"shard count must be >= 1, got {shards}")
    if min_count < 1:
        raise InputError(f"min_count must be >= 1, got {min_count}")

    if not allow_unverified:
        report = verify_scheme(scheme, inst)
        failed = [law for law in LAWS if not getattr(report, law).ok]
        if failed:
            raise UnverifiedSchemeError(
                f"refusing to simulate: scheme fails {', '.join(failed)} "
                "(pass allow_unverified=True to force)"
            )

    slots = _slot_sampler(scheme, inst)
    tally = [0] * len(slots.values)
    bits, table = slots.bits, slots.table
    base = RandomSource(seed)
    quota, remainder = divmod(n_samples, shards)
    for shard in range(min(shards, n_samples)):
        getrandbits = base.substream(shard)._getrandbits
        for _ in range(quota + (1 if shard < remainder else 0)):
            # The rule RandomSource.randbelow defines, read through the
            # slot table (-1: draw again).
            s = table[getrandbits(bits)]
            while s < 0:
                s = table[getrandbits(bits)]
            tally[s] += 1

    # A sample decodes when the lowest state row that its signal sends to its
    # column is its own; a broken scheme may send several there.
    inverse = scheme._joint.inverse
    counts_z = [0] * scheme.p
    counts_xz = [[0] * scheme.p for _ in range(scheme.n)]
    successes = 0
    for (i, j, k), count in zip(slots.values, tally):
        if count:
            counts_z[k] += count
            counts_xz[i][k] += count
            if inverse[k][j][0] == i:
                successes += count

    px = [float(v) for v in scheme.px]
    tv: list[Optional[float]] = []
    for k in range(scheme.p):
        if counts_z[k] < min_count:
            tv.append(None)
            continue
        distance = sum(
            abs(counts_xz[i][k] / counts_z[k] - px[i]) for i in range(scheme.n)
        )
        tv.append(distance / 2)
    defined = [d for d in tv if d is not None]
    return SimReport(
        samples=n_samples,
        decode_success=(successes / n_samples) if n_samples else 1.0,
        empirical_qz=tuple(
            (c / n_samples) if n_samples else 0.0 for c in counts_z
        ),
        tv_secrecy=tuple(tv),
        max_tv=max(defined, default=0.0),
        min_count=min_count,
        shards=shards,
        seed=seed,
    )
