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
tallies its samples on the fixed schedule "shard k tallies
ceil-or-floor(n/shards) samples from sub-stream k", so any
(seed, n, shards) triple reproduces bit-identical results; a shard with
no samples is never seeded, so surplus shards cost nothing, and
``simulate`` seeds no generator for its own seed, only its shards'.

``sample_world`` and ``encode`` draw in two steps: a world cell (x, y)
from P_XY, then, only when phi(x, y) holds several signals, one of them.
``simulate`` samples one table over the (world cell, signal) pairs, its
slots, whose masses are the product of those two steps, and it does not
draw its samples one at a time: it tallies a shard's count by halving
it down the table's binary tree (Knuth and Yao's discrete-distribution
tree, applied to counts).  The slot table is two bits wider than the
point samplers' tables below where its limit L is not a power of two:
with bits the bit length of L - 1 plus 2 and scale = 2**bits // L, slot
s spans scale times its threshold run, and only the last 2**bits mod L
entries, fewer than L and so under a quarter of the table, are -1 (a
power-of-two L keeps its table, scale 1, with no -1).  With T that
table and K slots, a node (lo, d, c) holds c samples whose index u is
uniform on [lo, lo + 2**d).  The walk starts at the root (0, bits, c),
keeps the node it is on in locals, and stacks the right halves it has
still to walk:

- a = T[lo] equals b = T[lo + 2**d - 1]: the node is pure.  Its c
  samples are added to slot a, or, when a is -1 (all rejected), the walk
  goes on at (0, bits, c) to draw them afresh.
- Otherwise let span = (b if b >= 0 else K) - a + 1, the slots the node
  touches with the reject region counted as one.  When c > d * span the
  node splits: left is the popcount of c fresh bits, Binomial(c, 1/2),
  read as one ``getrandbits(c)`` up to 2**20 bits and in chunks of 2**20
  past it (a multiple of 32, so the chunks read what one call reads).  A
  half whose first and last entries name one slot reads nothing, so its
  count is added to that slot at the split.  The walk goes on in place
  to the left half (lo, d - 1, left) and pushes the right half
  (lo + 2**(d-1), d - 1, c - left), or goes straight to the right half
  when the left one is empty or pure.  A half that is all -1 is not
  pure in this sense and keeps its place in that depth-first order.
- Otherwise the node is a leaf: each of its c samples is one read at an
  offset, ``T[lo + getrandbits(d)]``, with no copy of the window, and on
  -1 ``T[getrandbits(bits)]`` again until it is not, before the next
  sample: the draw rule's redraw, from the full range.

Counting a pure half at its split and walking left halves in place only
save loop turns: the walk reads the same widths, in the same order, as
one that pushes both halves of every split and pops each node.

A sample's index has i.i.d. fair bits, so a node's count splits
Binomial(c, 1/2) and each half's samples stay uniform on that half, and
a rejected sample is replaced by an independent full-range draw: the
tally has exactly the multinomial law of c independent draws (slot s
holds scale times its threshold run of the scale * L accepted indices,
so its mass is that of the narrow table).  It reads what c draws of
``getrandbits(bits)`` below scale * L read only when no node splits,
that is when c <= bits * span of the root.  Its outputs are those of
the one-table walk, not of a loop of ``sample_world`` and ``encode``,
which keep the draw rule and its narrow tables.

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
followed by bisection.  ``simulate``'s slot table takes the two spare
bits described above, and u // scale is bisected in place of u.  Up to
16 bits a table is a list of 2**k entries; a wider one bisects on
lookup.  ``sample_world``'s table passes P_XY's numerators over their lcm (so G = 1 and L is that lcm); an
encoder cell passes its signals' weight numerators, giving the masses
alpha_k / sum(alpha); ``simulate``'s table passes, for each pair
(cell, k) of a verified scheme, the numerator of Q(x, y, z_k) =
P_X(x) * alpha_k from the compiled joint (``_Joint.slots``), which there
equals P_XY(cell) * alpha_k / sum(alpha over the cell's signals).  No
float takes part in a draw or a tally: ``simulate`` counts integers per
(world cell, signal) pair, and floats appear only in the *report* of
empirical frequencies.  A deterministic encoder cell and a point mass
consume no randomness; every other draw consumes k bits per read, and a
limit that is a power of two never reads twice.  ``simulate`` reads per
node of its walk: one read per 2**20 bits of a split's popcount, one per
sample at a leaf plus its redraws (under a third of a read per sample,
in expectation, with the spare bits), none at a pure node.  An instance
keeps the sampler of its joint for ``sample_world``, and a
scheme's compiled joint (``Scheme._joint``, read here directly) keeps
each cell's encoder distribution for ``encode`` and, once built,
``simulate``'s table; ``simulate`` builds neither that world sampler nor
an encoder.  ``simulate`` refuses schemes through ``verify_scheme``,
which keeps a pair's verdicts on the joint, so a pair its caller has
just verified is not checked again.  Only ``allow_unverified`` builds
the table from the instance rows (``_slot_sampler``), on every call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Optional

from .construction import Scheme
from .errors import (
    DimensionMismatchError,
    InputError,
    OffSupportError,
    UnverifiedSchemeError,
)
from .model import Instance, _SLOT_SPARE_BITS, _Sampler, _numerators
from .verification import (
    LAWS,
    _scheme_rows,
    _signals_at,
    decode_table,
    verify_scheme,
)

_SEED_LIMIT = 2**64


def _check_count(value, what: str, least: int) -> None:
    """Refuse, with InputError, anything but an int of at least ``least``:
    a bool or a float is no count."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{what} must be >= {least}, got {value}")


class RandomSource:
    """Deterministic pseudo-randomness with derivable sub-streams."""

    def __init__(self, seed: int):
        _check_seed(seed)
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
        _check_count(index, "substream index", 0)
        digest = hashlib.sha256(f"{self._seed}/{index}".encode("ascii")).digest()
        return RandomSource(int.from_bytes(digest[:8], "big"))

    @classmethod
    def _unseeded(cls, seed: int) -> "RandomSource":
        """A source that only derives sub-streams: it seeds no generator."""
        _check_seed(seed)
        source = cls.__new__(cls)
        source._seed = seed
        return source


def _check_seed(seed) -> None:
    """Refuse, with InputError, anything but an int in [0, 2^64)."""
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InputError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < _SEED_LIMIT:
        raise InputError(f"seed must be in [0, 2^64), got {seed}")


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
    """Exact sampler of the slots (i, j, k) of ``simulate`` with
    ``allow_unverified``, whose scheme's joint need not be P_XY: scheme
    state row i, column j, signal k, row-major over the positive cells of
    P_XY, each cell's signals ascending.  For a verified scheme it equals
    ``_Joint.slots``, which ``simulate`` reads instead.  Slot (i, j, k)
    has mass P_XY(x, y) * alpha_k / A_xy, with A_xy the weights' sum over
    phi(x, y): the masses of a world draw followed by an encoder draw, so
    a scheme whose every cell has one signal gets the world's own
    thresholds.  The first instance cell the scheme never emits raises
    :class:`OffSupportError`."""
    phi, a = scheme._joint.phi, scheme._joint.a
    slots, masses = [], []
    for i, x in enumerate(_scheme_rows(scheme, inst)):
        nums, d = inst._rows[x]
        for j, c in enumerate(nums):
            if c:
                ks = phi[i].get(j)
                if not ks:
                    raise _off_support(scheme, i, j)
                T = d * sum(a[k] for k in ks)
                for k in ks:
                    slots.append((i, j, k))
                    masses.append(Fraction(c * a[k], T))
    return _Sampler(slots, _numerators(masses)[0], _SLOT_SPARE_BITS)


# A split's popcount reads its bits in chunks of this many, a multiple of 32
# so that chunking changes no output: getrandbits(32a) then getrandbits(k)
# reads the same words, with the same bits, as getrandbits(32a + k).  It
# bounds the memory a split takes, whatever its count.
_CHUNK_BITS = 1 << 20


def _popcount(getrandbits, count: int) -> int:
    """The number of ones among ``count`` fresh bits, Binomial(count, 1/2),
    read ``_CHUNK_BITS`` at a time."""
    ones = 0
    while count > _CHUNK_BITS:
        ones += getrandbits(_CHUNK_BITS).bit_count()
        count -= _CHUNK_BITS
    return ones + getrandbits(count).bit_count()


def _tally(slots: _Sampler, count: int, getrandbits, tally: list[int]) -> None:
    """Add to ``tally`` the slot counts of ``count`` draws from ``slots``,
    with ``getrandbits`` the only source, by halving counts down the table:
    the module docstring's walk."""
    bits, table = slots.bits, slots.table
    rejects = len(slots.values)  # the reject region's place in a span
    stack = []
    lo, d, c = 0, bits, count
    while True:
        a, b = table[lo], table[lo + (1 << d) - 1]
        if a == b:
            if a < 0:
                lo, d = 0, bits  # all rejected: draw them afresh
                continue
            tally[a] += c
        elif c > d * ((b if b >= 0 else rejects) - a + 1):
            left = getrandbits(c).bit_count() if c <= _CHUNK_BITS else _popcount(getrandbits, c)
            right = c - left
            d -= 1
            mid = lo + (1 << d)
            # A pure half reads no bits, so it is counted at the split.  An
            # all-rejected half is walked in its depth-first turn: its
            # redraw reads after every node to its left.
            if table[mid - 1] == a:
                tally[a] += left
                left = 0
            if table[mid] == b >= 0:
                tally[b] += right
                right = 0
            if left:
                if right:
                    stack.append((mid, d, right))
                c = left
                continue
            if right:
                lo, c = mid, right
                continue
        else:
            # A leaf: one read per sample, a rejected one redrawn over the
            # whole range by the draw rule.
            for u in map(getrandbits, repeat(d, c)):
                s = table[lo + u]
                while s < 0:
                    s = table[getrandbits(bits)]
                tally[s] += 1
        if not stack:
            return
        lo, d, c = stack.pop()


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
    per-signal state frequencies.  Each shard's samples are (world cell,
    signal) pairs from their joint law (``_Joint.slots``), tallied with
    the exact multinomial law of that many independent draws by halving
    the count down the slot table (the module docstring's walk: a
    popcount per node that splits, one read per sample at a leaf); counts
    and decode successes are read off those tallies, a pair decoding when
    its signal sends no lower state row to its column.

    The scheme is verified against the instance first and refused with
    :class:`UnverifiedSchemeError` if any law fails, because statistics
    from a broken scheme would be meaningless; ``allow_unverified=True``
    skips the value checks (shape and labels must still match) for
    deliberately poking at broken schemes.
    """
    _check_count(n_samples, "sample count", 0)
    _check_count(shards, "shard count", 1)
    _check_count(min_count, "min_count", 1)

    if not allow_unverified:
        report = verify_scheme(scheme, inst)
        failed = [law for law in LAWS if not getattr(report, law).ok]
        if failed:
            raise UnverifiedSchemeError(
                f"refusing to simulate: scheme fails {', '.join(failed)} "
                "(pass allow_unverified=True to force)"
            )

    slots = _slot_sampler(scheme, inst) if allow_unverified else scheme._joint.slots
    tally = [0] * len(slots.values)
    base = RandomSource._unseeded(seed)
    quota, remainder = divmod(n_samples, shards)
    for shard in range(min(shards, n_samples)):
        _tally(slots, quota + (shard < remainder), base.substream(shard)._getrandbits, tally)

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
