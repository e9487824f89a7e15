"""Seeded sampling, encode/decode round-trips, Monte Carlo reports."""

import collections
import dataclasses
import gc
import hashlib
import itertools
import math
import pickle
import random
import re
import time
import types
import weakref
from bisect import bisect_right
from fractions import Fraction as F
from itertools import accumulate
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sidepad as sp
from corpus import (
    PINNED_SEEDS, corpus, corr23, det22, mixed23, otp2, uniform_independent,
)
from sidepad import runtime
from sidepad.model import _SLOT_SPARE_BITS, _TABLE_BITS, _Bisection, _Sampler
from sidepad.runtime import _conditional_signals, _slot_sampler
from sidepad.verification import _scheme_rows
from test_construction import reference_scheme
from test_joint import scrambled_schemes
from test_model import instances


def _fraction_table(pairs):
    """Reference inverse-transform table of a pmf given as (value, Fraction)
    pairs: zero masses dropped, the limit the lcm of the mass denominators
    and the thresholds the running sums of the masses' numerators over it."""
    items = [(value, mass) for value, mass in pairs if mass > 0]
    limit = lcm(*(mass.denominator for _, mass in items))
    thresholds = list(accumulate(
        mass.numerator * (limit // mass.denominator) for _, mass in items
    ))
    assert thresholds[-1] == limit
    return limit, thresholds, [value for value, _ in items]


def _assert_world_is_the_fraction_table(inst):
    want = _fraction_table(
        ((i, j), v) for i, row in enumerate(inst.p_xy) for j, v in enumerate(row)
    )
    world = inst._world
    assert (world.limit, world.thresholds, world.values) == want
    _assert_table_fits(world)


def _assert_table_fits(sampler):
    """A sampler reads the bits that span [0, limit): its table is a list of
    exactly 2**bits entries, at most 2**16, when that takes at most 16
    bits, and no list otherwise."""
    assert sampler.bits == (sampler.limit - 1).bit_length()
    if sampler.bits <= _TABLE_BITS:
        assert type(sampler.table) is list
        assert len(sampler.table) == 1 << sampler.bits <= 2**16
    else:
        assert not isinstance(sampler.table, list)


def _reference_draw(gen, bound):
    """The draw rule written out on a ``random.Random``: read
    getrandbits(k) with k = (bound - 1).bit_length(), again while the value
    is not below bound."""
    k = (bound - 1).bit_length()
    u = gen.getrandbits(k)
    while u >= bound:
        u = gen.getrandbits(k)
    return u


def _is_power_of_two(bound):
    return bound & (bound - 1) == 0


def _slot_width(limit):
    """simulate's slot table width written out from its rule: ``bits`` is
    the bit length of limit - 1, plus two spare bits unless the limit is a
    power of two, but at most 16 when that bit length is at most 16, and
    each threshold unit spans ``scale`` = 2**bits // limit entries."""
    bits = (limit - 1).bit_length()
    if not _is_power_of_two(limit):
        bits = bits + 2 if bits > 16 else min(bits + 2, 16)
    return bits, 2**bits // limit


def _bisect_draw(sampler, gen):
    """One draw by the rule the lookup table replaces: the integer below
    the limit, bisected into the thresholds."""
    u = _reference_draw(gen, sampler.limit)
    return sampler.values[bisect_right(sampler.thresholds, u)]


def _sampler_of_limit(limit, rng, spare=0):
    """A sampler whose weights sum to ``limit`` with gcd 1 (the first is 1),
    cut at up to 20 random points, with ``spare`` spare bits."""
    cuts = sorted({1, *(rng.randrange(1, limit) for _ in range(20))}) if limit > 1 else []
    weights = [b - a for a, b in zip([0, *cuts], [*cuts, limit])]
    return _Sampler(range(len(weights)), weights, spare)


@pytest.mark.parametrize("limit", [1, 2, 2**16 - 1, 2**16, 2**16 + 1])
def test_sampler_table_is_the_bisection_at_every_integer(limit):
    sampler = _sampler_of_limit(limit, random.Random(limit))
    assert sampler.limit == limit
    _assert_table_fits(sampler)
    span = range(1 << sampler.bits)
    assert [sampler.table[u] for u in span] == [
        bisect_right(sampler.thresholds, u) if u < limit else -1 for u in span
    ]
    a, b = sp.RandomSource(limit), random.Random(limit)
    assert [sampler.draw(a) for _ in range(200)] == [
        _bisect_draw(sampler, b) for _ in range(200)
    ]


@settings(max_examples=100, deadline=None)
@given(st.integers(2**32 + 1, 2**200), st.integers(0, 2**64 - 1))
def test_wide_sampler_table_is_the_bisection(limit, seed):
    # Past 2**32 one getrandbits call spans several 32-bit words.
    rng = random.Random(seed)
    sampler = _sampler_of_limit(limit, rng)
    _assert_table_fits(sampler)
    probes = [0, limit - 1, limit, (1 << sampler.bits) - 1]
    probes += [t + d for t in sampler.thresholds for d in (-1, 0, 1)]
    probes += [rng.getrandbits(sampler.bits) for _ in range(50)]
    for u in probes:
        if 0 <= u < 1 << sampler.bits:
            want = bisect_right(sampler.thresholds, u) if u < limit else -1
            assert sampler.table[u] == want
    a, b = sp.RandomSource(seed), random.Random(seed)
    assert [sampler.draw(a) for _ in range(50)] == [
        _bisect_draw(sampler, b) for _ in range(50)
    ]


def _assert_slot_layout(slots):
    """A slot table follows its width rule: slot s spans scale times its
    threshold run, in order, and the 2**bits mod limit entries past them,
    fewer than the limit and than a quarter of the table (half where fewer
    than two spare bits keep a table a list), are -1.  A list
    holds exactly 2**bits entries, at most 2**16; a wider table bisects.
    A power-of-two limit gets the table a sampler without spare bits
    builds."""
    limit, thresholds = slots.limit, slots.thresholds
    bits, scale = _slot_width(limit)
    assert (slots.bits, slots.scale) == (bits, scale)
    rejected = 2**bits - scale * limit
    assert rejected == 2**bits % limit
    spare = bits - (limit - 1).bit_length()
    assert rejected < limit and (4 if spare == 2 else 2) * rejected < 2**bits
    runs = list(enumerate(zip([0, *thresholds], thresholds)))
    table = slots.table
    if bits <= _TABLE_BITS:
        assert type(table) is list and len(table) == 2**bits <= 2**16
        for s, (a, b) in runs:
            assert table[scale * a:scale * b] == [s] * (scale * (b - a))
        assert table[scale * limit:] == [-1] * rejected
    else:
        assert not isinstance(table, list)
        for s, (a, b) in runs:
            assert table[scale * a] == table[scale * b - 1] == s
        assert table[2**bits - 1] == (-1 if rejected else len(thresholds) - 1)
        if rejected:
            assert table[scale * limit] == -1
    if _is_power_of_two(limit):
        plain = _Sampler(slots.values, [b - a for _, (a, b) in runs])
        assert scale == 1 and plain.bits == bits
        if bits <= _TABLE_BITS:
            assert plain.table == table


def test_slot_tables_follow_the_width_rule():
    # Every limit up to 4,096, and limits around and past the list cap.
    # Below 2**16 every table is a list: limits past 2**14 take one spare
    # bit, and limits past 2**15 none.
    rng = random.Random("slot layout")
    near = [2**14 - 1, 2**14 + 1, 2**15 - 1, 2**15 + 1, 65521, 2**16 - 1]
    past = [2**16, 2**16 + 1, 3 * 2**20, 2**33 + 1, 2**50 + 3]
    for limit in [*range(1, 4097), *near, *past]:
        slots = _sampler_of_limit(limit, rng, _SLOT_SPARE_BITS)
        _assert_slot_layout(slots)
        assert (type(slots.table) is list) == (limit <= 2**16)
    assert [_slot_width(limit)[0] for limit in near] == [16, 16, 16, 16, 16, 16]


def test_random_source_validates_seed():
    for bad in (-1, 2**64, 1.5, "7", True):
        with pytest.raises(sp.InputError):
            sp.RandomSource(bad)
    assert sp.RandomSource(2**64 - 1).seed == 2**64 - 1


def test_randbelow_range_and_reproducibility():
    rng = sp.RandomSource(42)
    draws = [rng.randbelow(100) for _ in range(5)]
    assert draws == [81, 14, 3, 94, 35]  # pins the documented generator
    assert all(0 <= d < 100 for d in draws)
    with pytest.raises(sp.InputError):
        rng.randbelow(0)


RANDRANGE_BOUNDS = (
    1, 2, 3,
    *(b for k in (31, 32, 63, 64) for b in (2**k - 1, 2**k, 2**k + 1)),
    10**50,
)


def _randrange_or_one_read(gen, bound):
    """CPython's randrange(bound), except at a power of two 2**k: one plain
    getrandbits(k) read (none at all for 1), with no redraw."""
    if _is_power_of_two(bound):
        return gen.getrandbits(bound.bit_length() - 1)
    return gen.randrange(bound)


def test_randbelow_draws_what_randrange_draws():
    # Below a bound that is not a power of two the draw rule is the one
    # CPython's randrange(bound) applies to getrandbits, so seeded outputs
    # recorded on randrange still hold there.  At a power of two the rule
    # reads its bits once, where randrange reads one bit more and redraws.
    for seed in (*range(40), 2**32 - 1, 2**32, 2**63, 2**64 - 1):
        for bound in RANDRANGE_BOUNDS:
            rng, want = sp.RandomSource(seed), random.Random(seed)
            assert [rng.randbelow(bound) for _ in range(200)] == [
                _randrange_or_one_read(want, bound) for _ in range(200)
            ]
        # Mixed bounds consume the generator's state the same way too.
        rng, want = sp.RandomSource(seed), random.Random(seed)
        bounds = RANDRANGE_BOUNDS * 14
        assert [rng.randbelow(b) for b in bounds] == [
            _randrange_or_one_read(want, b) for b in bounds
        ]
    assert {b for b in RANDRANGE_BOUNDS if _is_power_of_two(b)} == {
        1, 2, 2**31, 2**32, 2**63, 2**64
    }


@pytest.fixture
def reads(monkeypatch):
    """How many getrandbits reads the generators that ``sidepad.runtime``
    creates have made since the fixture wrapped them with a counter.  A
    read of 0 bits takes nothing from the generator and is not counted."""
    count = 0

    class CountingRandom(random.Random):
        def getrandbits(self, k):
            nonlocal count
            count += k > 0
            return super().getrandbits(k)

    monkeypatch.setattr(runtime, "random", types.SimpleNamespace(Random=CountingRandom))
    return lambda: count


@pytest.mark.parametrize("n, m, limit", [(2, 2, 4), (2, 8, 16), (4, 4, 16)])
def test_power_of_two_limits_read_once_per_draw(reads, n, m, limit):
    # Shannon pads whose cell count is a power of two: every table limit is
    # that count, so k bits span it exactly and no read is drawn again.
    inst = uniform_independent(n, m)
    scheme = sp.build_scheme(inst)
    assert _slot_sampler(scheme, inst).limit == inst._world.limit == limit
    # simulate's 1,667 or 1,666 samples per shard split every node of the
    # table's tree down to its single slots: one popcount read per inner
    # node, limit - 1 per shard, and no other read.  Two samples per shard
    # split nothing: one read each, never a full-range redraw.
    for n_samples, want in ((5000, 3 * (limit - 1)), (6, 6)):
        before = reads()
        sp.simulate(scheme, inst, n_samples, PINNED_SEEDS[0], shards=3)
        assert reads() - before == want
    rng = sp.RandomSource(PINNED_SEEDS[1])
    before = reads()
    for calls in range(1, 201):
        sp.sample_world(inst, rng)
        assert reads() - before == calls


def test_point_masses_consume_no_randomness(reads):
    gen = random.Random(PINNED_SEEDS[0])
    state = gen.getstate()
    assert gen.getrandbits(0) == 0 and gen.getstate() == state
    rng = sp.RandomSource(PINNED_SEEDS[0])
    assert [rng.randbelow(1) for _ in range(100)] == [0] * 100
    inst = sp.make_instance(["x1"], ["y1"], [["1"]])
    scheme = sp.build_scheme(inst)
    assert _slot_sampler(scheme, inst).limit == 1
    report = sp.simulate(scheme, inst, 1000, PINNED_SEEDS[1], shards=3)
    assert (report.decode_success, report.empirical_qz) == (1.0, (1.0,))
    assert [sp.sample_world(inst, rng) for _ in range(10)] == [(0, 0)] * 10
    assert reads() == 0


def test_substream_derivation_is_the_documented_hash():
    rng = sp.RandomSource(7)
    for index in (0, 3):
        expected = int.from_bytes(
            hashlib.sha256(f"7/{index}".encode()).digest()[:8], "big"
        )
        assert rng.substream(index).seed == expected
    assert rng.substream(0).seed != rng.substream(1).seed
    with pytest.raises(sp.InputError):
        rng.substream(-1)


@pytest.mark.parametrize("index", [1.5, True], ids=["float", "bool"])
def test_substream_refuses_a_non_integer_index(index):
    # The contract's "stream index of seed s" is defined for ints only:
    # 1.5 and True would otherwise seed from "1/1.5" and "1/True".
    with pytest.raises(sp.InputError, match="substream index must be an integer"):
        sp.RandomSource(1).substream(index)


def test_sample_world_point_mass():
    inst = sp.make_instance(["x1"], ["y1", "y2"], [["1", "0"]])
    rng = sp.RandomSource(0)
    assert [sp.sample_world(inst, rng) for _ in range(5)] == [(0, 0)] * 5


def test_sample_world_reproducible_sequence():
    inst = corr23()
    seq = [sp.sample_world(inst, sp.RandomSource(7)) for _ in range(1)]
    rng_a, rng_b = sp.RandomSource(7), sp.RandomSource(7)
    a = [sp.sample_world(inst, rng_a) for _ in range(6)]
    b = [sp.sample_world(inst, rng_b) for _ in range(6)]
    assert a == b
    limit, thresholds, cells = _fraction_table(
        ((i, j), v) for i, row in enumerate(inst.p_xy) for j, v in enumerate(row)
    )
    gen = random.Random(7)
    assert a == [
        cells[bisect_right(thresholds, _reference_draw(gen, limit))]
        for _ in range(6)
    ]
    assert a == [(0, 1), (1, 2), (0, 0), (0, 1), (1, 1), (0, 0)]
    assert seq[0] == a[0]


def test_sample_world_builds_its_sampler_once():
    inst, twin = corr23(), corr23()
    rng = sp.RandomSource(7)
    sp.sample_world(inst, rng)
    sampler = vars(inst)["_world"]
    sp.sample_world(inst, rng)
    assert vars(inst)["_world"] is sampler
    # The memo sits outside the dataclass fields.
    assert "_world" not in vars(twin)
    assert inst == twin and hash(inst) == hash(twin) and repr(inst) == repr(twin)


def test_simulate_builds_no_world_sampler():
    # simulate's slot table is read off the instance rows; only
    # sample_world builds the sampler that puts P_XY over one lcm.
    for factory in (otp2, corr23, mixed23):
        inst = factory()
        scheme = sp.build_scheme(factory())
        sp.simulate(scheme, inst, 100, 1)
        sp.simulate(scheme, inst, 100, 1, allow_unverified=True)
        assert "_world" not in vars(inst)
        sp.sample_world(inst, sp.RandomSource(1))
        assert "_world" in vars(inst)


def test_encode_memoises_each_cell_and_simulate_leaves_it():
    # simulate draws from its own (cell, signal) table and builds no
    # per-cell encoder, so only encode fills the memo.
    inst = mixed23()
    scheme = sp.build_scheme(inst)
    memo = scheme._joint.encoders
    sp.simulate(scheme, inst, 10, 1)
    assert memo == {}
    rng = sp.RandomSource(PINNED_SEEDS[0])
    sp.encode(scheme, 0, 0, rng)
    split = memo[(0, 0)]
    sp.encode(scheme, 0, 0, rng)
    assert memo[(0, 0)] is split
    sp.simulate(scheme, inst, 10, 1)
    assert set(memo) == {(0, 0)} and memo[(0, 0)] is split
    supported = {
        (i, j) for i in range(scheme.n) for j in range(scheme.m)
        if sp.support_signals(scheme, i, j)
    }
    for i, j in supported:
        sp.encode(scheme, i, j, rng)
    assert set(memo) == supported
    with pytest.raises(sp.OffSupportError):
        sp.encode(scheme, 0, 2, rng)
    assert (0, 2) not in memo


def test_world_sampler_equals_fraction_table_on_corpus():
    for inst in corpus():
        _assert_world_is_the_fraction_table(inst)


@given(instances())
def test_world_sampler_equals_fraction_table_on_random_instances(inst):
    _assert_world_is_the_fraction_table(inst)


def _simulate_digest(build):
    """SHA-256 of the reports' reprs over the schemes ``build`` makes for
    every feasible corpus instance, sharded and not, plus a twin with its
    first weight doubled (fails the laws).  Each report must equal the
    reference loop's first."""
    digest = hashlib.sha256()
    for inst in corpus():
        if not sp.check_feasible(inst).feasible:
            continue
        scheme = build(inst)
        broken = dataclasses.replace(
            scheme, weights=(scheme.weights[0] * 2, *scheme.weights[1:])
        )
        for target, shards, unverified in (
            (scheme, 1, False), (scheme, 3, False), (scheme, 2, True),
            (broken, 2, True),
        ):
            report = _assert_simulate_matches_reference(
                target, inst, 200, 11,
                shards=shards, min_count=20, allow_unverified=unverified,
            )
            digest.update(repr(report).encode())
    return digest.hexdigest()


def test_simulate_reports_are_pinned_on_corpus():
    # Recorded on the schemes of the dense-padding, from-scratch-matching
    # builder, tallying the (cell, signal) table, two bits wider where its
    # limit is not a power of two, by the halving walk.
    assert _simulate_digest(reference_scheme) == (
        "b3e786926f4dc19ac99b05d0a67ce75a108fafaf445e109659a2c64b0b9f0bf2"
    )


def test_simulate_reports_of_built_schemes_are_pinned_on_corpus():
    # Recorded with König's colouring wherever a deterministic scheme
    # exists, else sparse padding and max-bottleneck matching, tallying
    # the (cell, signal) table, two bits wider where its limit is not a
    # power of two but never past a list that fits (the doubled-weight
    # twins of three instances have limits 27300, 27720 and 39600), by the
    # halving walk.
    assert _simulate_digest(sp.build_scheme) == (
        "94eaf87ed8e8f694572b92ecb70c7e2a3e075a2e60dab079b021f7d8aca5b1e9"
    )


def _reference_slots(scheme, inst):
    """simulate's slots ((i, j, k), mass) in its order, built from the
    documents alone: the instance's positive cells row-major, each cell's
    signals ascending (read off the assignments), and the mass of slot
    (i, j, k) the Fraction P_XY(x, y) * w_k / (sum of w over phi(x, y)).
    Raises simulate's refusal at the first cell no signal covers."""
    slots = []
    for i, x in enumerate(_scheme_rows(scheme, inst)):
        for j, v in enumerate(inst.p_xy[x]):
            if v == 0:
                continue
            ks = [k for k, sigma in enumerate(scheme.assignments) if sigma[i] == j]
            if not ks:
                raise sp.OffSupportError(
                    f"pair ({scheme.x_labels[i]}, {scheme.y_labels[j]}) "
                    "has zero probability under the scheme"
                )
            total = sum((scheme.weights[k] for k in ks), F(0))
            slots += [((i, j, k), v * scheme.weights[k] / total) for k in ks]
    return slots


def _reference_tally(limit, thresholds, count, gen):
    """The slot counts of ``count`` samples by the walk, written out on a
    ``random.Random`` from its rule: over a table of 2**bits indices
    (``_slot_width``), a node (lo, d, c) holds c samples uniform on
    [lo, lo + 2**d), and index u's slot is the bisection of u // scale into
    the thresholds, or, from scale * limit on, the reject region, numbered
    as one slot past the last.  A pure node adds its count to its slot or,
    all rejected, starts again at the root; one whose count exceeds d times
    the slots it touches splits by the popcount of ``getrandbits(c)``, left
    half first; any other draws each sample by one read, redrawn by the
    draw rule below scale * limit when it is rejected."""
    bits, scale = _slot_width(limit)
    accepted = scale * limit
    rejected = len(thresholds)
    tally = [0] * rejected

    def slot(u):
        return bisect_right(thresholds, u // scale) if u < accepted else rejected

    def walk(lo, d, c):
        if c == 0:
            return
        a, b = slot(lo), slot(lo + 2**d - 1)
        if a == b == rejected:
            walk(0, bits, c)
        elif a == b:
            tally[a] += c
        elif c > d * (b - a + 1):
            left = gen.getrandbits(c).bit_count()
            walk(lo, d - 1, left)
            walk(lo + 2**(d - 1), d - 1, c - left)
        else:
            for _ in range(c):
                u = lo + gen.getrandbits(d)
                if u >= accepted:
                    u = _reference_draw(gen, accepted)
                tally[slot(u)] += 1

    walk(0, bits, count)
    return tally


def _reference_simulate(
    scheme, inst, n_samples, seed, *, shards=1, min_count=1000,
    allow_unverified=False, draw=None,
):
    """``simulate`` by its rule: each shard's ``random.Random`` tallies the
    slots by ``_reference_tally`` over the table of the slot masses' Fraction
    thresholds (never a sampler's table), or, given a ``draw`` rule, by one
    draw per sample below scale times the lcm of their denominators
    (``_slot_width``), floor-divided by scale and bisected into their
    running sums.  The counts are then decoded.  Law checks are left to
    ``simulate``."""
    limit, thresholds, slots = _fraction_table(_reference_slots(scheme, inst))
    scale = _slot_width(limit)[1]
    tally = [0] * len(slots)
    base = sp.RandomSource(seed)
    quota, remainder = divmod(n_samples, shards)
    for shard in range(shards):
        gen = random.Random(base.substream(shard).seed)
        count = quota + (1 if shard < remainder else 0)
        if draw is None:
            for s, c in enumerate(_reference_tally(limit, thresholds, count, gen)):
                tally[s] += c
        else:
            for _ in range(count):
                tally[bisect_right(thresholds, draw(gen, scale * limit) // scale)] += 1
    inverse = scheme._joint.inverse
    counts_z = [0] * scheme.p
    counts_xz = [[0] * scheme.p for _ in range(scheme.n)]
    successes = 0
    for (i, j, k), c in zip(slots, tally):
        counts_z[k] += c
        counts_xz[i][k] += c
        rows = inverse[k][j]
        if rows and rows[0] == i:
            successes += c
    tv = []
    for k in range(scheme.p):
        if counts_z[k] < min_count:
            tv.append(None)
            continue
        distance = sum(
            abs(counts_xz[i][k] / counts_z[k] - float(scheme.px[i]))
            for i in range(scheme.n)
        )
        tv.append(distance / 2)
    defined = [d for d in tv if d is not None]
    return sp.SimReport(
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


def _assert_simulate_matches_reference(scheme, inst, n_samples, seed, **kw):
    got = sp.simulate(scheme, inst, n_samples, seed, **kw)
    want = _reference_simulate(scheme, inst, n_samples, seed, **kw)
    assert dataclasses.astuple(got) == dataclasses.astuple(want)
    return got


class _Branch(Exception):
    """A walk asked for more bits than its script holds."""


def _walk_paths(sampler, count):
    """Every complete run of the walk on ``count`` samples, as (tally,
    the widths it read, the values they gave), served by scripted reads
    enumerated one ``getrandbits`` call at a time."""
    scripts = [()]
    while scripts:
        script = scripts.pop()
        reads = iter(script)
        widths = []

        def getrandbits(k):
            widths.append(k)
            value = next(reads, None)
            if value is None:
                raise _Branch(k)
            return value

        tally = [0] * len(sampler.values)
        try:
            runtime._tally(sampler, count, getrandbits, tally)
        except _Branch as branch:
            scripts += [(*script, v) for v in range(2**branch.args[0])]
            continue
        yield tuple(tally), tuple(widths), script


def _multinomial(weights, count):
    """The pmf of the slot counts of ``count`` independent draws with
    masses weights[s] / sum(weights)."""
    law = {}
    for draws in itertools.combinations_with_replacement(range(len(weights)), count):
        tally = tuple(draws.count(s) for s in range(len(weights)))
        law[tally] = math.factorial(count) * math.prod(
            F(w, sum(weights))**c / math.factorial(c) for w, c in zip(weights, tally)
        )
    return law


@pytest.mark.parametrize(
    "weights", [(1,), (1, 1), (1, 3), (3, 1), (2, 1, 1), (1, 2, 1, 4), (1,) * 8]
)
def test_walk_draws_the_multinomial_law(weights):
    # Power-of-two tables, so no read is rejected and every run is finite:
    # a run that reads b bits has probability 2**-b, and those add up, per
    # tally, to the multinomial pmf.
    sampler = _Sampler(range(len(weights)), weights)
    assert _is_power_of_two(sampler.limit) and sampler.bits <= 3
    for count in range(1, 6):
        law = collections.defaultdict(F)
        for tally, widths, values in _walk_paths(sampler, count):
            law[tally] += F(1, 2**sum(widths))
            if weights == (1, 3) and count > 2 * 2:
                # Table [0, 1, 1, 1]: the root splits by a popcount of all
                # its samples; the left half [0, 1] splits again past
                # 1 * 2 samples, else draws each with one bit, and the
                # right half is the pure slot 1.
                left = values[0].bit_count()
                assert widths == ((count, left) if left > 2 else (count, *[1] * left))
            elif weights == (1, 3):
                assert widths == (2,) * count  # the root draws each sample
        assert dict(law) == _multinomial(weights, count)


@pytest.mark.parametrize("shift", [-1, 0, 1, None])
def test_popcount_chunks_read_what_one_read_reads(shift):
    chunk = runtime._CHUNK_BITS
    assert chunk % 32 == 0
    count = 3 * chunk + 5 if shift is None else chunk + shift
    gen, twin = random.Random(count), random.Random(count)
    assert runtime._popcount(gen.getrandbits, count) == twin.getrandbits(count).bit_count()
    assert gen.getstate() == twin.getstate()


def _assert_walk_reads_the_reference(limit, count, seed):
    """The walk and ``_reference_tally`` on twin generators: the same
    tally, and the generators end in the same state, so they read the same
    bits."""
    slots = _sampler_of_limit(limit, random.Random(seed), _SLOT_SPARE_BITS)
    gen, twin = random.Random(seed), random.Random(seed)
    tally = [0] * len(slots.values)
    runtime._tally(slots, count, gen.getrandbits, tally)
    assert tally == _reference_tally(limit, slots.thresholds, count, twin)
    assert gen.getstate() == twin.getstate()


WALK_LIMITS = st.one_of(
    st.integers(0, 40).map(lambda k: 2**k),  # no reject region
    st.integers(3, 2**16),  # a reject region unless a power of two
    st.integers(2**16 + 1, 2**32),  # bisected tables
    st.integers(2**32 + 1, 2**80),  # reads that span several 32-bit words
)


@settings(max_examples=200, deadline=None)
@given(WALK_LIMITS, st.integers(0, 3000), st.integers(0, 2**64 - 1))
def test_walk_reads_exactly_the_reference_bits(limit, count, seed):
    _assert_walk_reads_the_reference(limit, count, seed)


@pytest.mark.parametrize("limit", [2**12, 1000, 2**20 + 7, 2**40 + 3])
def test_walk_reads_the_reference_bits_past_one_chunk(limit):
    # The root's popcount reads its bits in two chunks.
    _assert_walk_reads_the_reference(limit, runtime._CHUNK_BITS + 5, limit)


class _Unsliced:
    """A table that refuses to be sliced."""

    __slots__ = ()

    def __getitem__(self, u):
        if isinstance(u, slice):
            raise AssertionError("the walk copied a window of its table")
        return super().__getitem__(u)


class _UnslicedList(_Unsliced, list):
    pass


class _UnslicedBisection(_Unsliced, _Bisection):
    __slots__ = ()


@pytest.mark.parametrize("limit", [1000, 2**33 + 1])
def test_walk_reads_its_table_in_place(limit):
    # Leaves below the root read T[lo + u] from the table itself: a list
    # table and a bisected one that refuse slicing give the reference's
    # counts.
    for seed in PINNED_SEEDS:
        slots = _sampler_of_limit(limit, random.Random(seed), _SLOT_SPARE_BITS)
        if type(slots.table) is list:
            slots.table = _UnslicedList(slots.table)
        else:
            slots.table = _UnslicedBisection(slots.thresholds, slots.scale)
        gen, widths = random.Random(seed), []

        def getrandbits(k):
            widths.append(k)
            return gen.getrandbits(k)

        tally = [0] * len(slots.values)
        runtime._tally(slots, 3000, getrandbits, tally)
        assert tally == _reference_tally(limit, slots.thresholds, 3000, random.Random(seed))
        # A leaf below the root read d < bits bits for several samples in a
        # row.
        assert any(
            0 < w < slots.bits and widths[i + 1] == widths[i + 2] == w
            for i, w in enumerate(widths[:-2])
        )


def _clash_twin(scheme):
    """The scheme plus one signal that sends state 0 where the first signal
    sends state 1: informativeness fails, and state-1 samples that emit the
    new signal decode to state 0."""
    first = list(scheme.assignments[0])
    first[0] = first[1]
    return dataclasses.replace(
        scheme,
        z_labels=(*scheme.z_labels, "clash"),
        weights=(*scheme.weights, scheme.weights[0]),
        assignments=(*scheme.assignments, tuple(first)),
    )


def test_simulate_matches_the_reference_loop_on_corpus():
    failed_decodes = 0
    for index, inst in enumerate(corpus()):
        if not sp.check_feasible(inst).feasible:
            continue
        scheme = sp.build_scheme(inst)
        seed = PINNED_SEEDS[index % 3] + index
        for shards in (1, 2, 3):
            for n_samples in (0, 1, 7):
                _assert_simulate_matches_reference(
                    scheme, inst, n_samples, seed, shards=shards, min_count=1
                )
        # 20,000 samples, at one shard count per scheme to bound the time.
        _assert_simulate_matches_reference(
            scheme, inst, 20000, seed, shards=index % 3 + 1
        )
        broken = dataclasses.replace(
            scheme, weights=(scheme.weights[0] * 2, *scheme.weights[1:])
        )
        twins = [broken] + ([_clash_twin(scheme)] if scheme.n > 1 else [])
        for twin in twins:
            report = _assert_simulate_matches_reference(
                twin, inst, 500, seed, shards=2, min_count=20,
                allow_unverified=True,
            )
            failed_decodes += report.decode_success < 1.0
    assert failed_decodes > 100


@settings(max_examples=100, deadline=None)
@given(
    instances(),
    st.integers(0, 300),
    st.integers(0, 2**64 - 1),
    st.integers(1, 4),
    st.integers(1, 50),
)
def test_simulate_matches_the_reference_loop_on_random_instances(
    inst, n_samples, seed, shards, min_count
):
    if sp.check_feasible(inst).feasible:
        _assert_simulate_matches_reference(
            sp.build_scheme(inst), inst, n_samples, seed,
            shards=shards, min_count=min_count,
        )


@settings(max_examples=100, deadline=None)
@given(scrambled_schemes(), st.integers(0, 300), st.integers(1, 3))
def test_simulate_matches_the_reference_loop_on_random_schemes(
    case, n_samples, shards
):
    # Broken schemes under allow_unverified: the same report, or the same
    # refusal when the instance puts mass on a cell the scheme never emits.
    scheme, inst = case
    outcomes = []
    for run in (sp.simulate, _reference_simulate):
        try:
            report = run(
                scheme, inst, n_samples, 5, shards=shards, min_count=10,
                allow_unverified=True,
            )
            outcomes.append(dataclasses.astuple(report))
        except sp.SidepadError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=100, deadline=None)
@given(instances(), st.integers(0, 2**64 - 1), st.integers(1, 3), st.data())
def test_simulate_draws_what_randrange_drew_below_other_limits(
    inst, seed, shards, data
):
    # While no shard tallies more than bits * span of the root, no node of
    # the walk splits and simulate reads what one draw per sample reads
    # under the wide rule: getrandbits(bits) until below scale * limit,
    # then floor-divided by scale.  Where the limit is not a power of two,
    # neither is scale * limit, so randrange(scale * limit) reads the same.
    if not sp.check_feasible(inst).feasible:
        return
    scheme = sp.build_scheme(inst)
    slots = _slot_sampler(scheme, inst)
    if _is_power_of_two(slots.limit):
        return
    # The root spans every slot and the reject region.
    bits = _slot_width(slots.limit)[0]
    n_samples = data.draw(st.integers(0, shards * bits * (len(slots.values) + 1)))
    got = sp.simulate(scheme, inst, n_samples, seed, shards=shards, min_count=10)
    for draw in (_reference_draw, random.Random.randrange):
        want = _reference_simulate(
            scheme, inst, n_samples, seed, shards=shards, min_count=10, draw=draw,
        )
        assert repr(got) == repr(want)


def _wide_instances():
    """Instances past the 16-bit table cap: a 2x3 grid over the prime
    65537, whose world limit takes 17 bits and its built scheme's slot
    limit 33, and a 3x4 one whose conditional rows sit over the primes
    65537, 65539 and 65543, so the world and slot limits take 50 bits."""
    p = 65537
    small = sp.make_instance(
        ["x1", "x2"], ["y1", "y2", "y3"],
        [[F(20000, p), F(12000, p), 0], [0, F(15000, p), F(18537, p)]],
    )
    p, q, r = 65537, 65539, 65543
    large = sp.instance_from_conditional([F(1, 3)] * 3, [
        [F(30000, p), F(35537, p), 0, 0],
        [0, F(20000, q), F(45539, q), 0],
        [F(10000, r), 0, F(5000, r), F(50543, r)],
    ])
    return [small, large]


@st.composite
def wide_instances(draw):
    """Feasible instances with large, mostly coprime denominators: P_X over
    a random total up to 2**24 and conditional rows from a mixture of up
    to three permutations with weights over a total in [2**16, 2**40]."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 4))
    total = draw(st.integers(2**16, 2**40))
    cuts = draw(st.lists(st.integers(1, total - 1), max_size=2, unique=True))
    conditional = [[F(0)] * m for _ in range(n)]
    for a, b in zip([0, *sorted(cuts)], [*sorted(cuts), total]):
        perm = draw(st.permutations(range(m)))
        for i in range(n):
            conditional[i][perm[i]] += F(b - a, total)
    units = draw(st.lists(st.integers(1, 2**24), min_size=n, max_size=n))
    px = [F(u, sum(units)) for u in units]
    return sp.instance_from_conditional(px, conditional)


def test_simulate_matches_the_reference_loop_past_the_table_cap():
    small, large = _wide_instances()
    for inst in (small, large):
        scheme = sp.build_scheme(inst)
        assert inst._world.bits > _TABLE_BITS
        # Past 32 bits one getrandbits call spans several 32-bit words.
        assert _assert_slots_are_the_fraction_table(scheme, inst).bits > 32
        for shards, seed in zip((1, 3), PINNED_SEEDS):
            _assert_simulate_matches_reference(
                scheme, inst, 3000, seed, shards=shards, min_count=1
            )
        broken = dataclasses.replace(
            scheme, weights=(scheme.weights[0] * 2, *scheme.weights[1:])
        )
        _assert_simulate_matches_reference(
            broken, inst, 500, 9, shards=2, min_count=20, allow_unverified=True
        )


@settings(max_examples=50, deadline=None)
@given(wide_instances(), st.integers(0, 300), st.integers(0, 2**64 - 1))
def test_simulate_matches_the_reference_loop_on_wide_instances(
    inst, n_samples, seed
):
    scheme = sp.build_scheme(inst)
    _assert_slots_are_the_fraction_table(scheme, inst)
    _assert_simulate_matches_reference(
        scheme, inst, n_samples, seed, shards=2, min_count=5
    )


def _assert_slots_are_the_fraction_table(scheme, inst):
    """simulate's slot sampler is the table of the reference slots' Fraction
    masses over the lcm of their denominators; returns the sampler."""
    slots = _slot_sampler(scheme, inst)
    assert (slots.limit, slots.thresholds, slots.values) == _fraction_table(
        _reference_slots(scheme, inst)
    )
    _assert_slot_layout(slots)
    return slots


def test_slot_masses_are_exact_on_corpus():
    for inst in corpus():
        if sp.check_feasible(inst).feasible:
            _assert_slots_are_the_fraction_table(sp.build_scheme(inst), inst)


@given(instances())
def test_slot_masses_are_exact_on_random_instances(inst):
    if sp.check_feasible(inst).feasible:
        _assert_slots_are_the_fraction_table(sp.build_scheme(inst), inst)


@settings(max_examples=200, deadline=None)
@given(scrambled_schemes())
def test_slot_masses_are_exact_on_random_schemes(case):
    # Broken schemes, as simulate(allow_unverified=True) takes them: the
    # same table, or the same refusal at the same cell.
    scheme, inst = case
    try:
        want = _fraction_table(_reference_slots(scheme, inst))
    except sp.OffSupportError as exc:
        with pytest.raises(sp.OffSupportError, match=re.escape(str(exc))):
            _slot_sampler(scheme, inst)
        return
    slots = _slot_sampler(scheme, inst)
    assert (slots.limit, slots.thresholds, slots.values) == want


def test_joint_slot_table_is_the_row_rule_on_verified_corpus_schemes():
    # simulate draws a verified scheme's slots from the compiled joint
    # (b[i] * a[k]); allow_unverified keeps the row rule.  On a verified
    # scheme, both are one table, in one order, over one limit.
    count = 0
    for inst in corpus():
        if sp.check_feasible(inst).feasible:
            scheme = sp.parse_scheme(sp.serialize_scheme(sp.build_scheme(inst)))
            assert sp.verify_scheme(scheme, inst).all_ok
            joint, rows = scheme._joint.slots, _slot_sampler(scheme, inst)
            assert (joint.values, joint.thresholds) == (rows.values, rows.thresholds)
            assert (joint.limit, joint.bits, joint.table) == (rows.limit, rows.bits, rows.table)
            count += 1
    assert count > 500


def test_simulate_keeps_one_slot_table_per_scheme(monkeypatch):
    inst = corr23()
    scheme = sp.build_scheme(inst)
    first = sp.simulate(scheme, inst, 500, 7)
    table = scheme._joint.slots
    monkeypatch.setattr(runtime, "_slot_sampler", None)  # the row rule is not read
    assert sp.simulate(scheme, inst, 500, 7) == first
    assert scheme._joint.slots is table
    monkeypatch.undo()
    assert sp.simulate(scheme, inst, 500, 7, allow_unverified=True) == first


def test_simulate_holds_no_reference_to_its_scheme_or_instance():
    # The verdict memo refers to the instance weakly and the slot table to
    # neither, so without the cycle collector both die with their names.
    gc.disable()
    try:
        inst = sp.parse_instance(sp.serialize_instance(mixed23()))
        scheme = sp.parse_scheme(sp.serialize_scheme(sp.build_scheme(inst)))
        assert sp.verify_scheme(scheme, inst).all_ok
        sp.simulate(scheme, inst, 1000, 3, shards=2)
        scheme_ref, inst_ref = weakref.ref(scheme), weakref.ref(inst)
        del inst
        assert inst_ref() is None  # the scheme outlives it
        del scheme
        assert scheme_ref() is None
    finally:
        gc.enable()


def test_a_used_scheme_pickles_without_its_memos():
    inst = mixed23()
    scheme = sp.build_scheme(inst)
    report = sp.simulate(scheme, inst, 500, 5)
    assert sp.decode_table(scheme)  # the read-only table is built
    copy = pickle.loads(pickle.dumps(scheme))
    assert copy == scheme and "_joint" not in vars(copy)
    assert sp.simulate(copy, inst, 500, 5) == report


def _deterministic_schemes():
    """(scheme, instance) pairs whose every supported cell has one signal:
    the fixtures' deterministic builds and every deterministic scheme the
    search finds on the corpus."""
    for factory in (otp2, corr23, det22):
        yield sp.build_scheme(factory()), factory()
    for inst in corpus():
        if sp.check_feasible(inst).feasible:
            found = sp.find_deterministic_scheme(inst)
            if found.status == "found":
                yield found.scheme, inst


def test_deterministic_schemes_draw_from_the_world_table():
    # When every cell has one signal, slot w is world cell w with mass
    # P_XY(w), so the slot table is the world's table widened: the same
    # values, limit and thresholds, and slot entry u is the world's entry
    # u // scale.  simulate's tallies have the law of a loop of world draws
    # and encode's lookups, but not its reads: the slot table is wider
    # where the limit is not a power of two, and its walk splits counts.
    count = 0
    for scheme, inst in _deterministic_schemes():
        supp = _scheme_rows(scheme, inst)
        world, slots = inst._world, _slot_sampler(scheme, inst)
        assert all(len(ks) == 1 for row in scheme._joint.phi for ks in row.values())
        assert [(supp[i], j) for i, j, _ in slots.values] == world.values
        assert (slots.limit, slots.thresholds) == (world.limit, world.thresholds)
        bits, scale = _slot_width(world.limit)
        assert type(slots.table) is list
        assert slots.table == [world.table[u // scale] for u in range(2**bits)]
        count += 1
    assert count > 100


def test_sample_world_frequencies_uniform_2x2():
    inst = otp2()
    rng = sp.RandomSource(PINNED_SEEDS[0])
    counts = collections.Counter(
        sp.sample_world(inst, rng) for _ in range(100000)
    )
    three_sigma = 3 * (0.25 * 0.75 / 100000) ** 0.5
    for i in range(2):
        for j in range(2):
            assert abs(counts[(i, j)] / 100000 - 0.25) <= three_sigma


def test_sample_world_frequencies_match_joint():
    inst = corr23()
    rng = sp.RandomSource(PINNED_SEEDS[0])
    counts = collections.Counter(
        sp.sample_world(inst, rng) for _ in range(100000)
    )
    tv = 0.5 * sum(
        abs(counts.get((i, j), 0) / 100000 - float(inst.p_xy[i][j]))
        for i in range(inst.n)
        for j in range(inst.m)
    )
    assert tv <= 0.01


def test_encode_deterministic_cells_consume_no_randomness():
    scheme = sp.build_scheme(corr23())
    rng = sp.RandomSource(3)
    before = rng.randbelow(10**9)
    rng_again = sp.RandomSource(3)
    assert sp.encode(scheme, 0, 0, rng_again) == 0  # (x1,y1) -> z1 always
    assert sp.encode(scheme, 0, 1, rng_again) == 1  # (x1,y2) -> z2 always
    assert rng_again.randbelow(10**9) == before  # stream untouched


def test_encode_whole_xor_pad_is_deterministic():
    scheme = sp.build_scheme(otp2())
    expected = {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 1}
    for (i, j), k in expected.items():
        for seed in range(5):
            assert sp.encode(scheme, i, j, sp.RandomSource(seed)) == k


def test_encode_draws_on_overlapping_cells():
    scheme = sp.build_scheme(mixed23())
    draws = collections.Counter(
        sp.encode(scheme, 0, 0, sp.RandomSource(seed)) for seed in range(100)
    )
    assert set(draws) == {1, 2}  # phi(x1,y1) = {z2, z3}
    assert draws[1] > draws[2]  # weights 1/3 vs 1/6


def test_encode_off_support_and_bad_indices():
    scheme = sp.build_scheme(corr23())
    with pytest.raises(sp.OffSupportError):
        sp.encode(scheme, 0, 2, sp.RandomSource(0))
    with pytest.raises(sp.DimensionMismatchError):
        sp.encode(scheme, 5, 0, sp.RandomSource(0))


def test_decode_worked_example():
    scheme = sp.build_scheme(corr23())
    assert sp.decode(scheme, 1, 0) == 1  # (y2, z1) -> x2
    assert sp.decode(scheme, 0, 0) == 0
    with pytest.raises(sp.OffSupportError):
        sp.decode(scheme, 2, 0)  # z1 pads column y3
    with pytest.raises(sp.OffSupportError):
        sp.decode(scheme, 0, 1)
    with pytest.raises(sp.DimensionMismatchError):
        sp.decode(scheme, 0, 9)


def test_decode_xor_pad():
    scheme = sp.build_scheme(otp2())
    assert sp.decode(scheme, 1, 1) == 0  # (y2, z2) -> x1
    assert sp.decode(scheme, 0, 1) == 1


@pytest.mark.parametrize("factory", [otp2, corr23, mixed23, det22])
def test_encode_decode_round_trip_over_support(factory):
    inst = factory()
    scheme = sp.build_scheme(inst)
    supp = sp.supp_x(inst)
    for pos, i in enumerate(supp):
        for j in range(inst.m):
            if inst.p_xy[i][j] == 0:
                continue
            for seed in range(100):
                z = sp.encode(scheme, pos, j, sp.RandomSource(seed))
                assert sp.decode(scheme, j, z) == pos


def test_simulate_is_bit_identical_and_exact_on_decode():
    inst = corr23()
    scheme = sp.build_scheme(inst)
    a = sp.simulate(scheme, inst, 20000, PINNED_SEEDS[1])
    b = sp.simulate(scheme, inst, 20000, PINNED_SEEDS[1])
    assert a == b
    assert a.decode_success == 1.0
    assert a.samples == 20000
    assert abs(a.empirical_qz[0] - 0.5) < 0.02
    assert a.max_tv == max(v for v in a.tv_secrecy if v is not None)


def test_simulate_sharded_schedule_is_reproducible():
    inst = otp2()
    scheme = sp.build_scheme(inst)
    a = sp.simulate(scheme, inst, 10001, PINNED_SEEDS[2], shards=4)
    b = sp.simulate(scheme, inst, 10001, PINNED_SEEDS[2], shards=4)
    assert a == b
    assert a.shards == 4
    assert a.decode_success == 1.0
    # a different shard count is a different (valid) sample schedule
    c = sp.simulate(scheme, inst, 10001, PINNED_SEEDS[2], shards=2)
    assert c.decode_success == 1.0
    assert c.empirical_qz != a.empirical_qz


def test_simulate_seeds_no_shard_that_draws_nothing(monkeypatch):
    # With more shards than samples, shards past the tenth have a quota of 0:
    # none of them may be seeded, so 10**12 of them cost nothing.
    inst = otp2()
    scheme = sp.build_scheme(inst)
    substream = sp.RandomSource.substream

    def guarded(self, index):
        assert index < 10, f"shard {index} seeded with nothing to draw"
        return substream(self, index)

    monkeypatch.setattr(sp.RandomSource, "substream", guarded)
    start = time.perf_counter()
    wide = sp.simulate(scheme, inst, 10, 42, shards=10**12)
    assert time.perf_counter() - start < 1.0
    assert wide.shards == 10**12
    narrow = sp.simulate(scheme, inst, 10, 42, shards=10)
    assert wide == dataclasses.replace(narrow, shards=10**12)


def test_simulate_seeds_a_generator_only_for_shards_that_draw(monkeypatch):
    # Every generator seeded is a shard's that draws: none for the seed
    # itself, none for the shards past the tenth, whose quota is 0.
    inst = otp2()
    scheme = sp.build_scheme(inst)
    seeded = []

    class Recording(random.Random):
        def seed(self, a=None, version=2):
            seeded.append(a)
            super().seed(a, version)

    monkeypatch.setattr(runtime.random, "Random", Recording)
    three = sp.simulate(scheme, inst, 100, 42, shards=3)
    wide = sp.simulate(scheme, inst, 10, 42, shards=10**12)
    monkeypatch.undo()
    streams = [sp.RandomSource(42).substream(k).seed for k in range(10)]
    assert seeded == streams[:3] + streams
    assert three == sp.simulate(scheme, inst, 100, 42, shards=3)
    assert wide == sp.simulate(scheme, inst, 10, 42, shards=10**12)


def test_simulate_reads_little_at_a_limit_just_past_a_power_of_two(monkeypatch):
    # Slot limit 17 = 2**4 + 1.  The 5-bit table without spare bits rejects
    # 15 of its 32 entries; the 7-bit one (scale 7) rejects 9 of 128.
    # 10,000 samples at seed 7 take 1,460 reads on the 5-bit table, 61 here.
    inst = sp.make_instance(["x1"], ["y1", "y2"], [[F(8, 17), F(9, 17)]])
    scheme = sp.build_scheme(inst)
    slots = scheme._joint.slots
    assert (slots.limit, slots.bits, slots.scale) == (17, 7, 7)
    widths = []

    class Counting(random.Random):
        def getrandbits(self, k):
            widths.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(runtime.random, "Random", Counting)
    report = sp.simulate(scheme, inst, 10000, 7)
    monkeypatch.undo()
    assert len(widths) == 61
    assert report == _reference_simulate(scheme, inst, 10000, 7)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_simulate_refuses_a_bad_seed_even_with_nothing_to_draw(seed):
    inst = otp2()
    with pytest.raises(sp.InputError, match="seed must be"):
        sp.simulate(sp.build_scheme(inst), inst, 0, seed)


def test_simulate_zero_samples_is_vacuous():
    inst = otp2()
    report = sp.simulate(sp.build_scheme(inst), inst, 0, 1)
    assert report.decode_success == 1.0
    assert report.empirical_qz == (0.0, 0.0)
    assert report.tv_secrecy == (None, None)
    assert report.max_tv == 0.0


def test_simulate_min_count_suppresses_noisy_estimates():
    inst = corr23()
    scheme = sp.build_scheme(inst)
    report = sp.simulate(scheme, inst, 300, PINNED_SEEDS[0], min_count=1000)
    assert report.tv_secrecy == (None, None)
    assert report.max_tv == 0.0
    report = sp.simulate(scheme, inst, 300, PINNED_SEEDS[0], min_count=100)
    assert all(v is not None for v in report.tv_secrecy)


def test_simulate_refuses_broken_schemes():
    inst = corr23()
    scheme = sp.build_scheme(inst)
    perturbed = sp.Scheme(
        x_labels=scheme.x_labels,
        y_labels=scheme.y_labels,
        z_labels=scheme.z_labels,
        px=scheme.px,
        weights=(F(51, 100), F(1, 2)),
        assignments=scheme.assignments,
    )
    with pytest.raises(sp.UnverifiedSchemeError):
        sp.simulate(perturbed, inst, 100, 1)
    report = sp.simulate(perturbed, inst, 100, 1, allow_unverified=True)
    assert report.samples == 100


@pytest.mark.parametrize(
    "assignments, failed",
    [
        (((1, 1, 0), (1, 2, 0)), "consistency, informativeness"),
        (((1, 1, 0), (None, 2, 1)), "consistency, informativeness, secrecy"),
        (((0, 1, 2), (None, 2, 1)), "consistency, secrecy"),
    ],
)
def test_simulate_refusal_names_every_failed_law(assignments, failed):
    inst = corr23()
    scheme = sp.build_scheme(inst)
    broken = sp.Scheme(
        x_labels=scheme.x_labels,
        y_labels=scheme.y_labels,
        z_labels=scheme.z_labels,
        px=scheme.px,
        weights=scheme.weights,
        assignments=assignments,
    )
    with pytest.raises(sp.UnverifiedSchemeError) as refused:
        sp.simulate(broken, inst, 10, 1)
    assert str(refused.value) == (
        f"refusing to simulate: scheme fails {failed} "
        "(pass allow_unverified=True to force)"
    )


def test_simulate_validates_arguments():
    inst = otp2()
    scheme = sp.build_scheme(inst)
    with pytest.raises(sp.InputError):
        sp.simulate(scheme, inst, -1, 1)
    with pytest.raises(sp.InputError):
        sp.simulate(scheme, inst, 10, 1, shards=0)
    with pytest.raises(sp.InputError):
        sp.simulate(scheme, inst, 10, 1, min_count=0)
    with pytest.raises(sp.DimensionMismatchError):
        sp.simulate(scheme, corr23(), 10, 1)


@pytest.mark.parametrize(
    "n_samples, options, message",
    [
        (10.0, {}, "sample count"),
        (True, {}, "sample count"),
        (10, {"shards": 2.0}, "shard count"),
        (10, {"shards": True}, "shard count"),
        (10, {"min_count": 1.5}, "min_count"),
    ],
    ids=["samples-float", "samples-bool", "shards-float", "shards-bool", "min-count-float"],
)
def test_simulate_refuses_non_integer_counts(n_samples, options, message):
    # Neither a bare TypeError from range nor a bool copied into the report.
    inst = otp2()
    scheme = sp.build_scheme(inst)
    with pytest.raises(sp.InputError, match=f"^{message} must be an integer, got "):
        sp.simulate(scheme, inst, n_samples, 1, **options)


def test_simulate_statistics_converge():
    inst = mixed23()
    scheme = sp.build_scheme(inst)
    report = sp.simulate(scheme, inst, 60000, PINNED_SEEDS[2])
    assert report.decode_success == 1.0
    for k, weight in enumerate(scheme.weights):
        assert abs(report.empirical_qz[k] - float(weight)) < 0.01
    assert report.max_tv < 0.02


# Seeded outputs pinned across code versions: a change to any of them
# changes what a user's seed reproduces.
GOLDEN_MIXED23_REPORT = sp.SimReport(
    samples=20000,
    decode_success=1.0,
    empirical_qz=(0.5037, 0.3328, 0.1635),
    tv_secrecy=(
        0.0029779630732579,
        0.001953125,
        0.003058103975535187,
    ),
    max_tv=0.003058103975535187,
    min_count=1000,
    shards=3,
    seed=202608,
)


def test_simulate_golden_report():
    inst = mixed23()
    scheme = sp.build_scheme(inst)
    report = sp.simulate(scheme, inst, 20000, PINNED_SEEDS[0], shards=3)
    assert report == GOLDEN_MIXED23_REPORT
    assert report == _reference_simulate(scheme, inst, 20000, PINNED_SEEDS[0], shards=3)


@pytest.mark.parametrize("n_samples, seed, shards, min_count",
                         [(3000, 7, 1, 1000), (2500, 11, 3, 900)])
def test_cli_pinned_simulate_runs_equal_the_reference(n_samples, seed, shards, min_count):
    # The mixed23 runs whose output tests/test_cli.py pins byte for byte.
    inst = mixed23()
    _assert_simulate_matches_reference(
        sp.build_scheme(inst), inst, n_samples, seed, shards=shards, min_count=min_count
    )


@pytest.mark.parametrize("factory", [corr23, otp2, det22])
def test_cli_pinned_simulate_runs_of_deterministic_fixtures_equal_the_reference(factory):
    # The otp2, corr23 and det22 runs tests/test_cli.py pins byte for byte.
    inst = factory()
    _assert_simulate_matches_reference(sp.build_scheme(inst), inst, 3000, 7)


def _reference_encode_draws(scheme, i, j, gen, count):
    """``count`` encoder draws at cell (i, j) by the written-out rule on
    ``gen``, bisected into the table of the normalised Fraction weights."""
    ks = sorted(sp.support_signals(scheme, i, j))
    total = sum((scheme.weights[k] for k in ks), F(0))
    limit, thresholds, values = _fraction_table(
        (k, scheme.weights[k] / total) for k in ks
    )
    return [
        values[bisect_right(thresholds, _reference_draw(gen, limit))]
        for _ in range(count)
    ]


def test_encode_golden_draws():
    # corr23: every supported cell is deterministic, so 20 draws cycling
    # over the four cells give a fixed sequence and consume no randomness.
    inst = corr23()
    scheme = sp.build_scheme(inst)
    cells = [(0, 0), (0, 1), (1, 1), (1, 2)]
    rng = sp.RandomSource(PINNED_SEEDS[0])
    draws = [sp.encode(scheme, *cells[t % 4], rng) for t in range(20)]
    assert draws == [0, 1] * 10
    assert rng.randbelow(2**32) == sp.RandomSource(PINNED_SEEDS[0]).randbelow(2**32)
    # mixed23: cells (x1, y1) and (x2, y3) each split over two signals.
    scheme = sp.build_scheme(mixed23())
    rng = sp.RandomSource(PINNED_SEEDS[0])
    first = [sp.encode(scheme, 0, 0, rng) for _ in range(20)]
    second = [sp.encode(scheme, 1, 2, rng) for _ in range(20)]
    gen = random.Random(PINNED_SEEDS[0])
    assert first == _reference_encode_draws(scheme, 0, 0, gen, 20)
    assert second == _reference_encode_draws(scheme, 1, 2, gen, 20)
    assert first == [
        2, 2, 1, 2, 2, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2
    ]
    assert second == [
        2, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0
    ]


def _assert_encoders_match_fraction_samplers(scheme):
    """Each supported cell's encoder equals the sampler built from the
    normalised Fraction weights; returns how many cells were randomized."""
    randomized = 0
    for i in range(scheme.n):
        for j in range(scheme.m):
            ks = sorted(sp.support_signals(scheme, i, j))
            if not ks:
                continue
            choice = _conditional_signals(scheme, i, j)
            if len(ks) == 1:
                assert choice == ks[0]
                continue
            total = sum((scheme.weights[k] for k in ks), F(0))
            want = _fraction_table((k, scheme.weights[k] / total) for k in ks)
            assert (choice.limit, choice.thresholds, choice.values) == want
            _assert_table_fits(choice)
            randomized += 1
    return randomized


def test_encoder_samplers_equal_fraction_samplers_on_corpus():
    randomized = sum(
        _assert_encoders_match_fraction_samplers(sp.build_scheme(inst))
        for inst in corpus()
        if sp.check_feasible(inst).feasible
    )
    assert randomized > 100


def test_encoder_samplers_equal_fraction_samplers_at_m32():
    # Uniform P_X over the first 16 rows of a mixture of 32 random
    # permutations with integer weights summing to 128.
    rng = random.Random("encoders/32")
    n, m, total = 16, 32, 128
    cuts = sorted(rng.sample(range(1, total), m - 1))
    grid = [[F(0)] * m for _ in range(n)]
    for weight in (b - a for a, b in zip([0, *cuts], [*cuts, total])):
        perm = rng.sample(range(m), m)
        for i in range(n):
            grid[i][perm[i]] += F(weight, total)
    scheme = sp.build_scheme(sp.instance_from_conditional([F(1, n)] * n, grid))
    assert _assert_encoders_match_fraction_samplers(scheme) > 100


@settings(max_examples=200, deadline=None)
@given(scrambled_schemes())
def test_encoder_samplers_equal_fraction_samplers_on_random_weights(case):
    # Weights over pairwise-coprime denominators, not summing to one.
    _assert_encoders_match_fraction_samplers(case[0])
