"""Seeded sampling, encode/decode round-trips, Monte Carlo reports."""

import collections
import dataclasses
import hashlib
import random
import re
import time
import types
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
from sidepad.model import _TABLE_BITS, _Sampler
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


def _bisect_draw(sampler, gen):
    """One draw by the rule the lookup table replaces: the integer below
    the limit, bisected into the thresholds."""
    u = _reference_draw(gen, sampler.limit)
    return sampler.values[bisect_right(sampler.thresholds, u)]


def _sampler_of_limit(limit, rng):
    """A sampler whose weights sum to ``limit`` with gcd 1 (the first is 1),
    cut at up to 20 random points."""
    cuts = sorted({1, *(rng.randrange(1, limit) for _ in range(20))}) if limit > 1 else []
    weights = [b - a for a, b in zip([0, *cuts], [*cuts, limit])]
    return _Sampler(range(len(weights)), weights)


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
    before = reads()
    sp.simulate(scheme, inst, 5000, PINNED_SEEDS[0], shards=3)
    assert reads() - before == 5000
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
    # builder, with one draw per sample over the (cell, signal) table and
    # the fewest bits per read.
    assert _simulate_digest(reference_scheme) == (
        "8a5b232789d700ba6feefc173cd9d67ec5f78c0e7eaa5dc2c83b1d74d4798178"
    )


def test_simulate_reports_of_built_schemes_are_pinned_on_corpus():
    # Recorded with sparse padding and max-bottleneck matching, with one
    # draw per sample over the (cell, signal) table and the fewest bits
    # per read.
    assert _simulate_digest(sp.build_scheme) == (
        "da7eb26b11df79b82ff56d65f8adc220b3b74cdd0597bd70916b3409108cc10b"
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


def _reference_simulate(
    scheme, inst, n_samples, seed, *, shards=1, min_count=1000,
    allow_unverified=False, draw=_reference_draw,
):
    """``simulate`` by its rule, one sample at a time: one ``draw`` (the
    written-out rule by default) from each shard's ``random.Random`` below
    the lcm of the slot masses' denominators per sample, bisected into
    their running sums (never a sampler's table), then decoded and
    counted.  Law checks are left to ``simulate``."""
    limit, thresholds, slots = _fraction_table(_reference_slots(scheme, inst))
    inverse = scheme._joint.inverse
    counts_z = [0] * scheme.p
    counts_xz = [[0] * scheme.p for _ in range(scheme.n)]
    successes = 0
    base = sp.RandomSource(seed)
    quota, remainder = divmod(n_samples, shards)
    for shard in range(shards):
        gen = random.Random(base.substream(shard).seed)
        for _ in range(quota + (1 if shard < remainder else 0)):
            i, j, k = slots[bisect_right(thresholds, draw(gen, limit))]
            counts_z[k] += 1
            counts_xz[i][k] += 1
            rows = inverse[k][j]
            if rows and rows[0] == i:
                successes += 1
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
@given(
    instances(),
    st.integers(0, 300),
    st.integers(0, 2**64 - 1),
    st.integers(1, 3),
)
def test_simulate_draws_what_randrange_drew_below_other_limits(
    inst, n_samples, seed, shards
):
    # Only a power-of-two limit changed its bit count: below any other slot
    # limit simulate prints what the randrange-based rule gave before.
    if not sp.check_feasible(inst).feasible:
        return
    scheme = sp.build_scheme(inst)
    if _is_power_of_two(_slot_sampler(scheme, inst).limit):
        return
    got = sp.simulate(scheme, inst, n_samples, seed, shards=shards, min_count=10)
    want = _reference_simulate(
        scheme, inst, n_samples, seed, shards=shards, min_count=10,
        draw=random.Random.randrange,
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
    _assert_table_fits(slots)
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


def _deterministic_schemes():
    """(scheme, instance) pairs whose every supported cell has one signal:
    the fixtures' deterministic builds and every deterministic scheme the
    search finds on the corpus."""
    for factory in (otp2, corr23, det22):
        yield sp.build_scheme(factory()), factory()
    for inst in corpus():
        if sp.check_feasible(inst).feasible:
            found = sp.find_deterministic_scheme(inst, limit=10_000)
            if found.status == "found":
                yield found.scheme, inst


def test_deterministic_schemes_draw_from_the_world_table():
    # When every cell has one signal, slot w is world cell w with mass
    # P_XY(w), so the slot table is the world's table: simulate reads the
    # same integers, mapped to the same cells, as a world draw followed by
    # encode's lookup, which consumes nothing.  So the seeded simulate
    # outputs of deterministic schemes (the otp2, corr23 and det22 CLI
    # goldens, and every Shannon pad's) are those of the two-step rule.
    count = 0
    for scheme, inst in _deterministic_schemes():
        supp = _scheme_rows(scheme, inst)
        world, slots = inst._world, _slot_sampler(scheme, inst)
        assert all(len(ks) == 1 for row in scheme._joint.phi for ks in row.values())
        assert [(supp[i], j) for i, j, _ in slots.values] == world.values
        assert (slots.limit, slots.bits, slots.thresholds) == (
            world.limit, world.bits, world.thresholds
        )
        assert slots.table == world.table
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
    empirical_qz=(0.49475, 0.33525, 0.17),
    tv_secrecy=(
        0.005103587670540671,
        0.0009694258016405832,
        0.011470588235294121,
    ),
    max_tv=0.011470588235294121,
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
