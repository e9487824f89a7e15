"""The benchmark's workloads: seeded inputs, timed jobs and output checks.

Every workload is a closed loop with one client: a pass runs its jobs one
after another, each starting when the previous one has returned, and no
job uses more than one process.  A pass is the same fixed list of jobs
every time (fresh random sources, fixed seeds), so every pass of a run
produces identical outputs and identical counts.

A workload object is built from the generated inputs (its set-up) and
offers three things:

* ``jobs()`` -- the timed jobs of one pass.  A job with a ``tier`` is one
  latency sample in that size tier; a job without one is bulk work that
  counts toward the pass time only.
* ``check(index, output)`` -- the correctness checks of one job's output
  and the text that goes into the pass digest.  Checks run after the pass,
  outside every timed region and every span.
* ``setup_checks()`` -- checks of objects made during set-up.

A workload is built with ``timed``, a function that runs a callable and
returns its result and speed-normalized seconds (``Speedometer.timed``);
jobs time their ``simulate`` calls with it.

``MIN_PASSES`` is how many passes a run always makes.

Each job returns a dict that may carry ``signals`` (signal count of a
scheme the job built or covers) and ``simulated`` (samples and normalized
seconds of a ``simulate`` call it timed).
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

TIERS = ("small", "mid", "large")
SHARDS = 2

LADDER_RUNGS = (16, 32, 48)
LADDER_SAMPLES = 20_000

TRIAGE_INSTANCES = 480
TRIAGE_SAMPLES = 2_000

STREAM_RUNGS = (8, 16, 24)
STREAM_SAMPLES = 100_000
STREAM_QUERIES = 150

Check = tuple[str, bool]


@dataclasses.dataclass(frozen=True)
class Job:
    tier: Optional[str]
    run: Callable[[], dict]


def signal_bound(m: int) -> int:
    """Birkhoff's bound on the number of signals of an m-column scheme."""
    return m * m - 2 * m + 2


def _labels(n: int, m: int) -> tuple[list[str], list[str]]:
    return [f"x{i+1}" for i in range(n)], [f"y{j+1}" for j in range(m)]


def permutation_mixture(sp, rng: random.Random, n: int, m: int):
    """An n-by-m instance with uniform P_X whose conditional rows are the
    first n rows of a mixture of m random permutation matrices with
    positive integer weights summing to 4m.  Feasible by construction."""
    total = 4 * m
    cuts = sorted(rng.sample(range(1, total), m - 1))
    weights = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    counts = [[0] * m for _ in range(n)]
    for weight in weights:
        perm = rng.sample(range(m), m)
        for i in range(n):
            counts[i][perm[i]] += weight
    conditional = [[Fraction(c, total) for c in row] for row in counts]
    return sp.instance_from_conditional([Fraction(1, n)] * n, conditional, *_labels(n, m))


def shannon(sp, n: int, m: int):
    """X and Y independent and uniform: what ``sidepad shannon`` emits."""
    mass = Fraction(1, n * m)
    return sp.make_instance(*_labels(n, m), [[mass] * m for _ in range(n)])


def random_grid(sp, rng: random.Random, n: int, m: int):
    """n*m units of mass dropped on uniformly random cells of an n-by-m
    grid: sparse, denominators at most n*m, feasible or not by the draw."""
    units = n * m
    cells = [[0] * m for _ in range(n)]
    for _ in range(units):
        cells[rng.randrange(n)][rng.randrange(m)] += 1
    return sp.make_instance(
        *_labels(n, m), [[Fraction(v, units) for v in row] for row in cells]
    )


def _sim_fields(report) -> str:
    return repr(dataclasses.astuple(report))


def _scheme_text(scheme) -> str:
    return repr((scheme.x_labels, scheme.z_labels, scheme.weights, scheme.assignments))


def _scheme_checks(sp, scheme, inst, verification=None, audit=None) -> list[Check]:
    verification = verification or sp.verify_scheme(scheme, inst)
    audit = audit or sp.necessity_audit(scheme)
    return [
        ("verify_scheme.all_ok", verification.all_ok),
        ("necessity_audit.ok", audit.ok),
        ("signals_within_bound", scheme.p <= signal_bound(scheme.m)),
    ]


def _timed_simulate(timed, sp, scheme, inst, samples: int, seed: int):
    report, seconds = timed(partial(sp.simulate, scheme, inst, samples, seed, shards=SHARDS))
    return report, (samples, seconds)


class Ladder:
    """Seeded permutation mixtures at m = 16, 32, 48 (n = m/2 and n = m/4)
    plus the Shannon instance n = m/2 on every rung, each pushed through
    the whole CLI loop: instance document round trip, check, build, scheme
    document round trip, verify, audit, simulate."""

    # Each m=48 job runs for seconds, long enough for a shared machine to
    # change speed inside it; two passes give every job a second sample.
    MIN_PASSES = 2

    def __init__(self, sp, seed: int, timed: Callable):
        self.sp = sp
        self.timed = timed
        rng = random.Random(f"ladder/{seed}")
        self.cases = []
        for tier, m in zip(TIERS, LADDER_RUNGS):
            for inst in (
                permutation_mixture(sp, rng, m // 2, m),
                permutation_mixture(sp, rng, m // 4, m),
                shannon(sp, m // 2, m),
            ):
                self.cases.append((tier, inst, rng.randrange(2**63)))

    def setup_checks(self) -> list[Check]:
        return []

    def jobs(self) -> list[Job]:
        return [Job(tier, partial(self._loop, inst, seed)) for tier, inst, seed in self.cases]

    def _loop(self, inst, seed: int) -> dict:
        sp = self.sp
        parsed = sp.parse_instance(sp.serialize_instance(inst))
        report = sp.check_feasible(parsed)
        scheme = sp.build_scheme(parsed)
        document = sp.serialize_scheme(scheme)
        loaded = sp.parse_scheme(document)
        verification = sp.verify_scheme(loaded, parsed)
        audit = sp.necessity_audit(loaded)
        sim, simulated = _timed_simulate(self.timed, sp, loaded, parsed, LADDER_SAMPLES, seed)
        return {
            "parsed": parsed,
            "feasible": report.feasible,
            "scheme": scheme,
            "document": document,
            "loaded": loaded,
            "verification": verification,
            "audit": audit,
            "sim": sim,
            "signals": scheme.p,
            "simulated": simulated,
        }

    def check(self, index: int, out: dict) -> tuple[list[Check], str]:
        inst = self.cases[index][1]
        checks = [
            ("instance_round_trip", out["parsed"] == inst),
            ("check_feasible", out["feasible"]),
            ("scheme_round_trip", out["loaded"] == out["scheme"]),
            *_scheme_checks(self.sp, out["loaded"], inst, out["verification"], out["audit"]),
            ("decode_success", out["sim"].decode_success == 1.0),
        ]
        return checks, out["document"] + _sim_fields(out["sim"])


class Triage:
    """A few hundred tiny instances, m in 2..5 and n in 1..m+1, half feasible
    permutation mixtures, half sparse random grids.  Each is decided by
    ``check_feasible`` and cross-checked against ``feasibility_oracle``;
    feasible ones also go through the deterministic search, build, verify,
    audit and a short simulate."""

    MIN_PASSES = 1

    def __init__(self, sp, seed: int, timed: Callable):
        self.sp = sp
        self.timed = timed
        rng = random.Random(f"triage/{seed}")
        self.cases = []
        # Shapes follow a fixed schedule so that every seed gets the same
        # mix of sizes; the seed picks the values.
        for i in range(TRIAGE_INSTANCES):
            mixture = i % 2 == 0
            m = 2 + (i // 2) % 4
            n = 1 + (i // 8) % (m if mixture else m + 1)
            tier = "small" if m <= 3 else "mid" if m == 4 else "large"
            if mixture:
                inst = permutation_mixture(sp, rng, n, m)
            else:
                inst = random_grid(sp, rng, n, m)
            self.cases.append((tier, inst, rng.randrange(2**63)))

    def setup_checks(self) -> list[Check]:
        return []

    def jobs(self) -> list[Job]:
        return [Job(tier, partial(self._decide, inst, seed)) for tier, inst, seed in self.cases]

    def _decide(self, inst, seed: int) -> dict:
        sp = self.sp
        report = sp.check_feasible(inst)
        oracle = sp.feasibility_oracle(inst)
        out = {"feasible": report.feasible, "oracle": oracle.feasible, "signals": 0}
        if report.feasible:
            search = sp.find_deterministic_scheme(inst)
            scheme = sp.build_scheme(inst)
            verification = sp.verify_scheme(scheme, inst)
            audit = sp.necessity_audit(scheme)
            sim, simulated = _timed_simulate(self.timed, sp, scheme, inst, TRIAGE_SAMPLES, seed)
            out.update(
                search=search,
                scheme=scheme,
                verification=verification,
                audit=audit,
                sim=sim,
                signals=scheme.p,
                simulated=simulated,
            )
        return out

    def check(self, index: int, out: dict) -> tuple[list[Check], str]:
        sp = self.sp
        inst = self.cases[index][1]
        checks = [("check_feasible_matches_oracle", out["feasible"] == out["oracle"])]
        text = repr((out["feasible"], out["oracle"]))
        if out["feasible"]:
            search = out["search"]
            checks += _scheme_checks(sp, out["scheme"], inst, out["verification"], out["audit"])
            checks.append(("search_conclusive", search.status != "budget_exhausted"))
            if search.scheme is not None:
                checks.append(
                    ("deterministic_scheme_verifies",
                     sp.verify_scheme(search.scheme, inst).all_ok)
                )
            checks.append(("decode_success", out["sim"].decode_success == 1.0))
            text += repr((search.status, search.nodes))
            text += _scheme_text(out["scheme"]) + _sim_fields(out["sim"])
            if search.scheme is not None:
                text += _scheme_text(search.scheme)
        return checks, text


class Stream:
    """Schemes for seeded mixtures at m = 8, 16, 24 (n = m/2), built during
    set-up.  A pass runs, per scheme, one bulk ``simulate`` and then a
    closed loop of point queries: ``sample_world``, ``encode``, ``decode``."""

    MIN_PASSES = 1

    def __init__(self, sp, seed: int, timed: Callable):
        self.sp = sp
        self.timed = timed
        rng = random.Random(f"stream/{seed}")
        self.cases = []
        for tier, m in zip(TIERS, STREAM_RUNGS):
            inst = permutation_mixture(sp, rng, m // 2, m)
            scheme = sp.build_scheme(inst)
            self.cases.append((tier, inst, scheme, rng.randrange(2**63), rng.randrange(2**63)))

    def setup_checks(self) -> list[Check]:
        return [
            check
            for _, inst, scheme, _, _ in self.cases
            for check in _scheme_checks(self.sp, scheme, inst)
        ]

    def jobs(self) -> list[Job]:
        jobs = []
        for tier, inst, scheme, sim_seed, query_seed in self.cases:
            jobs.append(Job(None, partial(self._bulk, inst, scheme, sim_seed)))
            source = self.sp.RandomSource(query_seed)
            query = partial(self._query, inst, scheme, source)
            jobs.extend(Job(tier, query) for _ in range(STREAM_QUERIES))
        return jobs

    def _bulk(self, inst, scheme, seed: int) -> dict:
        sim, simulated = _timed_simulate(self.timed, self.sp, scheme, inst, STREAM_SAMPLES, seed)
        return {"sim": sim, "signals": scheme.p, "simulated": simulated}

    def _query(self, inst, scheme, source) -> dict:
        sp = self.sp
        x, y = sp.sample_world(inst, source)
        z = sp.encode(scheme, x, y, source)
        return {"query": (x, y, z, sp.decode(scheme, y, z))}

    def check(self, index: int, out: dict) -> tuple[list[Check], str]:
        if "sim" in out:
            return [("decode_success", out["sim"].decode_success == 1.0)], _sim_fields(out["sim"])
        x, _, _, decoded = out["query"]
        return [("decode_round_trip", decoded == x)], repr(out["query"])


WORKLOADS = {"ladder": Ladder, "triage": Triage, "stream": Stream}
