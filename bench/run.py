"""sidepad benchmark: one workload, one seed, end to end or per module.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

The library is imported from ``src/`` of the checkout, never from an
installed copy.  Set-up (a fresh import of sidepad, input generation from
``--seed`` and, on ``stream``, the scheme builds) is repeated
``SETUP_REPEATS`` times and its median is ``setup_s``.  The timed phase
then repeats passes of the workload's fixed job list, one job at a time:
the workload's minimum (one, or two on ``ladder``), then more while the
next one should end within ``--seconds``.  Each job's time is its median over the passes.  Each
job's output is checked right after the job, untimed, and hashed into
the pass digest; every pass must give the same digest, and so must every
earlier run of the same code and seed whose results are still in
``bench/results/``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes and prints the
per-module metrics, per pass, from the traced ones; ``trace.overhead`` is
the time of a traced pass over that of an untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
show every metric with its unit and sample count.  A results file with
run metadata goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads
from clock import REFERENCE_S, Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 5


def load_sidepad():
    """Import sidepad afresh from the checkout's sources."""
    for name in [n for n in sys.modules if n == "sidepad" or n.startswith("sidepad.")]:
        del sys.modules[name]
    return importlib.import_module("sidepad")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Pass:
    """Per-job timings, counts and checks of one pass over a workload's jobs.
    ``times`` and ``sim_times`` are speed-normalized (see clock.py);
    ``busy`` keeps the raw busy seconds."""

    def __init__(self, workload, speed, tracer=None):
        jobs = workload.jobs()
        self.tiers = [job.tier for job in jobs]
        self.busy: list[float] = []
        self.times: list[float] = []
        self.sim_times: list[float] = []
        self.sim_samples = 0
        self.signals = 0
        self.checks: list[tuple[str, bool]] = []
        digest = hashlib.sha256()
        with tracer.installed() if tracer else contextlib.nullcontext():
            for index, job in enumerate(jobs):
                if tracer:
                    tracer.job = len(tracer.job_scales)
                output, busy, ref = speed.measure(partial(attempt, workload, job))
                scale = REFERENCE_S / ref
                if tracer:
                    tracer.job_scales.append(scale)
                self.busy.append(busy)
                self.times.append(busy * scale)
                # Checks run untimed and unrecorded, right after the job, so
                # that no pass holds more than one job's outputs.
                with tracer.paused() if tracer else contextlib.nullcontext():
                    if isinstance(output, Exception):
                        self.checks.append((f"job raised {type(output).__name__}", False))
                        self.sim_times.append(0.0)
                        digest.update(repr(output).encode())
                        continue
                    checks, text = workload.check(index, output)
                self.checks += checks
                digest.update(text.encode())
                self.signals += output.get("signals", 0)
                samples, seconds = output.get("simulated", (0, 0.0))
                self.sim_samples += samples
                self.sim_times.append(seconds)
        self.digest = digest.hexdigest()


def attempt(workload, job):
    try:
        return job.run()
    except workload.sp.SidepadError as exc:
        return exc


def set_up(name: str, seed: int, timed):
    sp = load_sidepad()
    return sp, workloads.WORKLOADS[name](sp, seed, timed)


def typical(passes, attr: str) -> list[float]:
    """Each job's median time over the passes, which all repeat the same
    work.  The median resists bursts of contention on a shared machine."""
    return [statistics.median(values) for values in zip(*(getattr(p, attr) for p in passes))]


def latency_by_tier(passes) -> dict[str, list[float]]:
    times = typical(passes, "times")
    return {
        tier: [t for t, name in zip(times, passes[0].tiers) if name == tier]
        for tier in workloads.TIERS
    }


def end_to_end(setup_times, passes):
    """Metric name -> (value, sample-count note)."""
    tiers = latency_by_tier(passes)
    times = [t for values in tiers.values() for t in values]
    sim_s = sum(typical(passes, "sim_times"))
    runs = f"median of {len(passes)} passes"
    metrics = {
        "setup_s": (statistics.median(setup_times), f"median of {len(setup_times)} set-ups"),
        "wall_s": (sum(typical(passes, "times")), f"one pass, each job {runs}"),
        "signals": (passes[0].signals, "signals of one pass"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "whole process",
        ),
        "samples_per_s": (
            passes[0].sim_samples / sim_s,
            f"{passes[0].sim_samples} samples, {runs}",
        ),
        "job_ms.p50": (statistics.median(times) * 1e3, f"n={len(times)} jobs, {runs}"),
        "job_ms.p95": (percentile(times, 0.95) * 1e3, f"n={len(times)} jobs, {runs}"),
    }
    for tier, values in tiers.items():
        metrics[f"mean_ms.{tier}"] = (
            statistics.fmean(values) * 1e3,
            f"n={len(values)} jobs, {runs}",
        )
    return metrics


def issue_names(workload_name, passes, checks):
    """The per-workload names the roadmap and issues use, derived from the
    same samples: name -> (value, unit, sample-count note)."""
    tiers = latency_by_tier(passes)
    times = [t for values in tiers.values() for t in values]
    n = f"n={len(times)}"
    failed = sum(not ok for _, ok in checks)
    names = {"failed_frac": (failed / len(checks), "ratio", f"{len(checks)} checks")}
    if workload_name == "ladder":
        for values, m in zip(tiers.values(), workloads.LADDER_RUNGS):
            names[f"loop_s.m{m}"] = (statistics.median(values), "s", f"n={len(values)}")
    elif workload_name == "triage":
        names["decide_ms.p50"] = (statistics.median(times) * 1e3, "ms", n)
        names["decide_ms.p95"] = (percentile(times, 0.95) * 1e3, "ms", n)
    else:
        names["query_us.p50"] = (statistics.median(times) * 1e6, "us", n)
        names["query_us.p99"] = (percentile(times, 0.99) * 1e6, "us", n)
    return names


def code_hash() -> str:
    """SHA-256 over the library and benchmark sources: the identity of the
    code a digest belongs to."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.glob("sidepad/*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def earlier_digests(workload_name: str, seed: int, code: str):
    """Digests of earlier runs of this code, workload and seed."""
    found = []
    for trace in (0, 1):
        path = RESULTS / f"{workload_name}-seed{seed}-trace{trace}.json"
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if record.get("code_sha256") == code:
            found.append(record.get("digest"))
    return found


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sidepad" / "__init__.py").is_file():
        print(f"error: no sidepad sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))

    with Speedometer() as speed:
        setup = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            (sp, workload), busy, ref = speed.measure(
                partial(set_up, args.workload, args.seed, speed.timed)
            )
            setup.append((busy, ref))
        if SRC.resolve() not in Path(sp.__file__).resolve().parents:
            print(f"error: imported sidepad from {sp.__file__}, not {SRC}", file=sys.stderr)
            return 2
        checks = list(workload.setup_checks())

        passes, traced = [], []
        tracer = tracing.Tracer() if args.trace else None
        start = perf_counter()
        last = 0.0
        # The workload's minimum of passes (one untraced and traced pair
        # when tracing), then more while the next should end in time.
        while (
            len(passes) < (1 if tracer else workload.MIN_PASSES)
            or perf_counter() - start + last <= args.seconds
        ):
            began = perf_counter()
            # Every pass starts from a collected heap, untimed.
            gc.collect()
            passes.append(Pass(workload, speed))
            if tracer:
                gc.collect()
                traced.append(Pass(workload, speed, tracer))
            last = perf_counter() - began
    setup_times = [busy * REFERENCE_S / ref for busy, ref in setup]
    for p in passes + traced:
        checks += p.checks

    code = code_hash()
    digest = passes[0].digest
    checks.append(
        ("digest_same_every_pass", all(p.digest == digest for p in passes + traced))
    )
    checks.append(
        ("digest_same_as_earlier_runs",
         all(d == digest for d in earlier_digests(args.workload, args.seed, code)))
    )

    if tracer:
        values = tracing.layer_metrics(
            tracer.spans, tracer.draws, len(traced), tracer.job_scales
        )
        values["trace.overhead"] = sum(typical(traced, "times")) / sum(typical(passes, "times"))
        notes = {name: f"per pass, {len(traced)} traced passes" for name in values}
    else:
        measured = end_to_end(setup_times, passes)
        values = {name: value for name, (value, _) in measured.items()}
        notes = {name: note for name, (_, note) in measured.items()}
    differ = {m["name"] for m in wanted} ^ set(values)
    if differ:
        raise SystemExit(f"metric set differs from BENCHMARK.json: {sorted(differ)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    failed = [name for name, ok in checks if not ok]
    aliases = issue_names(args.workload, passes, checks)
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "digest": digest,
        "code_sha256": code,
        "git_sha": git_sha(),
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "passes": len(passes),
        "traced_passes": len(traced),
        "jobs_per_pass": len(passes[0].times),
        "simulated_samples_per_pass": passes[0].sim_samples,
        "setup_s": setup_times,
        "setup_busy_s": [busy for busy, _ in setup],
        "pass_s": [sum(p.times) for p in passes],
        "pass_busy_s": [sum(p.busy) for p in passes],
        "traced_pass_s": [sum(p.times) for p in traced],
        "traced_pass_busy_s": [sum(p.busy) for p in traced],
        "kernel_fastest_s": min(speed.samples),
        "kernel_quartiles_s": statistics.quantiles(speed.samples, n=4),
        "kernel_samples": len(speed.samples),
        "sample_counts": notes,
        "issue_names": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in aliases.items()},
        "failed_checks": sorted(set(failed)),
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}+{len(traced)} traced  digest {digest[:16]}")
    for name, entry in metrics.items():
        print(f"  {name:<45} {entry['value']:>16.6f} {entry['unit']:<6} ({notes[name]})")
    for name, (value, unit, note) in aliases.items():
        print(f"  issue name {name:<34} {value:>16.6f} {unit:<6} ({note})")
    for name in sorted(set(failed)):
        print(f"  FAILED check: {name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
