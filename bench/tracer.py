"""In-memory span tracing for the benchmark's traced runs.

While a :class:`Tracer` is installed, every public function of the seven
timed sidepad modules is replaced, in every ``sidepad.*`` namespace that
binds it, by a wrapper that records one :class:`Span`.  The library
imports these functions by name (``sidepad.runtime`` calls its own
``decode_table`` and ``verify_scheme`` bindings), so wrapping only the
defining module would miss nested calls.  ``RandomSource.randbelow`` runs
once per draw, so it gets a counter instead of a span.  Uninstalling puts
every original object back.

Nothing here is imported by sidepad: spans exist only in the benchmark's
own files, and the untraced runs execute the library unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Iterator, Optional, Sequence

LAYERS = (
    "model",
    "feasibility",
    "construction",
    "formats",
    "verification",
    "simplex",
    "runtime",
)


class Span:
    """One call of a wrapped function.  ``parent`` is the index of the
    enclosing span in the same list, ``job`` the benchmark job it ran in,
    and ``info`` whatever the span's extractor kept from the call."""

    __slots__ = ("name", "start", "end", "parent", "job", "info")

    def __init__(
        self,
        name: str,
        start: float = 0.0,
        end: float = 0.0,
        parent: Optional[int] = None,
        job: Optional[int] = None,
        info: object = None,
    ):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job
        self.info = info


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result


def _document(args, kwargs, result):
    return args[0] if args else kwargs.get("text", "")


# What a span keeps from its call, for counts computed after the run.
# Extractors return references or O(1) values, so they add no measurable
# time to the enclosing span.
_EXTRACTORS: dict[str, Callable] = {
    "construction.extend": lambda args, kwargs, result: result,
    "construction.build_scheme": lambda args, kwargs, result: (result.p, result.m),
    "construction.find_deterministic_scheme": lambda args, kwargs, result: result.nodes,
    "simplex.feasible_nonnegative_solution": lambda args, kwargs, result: (
        len(args[0][0]) if args and args[0] else 0
    ),
    "runtime.simulate": lambda args, kwargs, result: result.samples,
    "formats.parse_instance": _document,
    "formats.parse_scheme": _document,
    "formats.serialize_instance": lambda args, kwargs, result: result,
    "formats.serialize_scheme": lambda args, kwargs, result: result,
}


class Tracer:
    """Span recorder.  Spans of every installation accumulate in
    ``spans``; ``draws`` counts ``RandomSource.randbelow`` calls.  The
    caller numbers jobs through ``job`` and may record each job's
    speed-normalization factor in ``job_scales``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.draws = 0
        self.job: Optional[int] = None
        self.job_scales: list[float] = []
        self.recording = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        extract = _EXTRACTORS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = Span(name, parent=stack[-1] if stack else None, job=self.job)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if extract is not None:
                span.info = extract(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        originals: dict[int, tuple[Callable, Callable]] = {}
        for layer in LAYERS:
            module = sys.modules[f"sidepad.{layer}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    originals[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for name, module in list(sys.modules.items()):
            if name != "sidepad" and not name.startswith("sidepad."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

        source = sys.modules["sidepad.runtime"].RandomSource
        randbelow = source.randbelow

        def counted_randbelow(rng, bound):
            self.draws += self.recording
            return randbelow(rng, bound)

        source.randbelow = counted_randbelow
        self._patches.append((source, "randbelow", randbelow))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
        self._stack.clear()
        self.job = None

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Run library calls through the wrappers without recording them."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def layer_metrics(
    spans: Sequence[Span],
    draws: int,
    passes: int,
    job_scales: Optional[Sequence[float]] = None,
) -> dict[str, float]:
    """Per-module metrics of ``passes`` identical traced passes, reported per
    pass: self times in seconds (each scaled by its job's entry in
    ``job_scales`` when given), counts as totals divided by ``passes``,
    and ratios of the totals."""
    selfs = self_times(spans)
    self_by_name: Counter = Counter()
    calls: Counter = Counter()
    for span, own in zip(spans, selfs):
        self_by_name[span.name] += own * (job_scales[span.job] if job_scales else 1.0)
        calls[span.name] += 1

    def infos(name: str) -> list:
        return [s.info for s in spans if s.name == name]

    def module_self(layer: str) -> float:
        return sum(v for k, v in self_by_name.items() if k.startswith(layer + "."))

    def module_calls(layer: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    built = infos("construction.build_scheme")
    bound = sum(m * m - 2 * m + 2 for _, m in built)
    nnz = sum(
        sum(1 for row in ext.entries for v in row if v > 0)
        for ext in infos("construction.extend")
    )
    decodes = calls["runtime.decode"]
    nested_tables = sum(
        1
        for s in spans
        if s.name == "verification.decode_table"
        and s.parent is not None
        and spans[s.parent].name == "runtime.decode"
    )
    samples = sum(infos("runtime.simulate")) + calls["runtime.sample_world"]
    document_bytes = sum(
        len(s.info.encode("utf-8"))
        for s in spans
        if s.name.startswith("formats.") and isinstance(s.info, str)
    )

    totals = {
        "construction.self_s": module_self("construction"),
        "construction.birkhoff_decompose.self_s": self_by_name["construction.birkhoff_decompose"],
        "construction.extend.self_s": self_by_name["construction.extend"],
        "construction.perfect_matching.calls": calls["construction.perfect_matching"],
        "construction.perfect_matching.self_s": self_by_name["construction.perfect_matching"],
        "construction.nnz": nnz,
        "construction.find_deterministic_scheme.self_s": self_by_name[
            "construction.find_deterministic_scheme"
        ],
        "construction.det_nodes": sum(infos("construction.find_deterministic_scheme")),
        "verification.self_s": module_self("verification"),
        "verification.verify_scheme.self_s": self_by_name["verification.verify_scheme"],
        "verification.necessity_audit.self_s": self_by_name["verification.necessity_audit"],
        "verification.support_signals.calls": calls["verification.support_signals"],
        "verification.decode_table.calls": calls["verification.decode_table"],
        "verification.check_informativeness.calls": calls[
            "verification.check_informativeness"
        ],
        "verification.feasibility_oracle.self_s": self_by_name[
            "verification.feasibility_oracle"
        ],
        "simplex.self_s": module_self("simplex"),
        "simplex.calls": module_calls("simplex"),
        "simplex.variables": sum(infos("simplex.feasible_nonnegative_solution")),
        "runtime.self_s": module_self("runtime"),
        "runtime.simulate.self_s": self_by_name["runtime.simulate"],
        "runtime.sample_world.self_s": self_by_name["runtime.sample_world"],
        "runtime.encode.self_s": self_by_name["runtime.encode"],
        "runtime.decode.self_s": self_by_name["runtime.decode"],
        "runtime.samples": samples,
        "runtime.draws": draws,
        "formats.self_s": module_self("formats"),
        "formats.calls": module_calls("formats"),
        "formats.bytes": document_bytes,
        "model.self_s": module_self("model"),
        "model.calls": module_calls("model"),
        "feasibility.self_s": module_self("feasibility"),
        "feasibility.calls": module_calls("feasibility"),
    }
    metrics = {name: value / passes for name, value in totals.items()}
    metrics["construction.signals_over_bound"] = (
        sum(p for p, _ in built) / bound if bound else 0.0
    )
    metrics["verification.table_builds_per_decode"] = (
        nested_tables / decodes if decodes else 0.0
    )
    metrics["runtime.draws_per_sample"] = draws / samples if samples else 0.0
    return metrics
