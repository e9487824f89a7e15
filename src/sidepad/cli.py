"""Command-line interface.

Exit codes, uniformly: 0 success (feasible / verified / built / decoded),
1 semantic failure (infeasible, verification failed, off-support event,
no deterministic scheme), 2 malformed input (documents, labels, argument
values), 3 capability refusal (the oracle's size cap, the ``shannon`` grid
cap, a rational too long to print).

Every subcommand takes ``--json`` for a machine-readable report in which
all rationals are printed exactly as "numerator/denominator" strings.
Where the library returns a report type, its JSON keys are that type's
fields in field order: ``simulate`` prints a ``SimReport``, and ``verify``
prints each law's ``CheckResult`` under the law's name and the
``NecessityAudit`` under ``necessity_audit``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .construction import (
    Scheme,
    build_scheme,
    find_deterministic_scheme,
    p_lower_bound,
)
from .errors import (
    CapExceededError,
    DimensionMismatchError,
    InfeasibleError,
    InputError,
    OffSupportError,
    UnverifiedSchemeError,
)
from .feasibility import check_feasible
from .formats import (
    parse_instance,
    parse_scheme,
    serialize_instance,
    serialize_scheme,
)
from .model import Instance, make_instance, rat_str
from .runtime import RandomSource, decode, encode, simulate
from .verification import (
    LAWS,
    CheckResult,
    feasibility_oracle,
    necessity_audit,
    verify_scheme,
)

# The uniform instance ``shannon`` builds holds n*m cells; beyond this many
# it is refused before any is built.
SHANNON_MAX_CELLS = 10**6

# Exit code of each error type a command may raise.  InternalInvariantError
# is a bug, not an outcome, and stays uncaught.
_EXIT_CODES = {
    InfeasibleError: 1, OffSupportError: 1, UnverifiedSchemeError: 1,
    InputError: 2, DimensionMismatchError: 2, UnicodeDecodeError: 2, OSError: 2,
    CapExceededError: 3,
}

def _jsonable(value):
    if isinstance(value, Fraction):
        text = rat_str(value)
        return f"{text}/1" if value.denominator == 1 else text
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit_json(payload: dict) -> None:
    print(json.dumps(_jsonable(payload), indent=2))


def _emit_document(args, document: str, payload: dict, wrote: str) -> None:
    """Write ``document`` to ``-o`` if given, then print the JSON payload,
    the line "wrote ``wrote`` to PATH", or the bare document."""
    if args.output:
        Path(args.output).write_text(document, encoding="utf-8")
    if args.json:
        _emit_json(payload)
    elif args.output:
        print(f"wrote {wrote} to {args.output}")
    else:
        print(document, end="")


def _load(parse, path: str):
    return parse(Path(path).read_text(encoding="utf-8"))


def _fmt_witness(witness: dict) -> str:
    parts = []
    for key, value in witness.items():
        if isinstance(value, Fraction):
            value = rat_str(value)
        elif isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        parts.append(f"{key}={value}")
    return " ".join(parts)


def _check_line(name: str, result: CheckResult) -> str:
    if result.ok:
        return f"{name}: pass"
    return f"{name}: FAIL ({_fmt_witness(result.witness or {})})"


def _scheme_payload(scheme: Scheme) -> dict:
    return {
        "n": scheme.n,
        "m": scheme.m,
        "p": scheme.p,
        "x_labels": list(scheme.x_labels),
        "y_labels": list(scheme.y_labels),
        "z_labels": list(scheme.z_labels),
        "px": list(scheme.px),
        "weights": list(scheme.weights),
        "assignments": [
            [None if col is None else col + 1 for col in sigma]
            for sigma in scheme.assignments
        ],
    }


def _label_index(labels: tuple[str, ...], label: str, kind: str) -> int:
    try:
        return labels.index(label)
    except ValueError:
        known = " ".join(labels)
        raise InputError(f"unknown {kind} label {label!r} (have: {known})") from None


def _infeasible_detail(inst: Instance, exc: InfeasibleError) -> str:
    names = ", ".join(inst.y_labels[j] for j in exc.violations)
    return f"infeasible: column sum exceeds 1 at {names}"


def cmd_check(args) -> int:
    inst = _load(parse_instance, args.instance)
    report = check_feasible(inst)
    sc = report.shannon_case
    if args.json:
        _emit_json(
            {
                "kind": "feasibility",
                "feasible": report.feasible,
                "column_sums": list(report.column_sums),
                "violations": [inst.y_labels[j] for j in report.violations],
                "shannon": {
                    "independent": sc.independent,
                    "y_uniform": sc.y_uniform,
                    "applies": sc.applies,
                    "n": sc.n,
                    "m": sc.m,
                    "feasible_by_count": sc.feasible_by_count,
                },
            }
        )
    else:
        sums = " ".join(
            f"{label}={rat_str(value)}"
            for label, value in zip(inst.y_labels, report.column_sums)
        )
        print(f"column sums: {sums}")
        if report.violations:
            bad = " ".join(inst.y_labels[j] for j in report.violations)
            print(f"violated columns: {bad}")
        if sc.applies:
            verdict = "n <= m" if sc.feasible_by_count else "n > m"
            print(
                f"independent uniform case: n={sc.n} states, m={sc.m} values ({verdict})"
            )
        print(f"feasible: {'yes' if report.feasible else 'no'}")
    return 0 if report.feasible else 1


def cmd_build(args) -> int:
    inst = _load(parse_instance, args.instance)
    try:
        scheme = build_scheme(inst)
    except InfeasibleError as exc:
        print(_infeasible_detail(inst, exc), file=sys.stderr)
        return 1
    payload = {
        "kind": "scheme",
        **_scheme_payload(scheme),
        "p_lower_bound": p_lower_bound(inst),
    } if args.json else {}
    _emit_document(
        args, serialize_scheme(scheme), payload, f"scheme ({scheme.p} signals)"
    )
    return 0


def cmd_verify(args) -> int:
    scheme = _load(parse_scheme, args.scheme)
    inst = _load(parse_instance, args.against)
    report = verify_scheme(scheme, inst)
    audit = necessity_audit(scheme) if report.all_ok else None
    ok = report.all_ok and (audit is None or audit.ok)
    if args.json:
        _emit_json({
            "kind": "verification",
            "verified": ok,
            **{law: asdict(getattr(report, law)) for law in LAWS},
            "q_z": report.q_z,
            "q_xz": report.q_xz,
            "q_yz": report.q_yz,
            "q_xy": report.q_xy,
            "necessity_audit": None if audit is None else asdict(audit),
        })
    else:
        for law in LAWS:
            print(_check_line(law, getattr(report, law)))
        if audit is None:
            print("necessity audit: skipped")
        elif audit.ok:
            masses = [v for v in audit.column_mass if v is not None]
            top = max(masses) if masses else Fraction(0)
            print(f"necessity audit: pass (max column mass {rat_str(top)})")
        else:
            print(f"necessity audit: FAIL ({_fmt_witness(audit.witness or {})})")
        print(f"verified: {'yes' if ok else 'no'}")
    return 0 if ok else 1


def cmd_encode(args) -> int:
    scheme = _load(parse_scheme, args.scheme)
    x = _label_index(scheme.x_labels, args.x, "x")
    y = _label_index(scheme.y_labels, args.y, "y")
    z = encode(scheme, x, y, RandomSource(args.seed))
    if args.json:
        _emit_json({"kind": "encode", "z": scheme.z_labels[z]})
    else:
        print(scheme.z_labels[z])
    return 0


def cmd_decode(args) -> int:
    scheme = _load(parse_scheme, args.scheme)
    y = _label_index(scheme.y_labels, args.y, "y")
    z = _label_index(scheme.z_labels, args.z, "z")
    x = decode(scheme, y, z)
    if args.json:
        _emit_json({"kind": "decode", "x": scheme.x_labels[x]})
    else:
        print(scheme.x_labels[x])
    return 0


def cmd_simulate(args) -> int:
    scheme = _load(parse_scheme, args.scheme)
    inst = _load(parse_instance, args.against)
    report = simulate(
        scheme,
        inst,
        args.samples,
        args.seed,
        shards=args.shards,
        min_count=args.min_count,
        allow_unverified=args.allow_unverified,
    )
    if args.json:
        _emit_json({"kind": "simulation", **asdict(report)})
    else:
        print(f"samples: {report.samples}")
        print(f"decode success: {report.decode_success:.6f}")
        qz = " ".join(
            f"{label}={value:.6f}"
            for label, value in zip(scheme.z_labels, report.empirical_qz)
        )
        print(f"empirical Q_Z: {qz}")
        tv = " ".join(
            f"{label}={'n/a' if value is None else format(value, '.6f')}"
            for label, value in zip(scheme.z_labels, report.tv_secrecy)
        )
        print(f"TV from P_X by signal (min count {report.min_count}): {tv}")
        print(f"max TV: {report.max_tv:.6f}")
    return 0


def cmd_oracle(args) -> int:
    inst = _load(parse_instance, args.instance)
    report = feasibility_oracle(inst)
    if args.json:
        _emit_json(
            {
                "kind": "oracle",
                "feasible": report.feasible,
                "support": None
                if report.support is None
                else [
                    {"weight": weight, "perm": [j + 1 for j in perm]}
                    for weight, perm in report.support
                ],
            }
        )
    elif report.feasible:
        print(f"oracle: feasible (mixture of {len(report.support)} permutations)")
    else:
        print("oracle: infeasible")
    return 0 if report.feasible else 1


def cmd_shannon(args) -> int:
    if args.n < 1 or args.m < 1:
        raise InputError("state and value counts must be >= 1")
    if args.n * args.m > SHANNON_MAX_CELLS:
        raise CapExceededError(
            f"shannon caps the grid at {SHANNON_MAX_CELLS} cells; "
            f"got n={args.n} by m={args.m}"
        )
    mass = Fraction(1, args.n * args.m)
    inst = make_instance(
        [f"x{i+1}" for i in range(args.n)],
        [f"y{j+1}" for j in range(args.m)],
        [[mass] * args.m for _ in range(args.n)],
    )
    payload = {
        "kind": "instance",
        "n": inst.n,
        "m": inst.m,
        "x_labels": list(inst.x_labels),
        "y_labels": list(inst.y_labels),
        "p_xy": [list(row) for row in inst.p_xy],
    } if args.json else {}
    _emit_document(args, serialize_instance(inst), payload, "instance")
    return 0


def cmd_deterministic(args) -> int:
    inst = _load(parse_instance, args.instance)
    try:
        outcome = find_deterministic_scheme(inst)
    except InfeasibleError as exc:
        print(_infeasible_detail(inst, exc), file=sys.stderr)
        return 1
    condition, scheme = outcome.row_multisets_equal, outcome.scheme
    if scheme is not None:
        document = serialize_scheme(scheme)
        if args.output:
            Path(args.output).write_text(document, encoding="utf-8")
    if args.json:
        _emit_json(
            {
                "kind": "deterministic-search",
                "status": outcome.status,
                "nodes": outcome.nodes,
                "row_multisets_equal": condition,
                "scheme": None if scheme is None else _scheme_payload(scheme),
            }
        )
    elif scheme is not None and not args.output:
        # Bare document on stdout so the result pipes into verify.
        print(document, end="")
    else:
        print(f"row value multisets equal: {'yes' if condition else 'no'}")
        print(
            "no deterministic scheme exists" if scheme is None
            else f"wrote deterministic scheme to {args.output}"
        )
    return 1 if scheme is None else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sidepad",
        description=(
            "Decide, build, verify, and exercise schemes that reveal a "
            "state through a public signal to holders of side information "
            "while leaking nothing to everyone else."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(func, help: str) -> argparse.ArgumentParser:
        """Register ``func``, named ``cmd_<name>``, as subcommand ``name``;
        ``--json`` is added to every subcommand last, after its own options."""
        p = sub.add_parser(func.__name__[len("cmd_"):], help=help)
        p.set_defaults(func=func)
        return p

    p = command(cmd_check, "decide feasibility from the column sums")
    p.add_argument("instance", help="INSTANCE v1 file")

    p = command(cmd_build, "construct a scheme for a feasible instance")
    p.add_argument("instance", help="INSTANCE v1 file")
    p.add_argument("-o", "--output", help="write the SCHEME v1 document here")

    p = command(cmd_verify, "check a scheme against an instance")
    p.add_argument("scheme", help="SCHEME v1 file")
    p.add_argument("--against", required=True, help="INSTANCE v1 file")

    p = command(cmd_encode, "draw the public signal for one event")
    p.add_argument("scheme", help="SCHEME v1 file")
    p.add_argument("--x", required=True, help="state label")
    p.add_argument("--y", required=True, help="side-information label")
    p.add_argument("--seed", required=True, type=int, help="RNG seed")

    p = command(cmd_decode, "recover the state from (y, z)")
    p.add_argument("scheme", help="SCHEME v1 file")
    p.add_argument("--y", required=True, help="side-information label")
    p.add_argument("--z", required=True, help="signal label")

    p = command(cmd_simulate, "Monte Carlo the whole loop")
    p.add_argument("scheme", help="SCHEME v1 file")
    p.add_argument("--against", required=True, help="INSTANCE v1 file")
    p.add_argument("-n", "--samples", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument(
        "--min-count",
        type=int,
        default=1000,
        help="signals observed fewer times get no TV estimate",
    )
    p.add_argument("--allow-unverified", action="store_true")

    p = command(cmd_oracle, "brute-force LP over permutation mixtures on the support")
    p.add_argument("instance", help="INSTANCE v1 file")

    p = command(
        cmd_shannon, "emit the uniform independent instance (n states, m values)"
    )
    p.add_argument("-n", required=True, type=int, dest="n")
    p.add_argument("-m", required=True, type=int, dest="m")
    p.add_argument("-o", "--output")

    p = command(cmd_deterministic, "decide whether a randomness-free encoder exists")
    p.add_argument("instance", help="INSTANCE v1 file")
    p.add_argument("-o", "--output", help="write the scheme here if found")

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed the pipe, as ``| head`` does: not an input error.
        # Pointing stdout at devnull keeps the exit-time flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(c for kind, c in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
