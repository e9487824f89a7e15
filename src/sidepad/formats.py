"""Plain-text documents for instances and schemes.

Both formats are UTF-8 token streams: tokens are separated by arbitrary
whitespace, and ``#`` starts a comment that runs to end of line.  Line
breaks are cosmetic everywhere except that the serializers emit a fixed
canonical layout.  Rational tokens use the forms accepted by
:func:`sidepad.model.rat_parse` (``a/b``, integer, finite decimal) and are
written back canonically via ``str(Fraction)``, so serialize/parse
round-trips reproduce values exactly.  Numbers and counts use ASCII digits
only: counts and column indices are plain ``[0-9]+`` (no sign, no ``_``),
and other scripts' digits are refused.

``INSTANCE v1`` token order::

    INSTANCE v1
    n m                     # states, side-information values
    x labels (n tokens)
    y labels (m tokens)
    joint grid              # n*m rationals, row major, nonnegative, mass 1

``SCHEME v1`` token order::

    SCHEME v1
    n m p                   # supported states, columns, signals
    x labels (n tokens)     # supported states, instance order
    y labels (m tokens)
    P_X restricted to those states (n positive rationals)
    p signal lines:  z-label  weight  m 1-based column indices

Scheme parsing enforces *syntax* only: header, counts, parseable rationals,
positive weights and masses, unique labels, column indices in range.  The
semantic laws — weights summing to one, per-signal bijectivity, agreement
with a particular instance — are deliberately left to verification, so a
hand-edited broken scheme still loads and then fails ``verify`` with a
witness instead of being unreadable.
"""

from __future__ import annotations

from fractions import Fraction

from .construction import Scheme
from .errors import InputError
from .model import Instance, _clip, _clip_rat, make_instance, rat_parse, rat_str

INSTANCE_MAGIC = ("INSTANCE", "v1")
SCHEME_MAGIC = ("SCHEME", "v1")


class _Cursor:
    """Token stream with positional error messages."""

    def __init__(self, text: str):
        tokens: list[str] = []
        for line in text.splitlines():
            tokens.extend(line.split("#", 1)[0].split())
        self._tokens = tokens
        self._pos = 0

    def next(self, what: str) -> str:
        if self._pos >= len(self._tokens):
            raise InputError(f"unexpected end of document: expected {what}")
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def next_int(self, what: str, minimum: int = 1) -> int:
        token = self.next(what)
        if not (token.isascii() and token.isdigit()):
            raise InputError(f"expected {what}, got {_clip(token)}")
        try:
            value = int(token)
        except ValueError:
            # int()'s limit on digits per conversion (4,300 by default).
            raise InputError(
                f"{what} too long ({len(token)} digits): {_clip(token)}"
            ) from None
        if value < minimum:
            raise InputError(f"{what} must be >= {minimum}, got {value}")
        return value

    def next_rational(self, what: str) -> Fraction:
        token = self.next(what)
        try:
            return rat_parse(token)
        except InputError as exc:
            raise InputError(f"{what}: {exc}") from None

    def finish(self, kind: str) -> None:
        if self._pos != len(self._tokens):
            extra = self._tokens[self._pos]
            raise InputError(f"trailing tokens after {kind} document (first: {extra!r})")

    def expect_magic(self, magic: tuple[str, str]) -> None:
        got = (self.next("format name"), self.next("format version"))
        if got != magic:
            raise InputError(
                f"bad header: expected {' '.join(magic)!r}, got {' '.join(got)!r}"
            )


def parse_instance(text: str) -> Instance:
    """Parse an ``INSTANCE v1`` document.  Raises :class:`InputError` on any
    malformation, including mass not summing to one."""
    cur = _Cursor(text)
    cur.expect_magic(INSTANCE_MAGIC)
    n = cur.next_int("state count n")
    m = cur.next_int("side-information count m")
    x_labels = [cur.next(f"x label {i+1}") for i in range(n)]
    y_labels = [cur.next(f"y label {j+1}") for j in range(m)]
    grid = [
        [cur.next_rational(f"P_XY entry ({i+1},{j+1})") for j in range(m)]
        for i in range(n)
    ]
    cur.finish("INSTANCE")
    return make_instance(x_labels, y_labels, grid)


def serialize_instance(inst: Instance) -> str:
    """Render an instance in the canonical ``INSTANCE v1`` layout."""
    lines = [
        " ".join(INSTANCE_MAGIC),
        f"{inst.n} {inst.m}",
        " ".join(inst.x_labels),
        " ".join(inst.y_labels),
    ]
    lines.extend(" ".join(rat_str(v) for v in row) for row in inst.p_xy)
    return "\n".join(lines) + "\n"


def parse_scheme(text: str) -> Scheme:
    """Parse a ``SCHEME v1`` document (syntax checks only; see module doc)."""
    cur = _Cursor(text)
    cur.expect_magic(SCHEME_MAGIC)
    n = cur.next_int("state count n")
    m = cur.next_int("column count m")
    p = cur.next_int("signal count p")
    if n > m:
        raise InputError(f"scheme needs n <= m, got n={n} m={m}")
    x_labels = [cur.next(f"x label {i+1}") for i in range(n)]
    y_labels = [cur.next(f"y label {j+1}") for j in range(m)]
    px = []
    for i in range(n):
        v = cur.next_rational(f"P_X({x_labels[i] if i < len(x_labels) else i+1})")
        if v <= 0:
            raise InputError(f"state mass must be positive, got {_clip_rat(v)}")
        px.append(v)
    z_labels = []
    weights = []
    assignments = []
    for k in range(p):
        z_labels.append(cur.next(f"z label {k+1}"))
        w = cur.next_rational(f"weight of signal {k+1}")
        if w <= 0:
            raise InputError(f"signal weight must be positive, got {_clip_rat(w)}")
        weights.append(w)
        sigma = []
        for i in range(m):
            col = cur.next_int(f"column for row {i+1} of signal {k+1}", minimum=1)
            if col > m:
                raise InputError(f"column index {col} out of range 1..{m}")
            sigma.append(col - 1)
        assignments.append(tuple(sigma))
    cur.finish("SCHEME")
    return Scheme(
        x_labels=tuple(x_labels),
        y_labels=tuple(y_labels),
        z_labels=tuple(z_labels),
        px=tuple(px),
        weights=tuple(weights),
        assignments=tuple(assignments),
    )


def serialize_scheme(scheme: Scheme) -> str:
    """Render a scheme in the canonical ``SCHEME v1`` layout.

    Only total schemes are representable: a scheme holding an unassigned
    row (possible in code, useful to exercise verification failures) has
    no wire form and is refused.
    """
    for sigma in scheme.assignments:
        if any(col is None for col in sigma):
            raise InputError("scheme with unassigned rows cannot be serialized")
    lines = [
        " ".join(SCHEME_MAGIC),
        f"{scheme.n} {scheme.m} {scheme.p}",
        " ".join(scheme.x_labels),
        " ".join(scheme.y_labels),
        " ".join(rat_str(v) for v in scheme.px),
    ]
    for k in range(scheme.p):
        cols = " ".join(str(col + 1) for col in scheme.assignments[k])  # type: ignore[operator]
        lines.append(f"{scheme.z_labels[k]} {rat_str(scheme.weights[k])} {cols}")
    return "\n".join(lines) + "\n"
