"""Plain-text documents for instances and schemes.

Both formats are UTF-8 token streams: tokens are separated by arbitrary
whitespace, and ``#`` starts a comment that runs to end of line.  Line
breaks are cosmetic everywhere except that the serializers emit a fixed
canonical layout.  Rational tokens use the forms accepted by
:func:`sidepad.model.rat_parse` (``a/b``, integer, finite decimal) and are
written back canonically via ``str(Fraction)``, so serialize/parse
round-trips reproduce values exactly; a reader parses each distinct
rational token of a document once.  Numbers and counts use ASCII digits
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
column indices in range.  :class:`Scheme` enforces label syntax, unique
labels, and positive weights and masses.  The three laws are left to
verification, which reads the real states only: padding rows are
range-checked at load and read by no law.  A hand-edited broken scheme
loads, then fails ``verify`` with a witness instead of being unreadable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .construction import Scheme
from .errors import InputError
from .model import Instance, _clip, _Memo, make_instance, rat_parse, rat_str

INSTANCE_MAGIC = ("INSTANCE", "v1")
SCHEME_MAGIC = ("SCHEME", "v1")


class _Rationals(_Memo):
    """A document's rational tokens, token -> Fraction, each distinct token
    parsed on first lookup.  A token refused is never stored, so it is
    refused at its first position, as without the memo."""

    def __init__(self):
        super().__init__(rat_parse)

    def __call__(self, tokens: list[str], what: Callable[[int], str]) -> list[Fraction]:
        """A run of rational tokens, as a ``_Cursor.run`` conversion."""
        try:
            return list(map(self.__getitem__, tokens))
        except InputError as exc:
            k = next(k for k, token in enumerate(tokens) if token not in self)
            raise InputError(f"{what(k)}: {exc}") from None


class _Cursor:
    """Token stream read in counted runs, converted in order.  ``what(k)``
    names a run's k-th token (from 0) only in a message: for the token
    refused, or the first one missing once those before it have passed.
    A run is a slice, so a header that claims 10**9 tokens costs nothing."""

    def __init__(self, text: str):
        tokens: list[str] = []
        for line in text.splitlines():
            tokens.extend(line.split("#", 1)[0].split())
        self._tokens = tokens
        self._pos = 0
        self.rationals = _Rationals()  # one memo for every run of the document

    def run(self, count: int, what: Callable[[int], str], convert=None) -> list:
        tokens = self._tokens[self._pos : self._pos + count]
        self._pos += len(tokens)
        values = tokens if convert is None else convert(tokens, what)
        if len(tokens) < count:
            raise InputError(f"unexpected end of document: expected {what(len(tokens))}")
        return values

    def finish(self, kind: str) -> None:
        if self._pos != len(self._tokens):
            extra = self._tokens[self._pos]
            raise InputError(f"trailing tokens after {kind} document (first: {extra!r})")

    def expect_magic(self, magic: tuple[str, str]) -> None:
        got = tuple(self.run(2, ("format name", "format version").__getitem__))
        if got != magic:
            raise InputError(
                f"bad header: expected {' '.join(magic)!r}, got {' '.join(got)!r}"
            )


def _counts(tokens: list[str], what: Callable[[int], str], top=None) -> list[int]:
    """Counts and 1-based column indices: ASCII digits, from 1 up to ``top``."""
    values: list[int] = []
    for token in tokens:
        if not (token.isascii() and token.isdigit()):
            raise InputError(f"expected {what(len(values))}, got {_clip(token)}")
        try:
            value = int(token)
        except ValueError:
            # int()'s limit on digits per conversion (4,300 by default).
            raise InputError(
                f"{what(len(values))} too long ({len(token)} digits): {_clip(token)}"
            ) from None
        if value < 1:
            raise InputError(f"{what(len(values))} must be >= 1, got {value}")
        if top is not None and value > top:
            raise InputError(f"column index {value} out of range 1..{top}")
        values.append(value)
    return values


def parse_instance(text: str) -> Instance:
    """Parse an ``INSTANCE v1`` document.  Raises :class:`InputError` on any
    malformation, including mass not summing to one."""
    cur = _Cursor(text)
    cur.expect_magic(INSTANCE_MAGIC)
    n, m = cur.run(2, ("state count n", "side-information count m").__getitem__, _counts)
    x_labels = cur.run(n, lambda i: f"x label {i+1}")
    y_labels = cur.run(m, lambda j: f"y label {j+1}")
    grid = [
        cur.run(m, lambda j: f"P_XY entry ({i+1},{j+1})", cur.rationals)
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
    n, m, p = cur.run(
        3, ("state count n", "column count m", "signal count p").__getitem__, _counts
    )
    if n > m:
        raise InputError(f"scheme needs n <= m, got n={n} m={m}")
    x_labels = cur.run(n, lambda i: f"x label {i+1}")
    y_labels = cur.run(m, lambda j: f"y label {j+1}")
    px = cur.run(n, lambda i: f"P_X({x_labels[i]})", cur.rationals)
    # 0-based columns of the canonical tokens "1".."m" (the y labels were m
    # tokens, so the document pays for it); a run holding any other token,
    # such as ``01`` or ``0``, is read or refused by ``_counts``.
    index = {str(j + 1): j for j in range(m)}

    def columns(tokens: list[str], what: Callable[[int], str]) -> list[int]:
        try:
            return list(map(index.__getitem__, tokens))
        except KeyError:
            return [col - 1 for col in _counts(tokens, what, top=m)]

    z_labels, weights, assignments = [], [], []
    for k in range(p):
        z_labels += cur.run(1, lambda _: f"z label {k+1}")
        weights += cur.run(1, lambda _: f"weight of signal {k+1}", cur.rationals)
        assignments.append(
            cur.run(m, lambda i: f"column for row {i+1} of signal {k+1}", columns)
        )
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
    lines = [
        " ".join(SCHEME_MAGIC),
        f"{scheme.n} {scheme.m} {scheme.p}",
        " ".join(scheme.x_labels),
        " ".join(scheme.y_labels),
        " ".join(rat_str(v) for v in scheme.px),
    ]
    names = [str(j + 1) for j in range(scheme.m)]
    for z, w, sigma in zip(scheme.z_labels, scheme.weights, scheme.assignments):
        if None in sigma:
            raise InputError("scheme with unassigned rows cannot be serialized")
        lines.append(f"{z} {rat_str(w)} {' '.join(map(names.__getitem__, sigma))}")
    return "\n".join(lines) + "\n"
