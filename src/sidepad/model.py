"""Core data model: exact rationals, joint distributions, conditionals.

All probability mass in this library is a :class:`fractions.Fraction`.
Fractions are kept in canonical form (reduced, positive denominator) by
the stdlib, equality is exact, and nothing here ever rounds.  Floats are
rejected at the boundary; statistical *estimates* elsewhere may be floats,
probabilities never are.

Arithmetic runs on integers.  Each row of a grid is rescaled once
(``_numerators``) to integer numerators over its own lcm, the one form
later stages read: ``Instance._rows`` for P_XY, ``ConditionalMatrix._rows``
for P_{Y|X}.  Validation, the marginals, the supports, the conditional
and its column sums are sums and comparisons of those integers;
Fractions are built only for the values handed back.  Two tables put the
whole grid over one lcm, which grows with n: ``Instance._world``, kept
for ``sample_world``, and the (cell, signal) slot table of ``simulate``
with ``allow_unverified``, ``runtime._slot_sampler``.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Sequence, Union

from .errors import CapExceededError, InputError, InternalInvariantError

Rational = Fraction

RationalLike = Union[Fraction, int, str]

# ASCII digits only: without re.ASCII, \d would also match e.g. Arabic-Indic
# digits, which int() and Fraction() then silently accept.
_INT_RE = re.compile(r"[+-]?\d+", re.ASCII)
_DEN_RE = re.compile(r"\d+", re.ASCII)
_DEC_RE = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+)", re.ASCII)

# Labels are single whitespace-free tokens so documents stay unambiguous.
_LABEL_RE = re.compile(r"[^\s#]+")


def rat_parse(token: str) -> Fraction:
    """Parse one rational token: ``a/b``, a bare integer, or a finite decimal,
    written with ASCII digits.

    Scientific notation, floats with exponents, and empty/garbage tokens are
    rejected with :class:`InputError`, and so are numbers longer than the
    interpreter's integer-conversion digit limit (4,300 digits by default).
    ``2/4`` parses to the canonical 1/2.
    """
    text = token.strip()
    num, slash, den = text.partition("/")
    try:
        if slash and _INT_RE.fullmatch(num) and _DEN_RE.fullmatch(den):
            return Fraction(int(num), int(den))
        if _INT_RE.fullmatch(text):
            return Fraction(int(text))
        if _DEC_RE.fullmatch(text):
            return Fraction(text)
    except ZeroDivisionError:
        raise InputError(f"zero denominator in {_clip(token)}") from None
    except ValueError:
        # Well-formed, so this is int()'s limit on digits per conversion.
        raise InputError(
            f"rational token too long ({len(text)} characters): {_clip(token)}"
        ) from None
    raise InputError(f"not a rational token: {_clip(token)}")


def _clip(token: str) -> str:
    """``repr(token)`` for error messages, cut short past 40 characters."""
    return repr(token) if len(token) <= 40 else f"{token[:40]!r}..."


def _clip_rat(value: Fraction) -> str:
    """A rational for an input-error message: its text cut short past 40
    characters like :func:`_clip`, and a placeholder where the digit limit
    forbids the text, so a malformed input stays an input error."""
    try:
        text = rat_str(value)
    except CapExceededError:
        return "<rational too long to print>"
    return text if len(text) <= 40 else f"{text[:40]}..."


def rat_str(value: Fraction) -> str:
    """Canonical text for a rational: ``0``, ``3``, ``1/2``.  Round-trips
    exactly through :func:`rat_parse`.

    Every rational sidepad prints, in documents, reports and messages,
    goes through here.  A numerator or denominator past the interpreter's
    integer-to-text digit limit (4,300 digits by default) raises
    :class:`CapExceededError`; derived values such as column sums can
    reach it from inputs whose every token parses.
    """
    try:
        return str(value)
    except ValueError:
        raise CapExceededError(
            "rational too long to print: numerator or denominator has more "
            f"than {sys.get_int_max_str_digits()} digits"
        ) from None


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or rational token to a Fraction.

    Floats are refused on purpose: 0.1 as a float is not one tenth, and
    silently accepting it would poison exact verification downstream.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return rat_parse(value)
    raise InputError(f"not an exact rational value: {value!r}")


def _check_label(label: object, kind: str) -> str:
    if not isinstance(label, str) or not _LABEL_RE.fullmatch(label):
        raise InputError(
            f"bad {kind} label {label!r}: labels are non-empty tokens "
            "without whitespace or '#'"
        )
    return label


@dataclass(frozen=True)
class Instance:
    """A problem instance: a finite joint distribution P_XY over labeled
    alphabets, stored as an exact n-by-m grid summing to one.

    Rows are states x (the secret), columns are side-information values y.
    Construction validates everything, on each row's integer numerators
    (``_rows``): the first negative cell in row-major order is named, and
    the row totals are added up exactly.  Instances are immutable
    thereafter.
    """

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    p_xy: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        xl = tuple(_check_label(s, "x") for s in self.x_labels)
        yl = tuple(_check_label(s, "y") for s in self.y_labels)
        if not xl or not yl:
            raise InputError("an instance needs at least one x and one y label")
        if len(set(xl)) != len(xl):
            raise InputError("duplicate x labels")
        if len(set(yl)) != len(yl):
            raise InputError("duplicate y labels")
        grid = tuple(tuple(as_fraction(v) for v in row) for row in self.p_xy)
        if len(grid) != len(xl) or any(len(row) != len(yl) for row in grid):
            raise InputError(
                f"probability grid must be {len(xl)}x{len(yl)} to match the labels"
            )
        object.__setattr__(self, "p_xy", grid)
        rows = self._rows
        for i, (nums, _) in enumerate(rows):
            if min(nums) < 0:
                j = next(j for j, v in enumerate(nums) if v < 0)
                raise InputError(f"negative probability {_clip_rat(grid[i][j])}")
        total = sum((Fraction(sum(nums), den) for nums, den in rows), Fraction(0))
        if total != 1:
            raise InputError(
                f"probability mass sums to {_clip_rat(total)}, expected 1"
            )
        object.__setattr__(self, "x_labels", xl)
        object.__setattr__(self, "y_labels", yl)

    @property
    def n(self) -> int:
        return len(self.x_labels)

    @property
    def m(self) -> int:
        return len(self.y_labels)

    @cached_property
    def _rows(self) -> tuple[tuple[list[int], int], ...]:
        """Each row of P_XY as ``(nums, den)``: its integer numerators over
        the lcm of its own denominators (``_numerators``), never one lcm for
        the whole grid: the one form of P_XY that validation and every
        later stage read.  Memoised outside the dataclass fields: eq, hash
        and repr ignore it."""
        return tuple(map(_numerators, self.p_xy))

    @cached_property
    def _conditional(self) -> "ConditionalMatrix":
        """P_{Y|X} for :func:`conditional_y_given_x`, built from each row's
        integer numerators without a Fraction division.  Memoised outside
        the dataclass fields: eq, hash and repr ignore it."""
        px = marginal_x(self)
        rows = tuple(i for i, v in enumerate(px) if v > 0)
        if not rows:
            # Unreachable: a valid Instance's mass sums to 1.  Kept as a guard.
            raise InputError("instance has empty X support")
        entries, numerators = [], []
        for i in rows:
            # Row i over its own denominator d is nums / d, and P_X(i) = S / d
            # with S = sum(nums): the conditional row is nums / S, and over
            # the lcm of its reduced denominators, S / g with g = gcd(nums),
            # its numerators are nums / g.
            nums, _ = self._rows[i]
            S, g = sum(nums), gcd(*nums)
            entries.append(tuple(map(_fractions(S), nums)))
            numerators.append(([v // g for v in nums], S // g))
        return ConditionalMatrix._of_rows(
            rows, self.m, tuple(entries), tuple(px[i] for i in rows), numerators
        )

    @cached_property
    def _world(self) -> "_Sampler":
        """Exact sampler of (x row, y column) pairs from P_XY for
        ``sample_world``, row-major over the positive cells: ``_rows`` over
        W, the lcm of the row denominators, which sum to W.  Memoised
        outside the dataclass fields: eq, hash and repr ignore it."""
        W = lcm(*(d for _, d in self._rows))
        cells = {(i, j): v * (W // d) for i, (nums, d) in enumerate(self._rows)
                 for j, v in enumerate(nums) if v}
        if sum(cells.values()) != W:
            raise InternalInvariantError("sampler masses must sum to 1")
        return _Sampler(cells.keys(), cells.values())


# A sampler whose table needs at most this many bits keeps it as a list of
# 2**bits entries (at most 64 Ki); a wider one bisects.
_TABLE_BITS = 16

# ``simulate``'s slot tables widen a limit that is not a power of two by
# this many bits, so that under a quarter of the table rejects; a table
# that fits a list takes only as many as keep it one.
_SLOT_SPARE_BITS = 2


class _Sampler:
    """Exact inverse-transform sampler of ``values[k]`` with probability
    ``weights[k] / S`` for positive integer weights summing to S.  With G
    their gcd, the limit is L = S / G and ``thresholds`` are the running
    sums of ``weights[k] / G``: the table the Fraction masses
    ``weights[k] / S`` give over the lcm of their denominators.

    One draw reads u = ``getrandbits(bits)``, with ``bits`` the bit length
    of L - 1, the fewest bits that span [0, L), and looks it up:
    ``table[u]`` is ``bisect_right(thresholds, u)``, the index of the value
    drawn, when u < L, and -1, meaning draw u again, otherwise.  That is
    the runtime's draw rule (``RandomSource.randbelow``) followed by the
    bisection, on the same integers; it matches CPython's ``randrange(L)``
    except where L is a power of two, whose table has no -1 and is read
    once per draw (L = 1 reads 0 bits).  Up to ``_TABLE_BITS`` bits the
    table is a list; past it, an object that bisects.  Either is read one
    index at a time, as ``table[u]``; nothing slices a table.

    With ``spare`` bits (``simulate``'s slot tables take
    ``_SLOT_SPARE_BITS``) a limit that is not a power of two gets a wider
    table: ``bits`` grows by ``spare``, but not past ``_TABLE_BITS`` when
    it starts there or below, so a table that fits a list stays one;
    ``scale`` is 2**bits // L, index k spans ``scale`` times its threshold
    run, so ``table[u]`` is ``bisect_right(thresholds, u // scale)`` below
    scale * L, and the 2**bits mod L entries past it, fewer than L, are
    -1: under 2**bits / 2**spare with every spare bit taken, and under
    half of the table with any.  Otherwise ``scale`` is 1; ``draw`` is
    only for such tables."""

    __slots__ = ("bits", "limit", "scale", "table", "thresholds", "values")

    def __init__(self, values: Sequence[object], weights: Sequence[int], spare: int = 0):
        g = gcd(*weights)
        self.values = list(values)
        self.thresholds = list(accumulate(w // g for w in weights))
        self.limit = limit = self.thresholds[-1]
        bits = (limit - 1).bit_length()
        if limit & (limit - 1):
            # A table that fits a list keeps fitting one.
            bits = bits + spare if bits > _TABLE_BITS else min(bits + spare, _TABLE_BITS)
        self.bits = bits
        self.scale = scale = (1 << bits) // limit
        if bits > _TABLE_BITS:
            self.table = _Bisection(self.thresholds, scale)
            return
        table: list[int] = []
        prev = 0
        for k, t in enumerate(self.thresholds):
            table += [k] * (scale * (t - prev))
            prev = t
        table += [-1] * ((1 << bits) - scale * limit)
        self.table = table

    def draw(self, rng) -> object:
        """One value; ``rng`` offers the draw rule as ``randbelow`` (a
        runtime RandomSource)."""
        return self.values[self.table[rng.randbelow(self.limit)]]


class _Bisection:
    """A wide sampler's table: ``self[u]`` bisects ``u // scale`` into the
    thresholds, or is -1 when ``u`` is not below ``scale`` times the last
    one."""

    __slots__ = ("limit", "scale", "thresholds")

    def __init__(self, thresholds: list[int], scale: int):
        self.thresholds = thresholds
        self.scale = scale
        self.limit = scale * thresholds[-1]

    def __getitem__(self, u: int) -> int:
        if u < self.limit:
            return bisect_right(self.thresholds, u // self.scale)
        return -1


def _numerators(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Rationals as integer numerators over one common denominator, the lcm
    of theirs: ``(nums, den)`` with ``values[k] == nums[k] / den``."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*[q for _, q in ratios])
    return [p * (den // q) for p, q in ratios], den


class _Memo(dict):
    """key -> ``fill(key)``, filled on the key's first lookup and kept; a
    fill that raises stores nothing.  It pickles when ``fill`` does."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _fractions(den: int):
    """num -> Fraction(num, den), building each distinct value once."""
    return _Memo(partial(Fraction, denominator=den)).__getitem__


def make_instance(
    x_labels: Sequence[str],
    y_labels: Sequence[str],
    p_xy: Iterable[Iterable[RationalLike]],
) -> Instance:
    """Build an :class:`Instance` from any rational-like grid (ints, tokens,
    Fractions).  Convenience wrapper used heavily in tests and examples."""
    return Instance(
        x_labels=tuple(x_labels),
        y_labels=tuple(y_labels),
        p_xy=tuple(tuple(row) for row in p_xy),
    )


def marginal_x(inst: Instance) -> tuple[Fraction, ...]:
    """P_X: exact row sums of the joint grid, each summed on the row's
    integer numerators."""
    return tuple(Fraction(sum(nums), den) for nums, den in inst._rows)


def marginal_y(inst: Instance) -> tuple[Fraction, ...]:
    """P_Y: exact column sums of the joint grid."""
    cols, den = _column_numerators(inst._rows, inst.m)
    return tuple(Fraction(c, den) for c in cols)


def _column_numerators(
    rows: Sequence[tuple[Sequence[int], int]], width: int
) -> tuple[list[int], int]:
    """Column sums of integer rows ``(nums, den)``: numerators over L, the
    lcm of the rows' denominators, accumulated one row at a time, so only
    the ``width`` sums are ever held over L."""
    L = lcm(*(den for _, den in rows))
    cols = [0] * width
    for nums, den in rows:
        scale = L // den
        cols = [c + v * scale for c, v in zip(cols, nums)]
    return cols, L


def supp_x(inst: Instance) -> tuple[int, ...]:
    """Row indices with positive marginal mass, ascending: the rows holding
    a nonzero numerator, as cells are nonnegative."""
    return tuple(i for i, (nums, _) in enumerate(inst._rows) if any(nums))


def supp_y(inst: Instance) -> tuple[int, ...]:
    """Column indices with positive marginal mass, ascending: the columns
    holding a nonzero numerator, as cells are nonnegative."""
    cols = zip(*(nums for nums, _ in inst._rows))
    return tuple(j for j, col in enumerate(cols) if any(col))


@dataclass(frozen=True)
class ConditionalMatrix:
    """The conditional P_{Y|X} restricted to supported states.

    ``rows`` are the instance row indices it covers (exactly supp X,
    ascending); every column of the instance is retained, including
    zero-mass ones, whose conditional entries are necessarily zero.
    Entries and masses are coerced by :func:`as_fraction`, as in
    :class:`Instance`, so floats are refused and tokens parse.
    Each row sums to exactly one; signs and sums are checked on each row's
    integer numerators over its own lcm, kept as ``_rows`` in lowest terms
    (gcd 1, summing to the denominator): the one integer form of P_{Y|X},
    which the column sums ``_columns`` and the construction read.
    ``masses``, P_X of the covered rows, is filled by
    :func:`conditional_y_given_x` so that its callers need not sum P_X
    again; it may be left empty and takes no part in equality.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    entries: tuple[tuple[Fraction, ...], ...]
    masses: tuple[Fraction, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        entries = tuple(tuple(map(as_fraction, row)) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "masses", tuple(map(as_fraction, self.masses)))
        if len(self.entries) != len(self.rows):
            raise InputError("conditional matrix: one entry row per covered row")
        if self.masses and len(self.masses) != len(self.rows):
            raise InputError("conditional matrix: one mass per covered row")
        rows = tuple(map(_numerators, entries))
        for row, (nums, den) in zip(self.entries, rows):
            if len(row) != len(self.cols):
                raise InputError("conditional matrix: ragged row")
            if nums and min(nums) < 0:
                raise InputError("conditional matrix: negative entry")
            if sum(nums) != den:
                raise InputError(
                    "conditional matrix row sums to "
                    f"{_clip_rat(Fraction(sum(nums), den))}, expected 1"
                )
        object.__setattr__(self, "_rows", rows)

    @classmethod
    def _of_rows(cls, rows, m, entries, masses, numerators) -> "ConditionalMatrix":
        """The conditional ``Instance._conditional`` derives, over all m
        columns, given each entry row as ``(nums, den)`` over the lcm of its
        denominators: valid by construction, so nothing is coerced or
        checked again."""
        cm = object.__new__(cls)
        cm.__dict__.update(rows=rows, cols=tuple(range(m)), entries=entries,
                           masses=masses, _rows=tuple(numerators))
        return cm

    @cached_property
    def _columns(self) -> tuple[list[int], int]:
        """The column sums ``(cols, L)``: integer numerators over L, the lcm
        of the rows' denominators, read by ``column_sums``, the column test
        and ``extend``.  Memoised outside the dataclass fields: eq, hash and
        repr ignore it."""
        return _column_numerators(self._rows, len(self.cols))

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.cols)


def conditional_y_given_x(inst: Instance) -> ConditionalMatrix:
    """P_{Y|X}(y|x) = P_XY(x,y) / P_X(x) over supported x, all y columns,
    built once per instance (``Instance._conditional``)."""
    return inst._conditional


def column_sums(cm: ConditionalMatrix) -> tuple[Fraction, ...]:
    """Exact column sums of the conditional matrix, one per y column."""
    cols, L = cm._columns
    return tuple(Fraction(c, L) for c in cols)


def instance_from_conditional(
    px: Sequence[RationalLike],
    conditional: Iterable[Iterable[RationalLike]],
    x_labels: Sequence[str] | None = None,
    y_labels: Sequence[str] | None = None,
) -> Instance:
    """Assemble an instance from a state marginal and per-state conditional
    rows: P_XY(x,y) = P_X(x) * P_{Y|X}(y|x).

    Rows with zero marginal mass get all-zero joint rows regardless of the
    conditional row supplied for them.
    """
    pxf = [as_fraction(v) for v in px]
    cond = [[as_fraction(v) for v in row] for row in conditional]
    if len(cond) != len(pxf):
        raise InputError("need one conditional row per state")
    if not cond or not cond[0]:
        raise InputError("conditional grid is empty")
    m = len(cond[0])
    grid = []
    for p, row in zip(pxf, cond):
        if len(row) != m:
            raise InputError("conditional grid is ragged")
        if p < 0:
            raise InputError(f"negative marginal mass {_clip_rat(p)}")
        if p > 0 and sum(row, Fraction(0)) != 1:
            raise InputError("conditional row of a supported state must sum to 1")
        grid.append([p * v for v in row] if p > 0 else [Fraction(0)] * m)
    xl = tuple(x_labels) if x_labels is not None else tuple(
        f"x{i+1}" for i in range(len(pxf))
    )
    yl = tuple(y_labels) if y_labels is not None else tuple(
        f"y{j+1}" for j in range(m)
    )
    return make_instance(xl, yl, grid)
