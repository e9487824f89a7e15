"""Scheme construction.

``build_scheme`` turns a feasible instance into a working scheme by the
public steps below, in order: it colours first whenever a deterministic
scheme exists, else it pads and peels:

1. When every row of P_{Y|X} holds one multiset of values and no column
   holds a value more often than a row does (König's criterion, see
   ``find_deterministic_scheme``), the support's edge colouring, kept on
   free-colour bitmasks, is the scheme: one signal per colour, and as few
   signals as the largest row support, ``p_lower_bound``.  The search's
   outcome is kept on the instance's conditional, so the search and the
   build return one scheme object.  The search stops at the first row
   whose values differ from row 0's.
2. Otherwise ``extend`` pads the conditional matrix (n rows, m columns,
   column sums <= 1) to an m-by-m doubly stochastic matrix: m - n padding
   rows take the column slacks by a north-west-corner fill, which keeps
   the padding sparse (at most 2m - n - 1 nonzeros).
3. ``birkhoff_decompose`` peels the result into a convex combination of
   permutation matrices: each round takes a max-bottleneck perfect
   matching on the positive residual (its smallest entry as large as any
   perfect matching's, after Dufosse & Ucar, LAA 2016) and subtracts that
   smallest entry; one signal per permutation, where signal z_k occurs
   with probability alpha_k and pairs state row i with column sigma_k(i).

Everything is exact and runs on integers, with Fractions only at the
boundaries: the search compares the conditional's integer rows
(``ConditionalMatrix._rows``) as they are, ``extend`` scales each once to
the lcm L of their denominators and fills the column slacks over L, and
the padded square is validated on the integer grid the decomposition peels.
Each round zeroes at least one positive cell while both stochasticity
constraints keep holding, so there are at most nnz - m + 1 <=
m*m - 2m + 2 rounds; fewer padding nonzeros mean fewer signals.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from math import lcm
from operator import getitem, itemgetter
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import InfeasibleError, InputError, InternalInvariantError
from .model import (
    ConditionalMatrix,
    Instance,
    _SLOT_SPARE_BITS,
    _Sampler,
    _check_label,
    _clip_rat,
    _fractions,
    _numerators,
    as_fraction,
    conditional_y_given_x,
    rat_str,
)


@dataclass(frozen=True)
class ExtendedMatrix:
    """An m-by-m doubly stochastic matrix whose first ``n`` rows are a
    conditional matrix; rows n..m-1 are padding.  Validated exactly on
    integers: its 2m sums are checked on the entries' numerators over the
    lcm of all their denominators (``_grid``), which
    :func:`birkhoff_decompose` reads rather than rescaling again."""

    n: int
    m: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        grid = tuple(tuple(map(as_fraction, row)) for row in self.entries)
        object.__setattr__(self, "entries", grid)
        self._validate()

    def _validate(self) -> None:
        """The shape and the 2m sums, checked on ``_grid``."""
        if not (1 <= self.n <= self.m):
            raise InputError(f"need 1 <= n <= m, got n={self.n} m={self.m}")
        if len(self.entries) != self.m:
            raise InputError("extended matrix must be square (m rows)")
        work, L = self._grid
        for row, nums in zip(self.entries, work):
            if len(row) != self.m:
                raise InputError("extended matrix must be square (m columns)")
            if min(nums) < 0:
                raise InputError("extended matrix entries must be nonnegative")
            if sum(nums) != L:
                raise InputError("extended matrix row does not sum to 1")
        for j, col in enumerate(zip(*work)):
            if sum(col) != L:
                raise InputError(f"extended matrix column {j} does not sum to 1")

    @classmethod
    def _of_grid(
        cls,
        n: int,
        m: int,
        entries: tuple[tuple[Fraction, ...], ...],
        grid: tuple[tuple[tuple[int, ...], ...], int],
    ) -> "ExtendedMatrix":
        """The matrix of Fraction ``entries`` whose ``_grid`` the caller
        already holds: seeded with it, so validation checks the same shape
        and sums on it without coercing or rescaling the m*m entries again."""
        ext = object.__new__(cls)
        ext.__dict__.update(n=n, m=m, entries=entries, _grid=grid)
        ext._validate()
        return ext

    @cached_property
    def _grid(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """The entries as integer numerators over L, the lcm of all their
        denominators: ``(rows, L)``, which ``extend`` seeds.  Validation
        checks the 2m sums on it and ``birkhoff_decompose`` peels a copy.
        Memoised outside the dataclass fields: eq, hash and repr ignore it."""
        L = lcm(*(v.denominator for row in self.entries for v in row))
        return tuple(tuple(v.numerator * (L // v.denominator) for v in row)
                     for row in self.entries), L


@dataclass(frozen=True)
class Scheme:
    """A public-signal scheme.

    ``assignments[k]`` is the pairing of signal ``z_labels[k]``: row i of
    the extended matrix is paired with column ``assignments[k][i]``.  Rows
    below ``n`` are real states (in ``x_labels`` order, with masses
    ``px``); higher rows are padding and carry no probability.  ``None``
    marks an unassigned row — never produced by construction, but
    representable so that verification can diagnose broken schemes.

    Only label syntax, shape, ranges and positivity are enforced here.
    Whether the scheme fits an instance is for the three laws of
    ``sidepad.verification``, which read the real states, never padding.
    """

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    z_labels: tuple[str, ...]
    px: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]
    assignments: tuple[tuple[Optional[int], ...], ...]

    def __post_init__(self) -> None:
        n, m, p = len(self.x_labels), len(self.y_labels), len(self.z_labels)
        if n < 1 or m < 1 or p < 1:
            raise InputError("scheme needs at least one state, column, and signal")
        if n > m:
            raise InputError(f"scheme needs n <= m, got n={n} m={m}")
        for kind in "xyz":
            labels = tuple(_check_label(s, kind) for s in getattr(self, f"{kind}_labels"))
            if len(set(labels)) != len(labels):
                raise InputError(f"duplicate {kind} labels in scheme")
            object.__setattr__(self, f"{kind}_labels", labels)
        px = tuple(map(as_fraction, self.px))
        weights = tuple(map(as_fraction, self.weights))
        if len(px) != n or len(weights) != p:
            raise InputError("scheme needs one mass per state and one weight per signal")
        for kind, values in (("state mass", px), ("signal weight", weights)):
            bad = next((v for v in values if v.numerator <= 0), None)
            if bad is not None:
                raise InputError(f"{kind} must be positive, got {_clip_rat(bad)}")
        if len(self.assignments) != p:
            raise InputError("scheme needs one assignment per signal")
        # A row of ints, bools and Nones that are all columns or None passes
        # at C speed (types first, so nothing unhashable is hashed); any
        # other row takes the per-entry test, which names the first bad one.
        kinds, valid = {int, bool, type(None)}, {None, *range(m)}
        assignments = []
        for sigma in self.assignments:
            row = tuple(sigma)
            if len(row) != m:
                raise InputError("each assignment must cover all m rows")
            if not (kinds.issuperset(map(type, row)) and valid.issuperset(row)):
                for col in row:
                    if col is not None and not (isinstance(col, int) and 0 <= col < m):
                        raise InputError(f"assignment column {col!r} out of range")
            assignments.append(row)
        object.__setattr__(self, "px", px)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "assignments", tuple(assignments))

    @property
    def n(self) -> int:
        return len(self.x_labels)

    @property
    def m(self) -> int:
        return len(self.y_labels)

    @property
    def p(self) -> int:
        return len(self.z_labels)

    @cached_property
    def _joint(self) -> "_Joint":
        # Memoised outside the dataclass fields: eq, hash and repr ignore it.
        return _Joint(self)

    def __getstate__(self) -> dict:
        # The joint's memos hold a weak reference and a read-only mapping,
        # which do not pickle; an unpickled scheme compiles its own.
        return {k: v for k, v in self.__dict__.items() if k != "_joint"}


class _Joint:
    """The scheme joint Q(x_i, y_j, z_k) = alpha_k * P_X(x_i) * [sigma_k(i) = j]
    over real state rows, compiled in one O(p*n) pass on integers.
    Verification and the runtime both read it; ``necessity_audit`` reads
    ``clash``, ``inverse`` and ``phi``.

    ``a`` and ``b`` are the weights and the state masses as integer
    numerators over D and E, the lcms of their denominators (see
    ``model._numerators``), so every mass is an integer numerator over
    ``den`` = D * E: Q_XZ(x_i, z_k) is
    ``a[k] * b[i]`` (zero where signal k leaves row i unassigned),
    ``q_z[k]`` is Q_Z and ``q_xy[i][j]`` is Q_XY.  ``inverse[k][j]`` holds
    the state rows signal k sends to column j; ``phi[i]`` maps each column
    j that row i reaches to the signals pairing them, so phi holds at most
    p*n cells, never an n*m grid.  The same pass yields ``clash``, the
    first (column, signal) in (y, z) order reached by two states, or None.
    Row and signal lists are ascending.  Fractions appear only in the reports
    verification builds from these numerators.  Three memos fill on first
    use: ``encoders``, each cell's encoder distribution for ``encode``;
    ``verdicts``, ``verify_scheme``'s three law results with a weak
    reference to the instance they were checked against; and ``slots``,
    ``simulate``'s table over (cell, signal) pairs for a verified scheme.
    """

    def __init__(self, scheme: Scheme):
        n, m = scheme.n, scheme.m
        self.a, d = _numerators(scheme.weights)
        self.b, self.e = _numerators(scheme.px)
        self.den = d * self.e
        b_total = sum(self.b)
        singles = [(i,) for i in range(n)]
        self.inverse, self.q_z, self.clash = [], [], None
        self.encoders: dict[tuple[int, int], object] = {}
        self.verdicts: Optional[tuple] = None
        self.m = m
        self.phi: list[dict[int, list[int]]] = [{} for _ in range(n)]
        for k, (a, sigma) in enumerate(zip(self.a, scheme.assignments)):
            rows = sigma[:n]
            inverse: list[tuple[int, ...]] = [()] * m
            for i, j in enumerate(rows):
                if j is None:
                    continue
                self.phi[i].setdefault(j, []).append(k)
                if inverse[j]:
                    inverse[j] += (i,)
                    self.clash = min(self.clash or (j, k), (j, k))
                else:
                    inverse[j] = singles[i]
            self.inverse.append(inverse)
            assigned = b_total if None not in rows else sum(
                b for b, j in zip(self.b, rows) if j is not None
            )
            self.q_z.append(a * assigned)

    @cached_property
    def q_xy(self) -> list[list[int]]:
        """Q_XY numerators: row i's mass times the weights in phi(x, y)."""
        a, q_xy = self.a, []
        for b, row in zip(self.b, self.phi):
            q = [0] * self.m
            for j, ks in row.items():
                q[j] = b * sum(a[k] for k in ks)
            q_xy.append(q)
        return q_xy

    @cached_property
    def slots(self) -> _Sampler:
        """Exact sampler of slots (i, j, k): state row i, column j, signal
        k, rows ascending, each row's columns and each column's signals
        ascending.  Slot (i, j, k) weighs Q(x_i, y_j, z_k) = ``b[i] * a[k]``.
        ``simulate`` reads it only for a verified scheme, whose Q_XY is
        P_XY, so these are the masses of a world draw followed by an
        encoder draw, in the same order."""
        a, slots, weights = self.a, [], []
        for i, (b, row) in enumerate(zip(self.b, self.phi)):
            for j in sorted(row):
                for k in row[j]:
                    slots.append((i, j, k))
                    weights.append(b * a[k])
        return _Sampler(slots, weights, _SLOT_SPARE_BITS)

    @cached_property
    def table(self) -> Mapping[tuple[int, int], int]:
        """Read-only (column, signal) -> lowest state row, built on first use."""
        return MappingProxyType({
            (j, k): rows[0]
            for k, inverse in enumerate(self.inverse)
            for j, rows in enumerate(inverse) if rows
        })


def _column_condition(cm: ConditionalMatrix, *, strict: bool = False) -> tuple[int, ...]:
    """The columns of P_{Y|X} summing beyond one, tested on the integer
    column sums ``cm._columns``; with ``strict`` they raise
    :class:`InfeasibleError` instead."""
    cols, L = cm._columns
    bad = tuple(j for j, c in enumerate(cols) if c > L)
    if bad and strict:
        raise InfeasibleError(
            f"column {bad[0]} sums to {rat_str(Fraction(cols[bad[0]], L))} > 1; "
            "no scheme exists",
            violations=bad,
        )
    return bad


def extend(cm: ConditionalMatrix) -> ExtendedMatrix:
    """Pad a feasible conditional matrix to a doubly stochastic square.

    The m - n padding rows take the column slacks 1 - column_sum_j, which
    are nonnegative exactly when the column condition holds and total
    m - n, by a north-west-corner transport fill: columns ascending, each
    slack poured into the current padding row until that row sums to 1,
    then into the next.  The fill runs on the integer column sums over
    their common denominator L (``cm._columns``), so slacks and room are
    integers and Fractions appear only in the padding rows it returns.
    L is also the lcm of the conditional's row denominators: its integer
    rows ``cm._rows``, scaled once to L, and the padding's give ``_grid``.
    The padding block so holds at most 2m - n - 1 nonzeros, and a single
    padding row is the slack row itself.  For n = m every column sums to
    1, so there is no slack and no padding row.  A column summing beyond 1
    raises :class:`InfeasibleError` naming the columns.
    """
    _column_condition(cm, strict=True)
    cols, L = cm._columns
    n, m = cm.n, cm.m
    pad = [[0] * m for _ in range(m - n)]
    r, room = 0, L  # the padding row being filled, and its room
    for j, c in enumerate(cols):
        slack = L - c
        while slack:
            pad[r][j] = take = min(room, slack)
            slack -= take
            room -= take
            if not room:
                r, room = r + 1, L
    fraction = _fractions(L)
    return ExtendedMatrix._of_grid(
        n,
        m,
        cm.entries + tuple(tuple(map(fraction, row)) for row in pad),
        (tuple(tuple(v * (L // d) for v in nums) for nums, d in cm._rows)
         + tuple(map(tuple, pad)), L),
    )


class _Matcher:
    """Threshold matcher on a square grid of nonnegative residuals.

    ``keys[i]`` holds one key ``j - m*residual`` per positive cell (i, j),
    ascending: by descending residual, ties by ascending column, and
    ``cols[i]`` the keys' columns in the same order.  A cell is usable when
    its residual is at least the threshold t, so row i's usable columns are
    a prefix of ``cols[i]``: ``threshold`` sets it as ``use[i]``, which
    every step of ``match`` reads.  ``col_of`` maps rows and ``row_of``
    columns to their partner, -1 when free.  Its one caller,
    ``birkhoff_decompose``, keeps it between rounds and lowers t only as
    far as a perfect matching needs."""

    __slots__ = ("m", "keys", "cols", "use", "col_of", "row_of")

    def __init__(self, work: Sequence[Sequence[int]]):
        self.m = m = len(work)
        self.keys = [sorted(j - m * v for j, v in enumerate(row) if v) for row in work]
        self.cols = [[k % m for k in keys] for keys in self.keys]
        self.col_of = [-1] * m  # row -> column
        self.row_of = [-1] * m  # column -> row

    def threshold(self, t: int) -> None:
        """Make the cells with residual >= t, and only those, usable: ``use[i]``
        is the prefix of ``cols[i]`` whose keys are below (1 - t)*m."""
        ends = map(bisect_left, self.keys, repeat((1 - t) * self.m))
        self.use = list(map(getitem, self.cols, map(slice, ends)))

    def match(self, rows) -> bool:
        """Match each free row in ``rows``, in order: a row grabs its first
        free column in ``use`` order, otherwise a depth-first augmenting
        path (usable columns tried in ``use`` order at every step) wins.
        When a row has no augmenting path, the rows and columns the search
        visited form a Hall violator: every perfect matching uses an edge
        leaving it, so t drops to the largest residual on an edge from a
        visited row to an unvisited column, ``use`` is rebuilt and the
        search resumes with the matching kept.  False when no positive
        cell leaves the violator, so no perfect matching exists."""
        row_of, col_of = self.row_of, self.col_of
        for i in rows:
            # ``self.use`` is read per row: ``_lower`` rebuilds it.
            for j in self.use[i]:
                if row_of[j] == -1:
                    row_of[j], col_of[i] = i, j
                    break
            else:
                while (visited := self._augment(i)) is not None:
                    if not self._lower(i, visited):
                        return False
        return True

    def _lower(self, root: int, visited: list[int]) -> bool:
        # The violator's rows are the root and the visited columns' rows.
        # Each row's first column outside it, in ``cols`` order, carries
        # the row's largest residual leaving it; t drops to the largest.
        keys, cols, use, seen = self.keys, self.cols, self.use, set(visited)
        top = 0  # the smallest key found, 0 while none is
        for r in (root, *map(self.row_of.__getitem__, visited)):
            end = len(use[r])
            for j, k in zip(cols[r][end:], keys[r][end:]):
                if j not in seen:
                    top = min(top, k)
                    break
        if not top:
            return False
        self.threshold(-(top // self.m))
        return True

    def _augment(self, root: int) -> list[int] | None:
        # Depth-first search on an explicit stack, in the recursive scan
        # order: rows[d] is frame d's row, cols[d] the column frame d
        # descended through, ``untried`` the top frame's untried columns and
        # todo[d] those of frame d below it.  Returns None on success, else
        # the columns visited.
        use, row_of, col_of = self.use, self.row_of, self.col_of
        visited = [False] * len(use)
        rows, cols, todo, untried = [root], [], [], iter(use[root])
        while True:
            for j in untried:
                if not visited[j]:
                    break
            else:
                if not todo:
                    return list(compress(range(len(use)), visited))
                untried = todo.pop()
                del rows[-1], cols[-1]
                continue
            visited[j] = True
            cols.append(j)
            r = row_of[j]
            if r == -1:
                for r, c in zip(rows, cols):
                    row_of[c], col_of[r] = r, c
                return None
            rows.append(r)
            todo.append(untried)
            untried = iter(use[r])


def birkhoff_decompose(
    ext: ExtendedMatrix,
) -> tuple[tuple[Fraction, tuple[int, ...]], ...]:
    """Exact Birkhoff decomposition: weights and permutations, in extraction
    order, with weights summing to exactly 1 and every weight positive.

    Residuals are ints over L, the lcm of the entry denominators, copied
    from the grid ``ExtendedMatrix`` validated; weights become Fractions
    only on return.  Each round peels the max-bottleneck perfect matching:
    of all perfect matchings on the positive residual, one whose smallest
    residual is largest (Dufosse & Ucar, LAA 2016), and subtracts that
    smallest residual.  No matching beats a row's largest residual, nor
    the last round's weight (residuals only shrink), so a round starts
    :class:`_Matcher` at t0, the smaller of the two.  It keeps the last
    matching's pairs still usable at t0 and matches the other rows (all
    of them in round one), ascending; the matcher lowers its threshold
    past each Hall violator, never below the optimum, so the round ends
    at the max bottleneck.  Every round zeroes at least one cell and the
    last zeroes m, so there are at most nnz - m + 1 terms.
    """
    m = ext.m
    rows, L = ext._grid
    work = list(map(list, rows))
    matcher = _Matcher(work)
    col_of, row_of, keys, cols = matcher.col_of, matcher.row_of, matcher.keys, matcher.cols
    terms: list[tuple[int, tuple[int, ...]]] = []
    alpha = L
    while all(keys):
        # keys[i][0] // m is minus row i's largest residual.
        t = min(alpha, -(max(map(itemgetter(0), keys)) // m))
        matcher.threshold(t)
        # Keep the last pairs still >= t, free the others.  Round one frees
        # every row: unpairing it writes row_of[-1] = -1, which changes nothing.
        free = [i for i, j in enumerate(col_of) if j < 0 or work[i][j] < t]
        for i in free:
            row_of[col_of[i]] = col_of[i] = -1
        if not matcher.match(free):
            # Birkhoff's theorem guarantees a matching on any doubly
            # stochastic residual; reaching this means corrupted arithmetic.
            raise InternalInvariantError("no perfect matching on positive residual")
        sigma = tuple(col_of)
        alpha = min(map(list.__getitem__, work, sigma))
        if alpha <= 0:
            raise InternalInvariantError("matching hit a zero entry")
        # Only the matched cells move: each leaves its row's order and,
        # unless zeroed, goes back in at its new residual by bisection.
        for row, key, col, j in zip(work, keys, cols, sigma):
            v = row[j]
            pos = bisect_left(key, j - m * v)
            row[j] = v = v - alpha
            if not v:
                del key[pos], col[pos]
                continue
            k = j - m * v
            end = bisect_left(key, k, pos + 1)
            if end > pos + 1:
                del key[pos], col[pos]
                key.insert(end - 1, k)
                col.insert(end - 1, j)
            else:
                key[pos] = k
        terms.append((alpha, sigma))
    if sum(a for a, _ in terms) != L:
        raise InternalInvariantError("decomposition weights do not sum to 1")
    fraction = _fractions(L)  # one object per distinct weight
    return tuple((fraction(a), sigma) for a, sigma in terms)


def build_scheme(inst: Instance) -> Scheme:
    """Construct a scheme for a feasible instance.

    The public steps in order: :func:`find_deterministic_scheme`, whose
    scheme is returned when König's criterion holds (the search's own
    object, kept on the instance's conditional: deterministic, with
    ``p_lower_bound`` signals, the fewest any scheme can have there);
    else :func:`birkhoff_decompose` of :func:`extend`, with signals
    labeled z1..zp in decomposition order, a scheme that is not kept.
    Raises :class:`InfeasibleError` (with the witness columns) when the
    instance fails the column condition.
    """
    scheme = find_deterministic_scheme(inst).scheme
    if scheme is not None:
        return scheme
    cm = conditional_y_given_x(inst)
    terms = birkhoff_decompose(extend(cm))
    return _named_scheme(inst, cm, [a for a, _ in terms], [s for _, s in terms])


def p_lower_bound(inst: Instance) -> int:
    """A floor on any scheme's signals for ``inst``: the largest row
    support of P(Y|X).  A signal pairs each state with one column, so a
    state needs a signal of its own for every column it reaches.  It is a
    floor, not always the minimum; ``build_scheme`` meets it whenever a
    deterministic scheme exists."""
    return max(sum(1 for v in nums if v) for nums, _ in inst._rows)


def _named_scheme(inst: Instance, cm: ConditionalMatrix, weights, assignments):
    """The scheme over ``inst``'s supported states with signals z1..zp."""
    return Scheme(
        x_labels=tuple(inst.x_labels[i] for i in cm.rows),
        y_labels=inst.y_labels,
        z_labels=tuple(f"z{k+1}" for k in range(len(weights))),
        px=cm.masses,
        weights=tuple(weights),
        assignments=tuple(assignments),
    )


def _same_values(cm: ConditionalMatrix) -> Optional[list[list[int]]]:
    """The criterion's rule (1): the numerators of the conditional's rows
    (``cm._rows``, in lowest terms) when they hold one multiset of values,
    which is when their sorted numerators are equal, and then over one
    denominator; else None.  Nothing is rescaled, and the first row whose
    sorted numerators differ from row 0's ends the scan."""
    rows = iter(cm._rows)
    first, _ = next(rows)
    same, values = [first], sorted(first)
    for nums, _ in rows:
        if sorted(nums) != values:
            return None
        same.append(nums)
    return same


def row_value_multisets_equal(cm: ConditionalMatrix) -> bool:
    """Whether all rows of the conditional matrix share one multiset of
    positive values.

    This is the first half of the criterion for a deterministic scheme
    (see :func:`find_deterministic_scheme`): each signal takes, in every
    row, one cell whose value is the signal's weight.  It is tested in one
    place, ``_same_values``, which the search reads too.
    """
    return _same_values(cm) is not None


@dataclass(frozen=True)
class DeterministicSearch:
    """Outcome of the deterministic-scheme decision.

    ``scheme`` is the deterministic scheme found, or None when none
    exists.  ``nodes`` counts colouring steps: one per support cell
    coloured and one per cell recoloured on an alternating path.  It is 0
    exactly when the rows' value multisets differ: otherwise the first
    support cell is always coloured.  One outcome is kept per instance,
    on its conditional (``_search``): every search returns it, and on a
    König instance :func:`build_scheme` returns its ``scheme``.
    """

    scheme: Optional[Scheme]
    nodes: int

    @property
    def status(self) -> str:
        """``"found"`` when ``scheme`` is set, else ``"none_found"``."""
        return "none_found" if self.scheme is None else "found"

    @property
    def row_multisets_equal(self) -> bool:
        """The criterion's rule (1), as the decision found it
        (:func:`row_value_multisets_equal`)."""
        return self.nodes > 0


def find_deterministic_scheme(inst: Instance) -> DeterministicSearch:
    """Decide whether a scheme with a deterministic encoder exists (every
    supported (x, y) maps to exactly one signal), and build one if so.

    In such a scheme the one signal on a support cell (x, y) has weight
    P(y|x), so a signal of weight v takes one cell of value v from every
    row, in distinct columns.  One exists iff (1) every row has the same
    multiset of positive values and (2) for each value v, no column holds
    more cells of value v than a row does, c_v.  Both are necessary; given
    them, the cells of value v form a bipartite graph, rows against
    columns, whose largest degree is c_v, and by König's edge-colouring
    theorem (1916) its edges take c_v colours with no two alike at a row
    or a column.  Every row meets each colour once, so each colour class
    is a signal of weight v.

    Rule (1) is tested first (``_same_values``) on the conditional's integer
    rows as they are, up to the first whose values differ from row 0's.
    The colouring takes the support cells row by row, columns ascending.
    It keeps the colours free at each row and at each column as bitmasks,
    and each value's colours as a palette mask.  A cell of value v takes
    the lowest colour free at both its row and its column, the lowest set
    bit of ``row_free & col_free & palette[v]``.  When there is none, a is
    the lowest colour of v free at the row and b the lowest free at the
    column, and a and b swap along the alternating a/b path from the
    column, which frees a there; a column with no free colour of v breaks
    (2).  A swap changes the free colours only at the path's two ends, so
    both bits flip in their masks there and nowhere else.  Signals are
    named by row 0's columns, ascending; each pairs the padding rows with
    its unused columns, ascending.  The outcome is kept on the instance's
    conditional as ``_search``, scheme included, so each instance is
    coloured and its scheme named and validated once, and a later search
    returns it at once, reading no row.

    Raises :class:`InfeasibleError` for infeasible instances.
    """
    cm = conditional_y_given_x(inst)
    # Only a feasible instance gets a memo, so a hit needs no column check.
    if "_search" not in cm.__dict__:
        _column_condition(cm, strict=True)
        rows = _same_values(cm)
        signals, nodes = (None, 0) if rows is None else _colour(rows, cm.m)
        scheme = None if signals is None else _named_scheme(
            inst, cm, [cm.entries[0][sigma[0]] for sigma in signals], signals
        )
        object.__setattr__(cm, "_search", DeterministicSearch(scheme, nodes))
    return cm._search


def _colour(rows: Sequence[Sequence[int]], m: int):
    """König's colouring of integer ``rows`` on m columns, rows that hold
    one multiset of values (``_same_values``): ``(signals, nodes)``,
    signals in naming order or None (see ``DeterministicSearch``)."""
    n = len(rows)
    palette: dict[int, int] = {}  # value -> its colours' bits, one per signal
    for k, v in enumerate(filter(None, rows[0])):
        palette[v] = palette.get(v, 0) | 1 << k
    p = sum(v > 0 for v in rows[0])
    col_free = [(1 << p) - 1] * m
    col_of = [[-1] * n for _ in range(p)]  # colour k's column at each row
    row_of = [[-1] * m for _ in range(p)]  # colour k's row at each column
    nodes = 0
    for i, row in enumerate(rows):
        # Only row i's free colours are kept: the rows before it meet every
        # colour, and the rows after it none yet.
        row_free = (1 << p) - 1
        for j, v in enumerate(row):
            if not v:
                continue
            free = row_free & palette[v]
            both = free & col_free[j]
            if both:
                bit = both & -both
            else:
                bit = free & -free
                other = col_free[j] & palette[v]
                if not other:
                    return None, nodes
                nodes += _swap_path(col_of, row_of, col_free, j, bit, other & -other)
            k = bit.bit_length() - 1
            row_free ^= bit
            col_free[j] ^= bit
            col_of[k][i], row_of[k][j] = j, i
            nodes += 1
    unused = (-1).__eq__
    signals = tuple(
        tuple(col_of[k]) + tuple(compress(range(m), map(unused, row_of[k])))
        for k in sorted(range(p), key=lambda k: col_of[k][0])
    )
    return signals, nodes


def _swap_path(col_of, row_of, col_free, j: int, a_bit: int, b_bit: int) -> int:
    """Swap colours a and b at each node of the path from column j that
    alternates them, a first; b must be free at column j.  Every row on
    the path precedes the row being coloured, so it meets both colours and
    the path ends at a column.  Only its two end columns change their free
    colours, so both bits flip in their masks and nowhere else.  Returns
    the number of cells recoloured, one fewer than the nodes."""
    a, b = a_bit.bit_length() - 1, b_bit.bit_length() - 1
    recoloured, at, k, ends, across = -1, j, a, row_of, col_of
    while at >= 0:
        last, to = at, ends[k][at]
        ends[a][at], ends[b][at] = ends[b][at], ends[a][at]
        at, k, ends, across = to, a + b - k, across, ends
        recoloured += 1
    col_free[j] ^= a_bit | b_bit
    col_free[last] ^= a_bit | b_bit
    return recoloured
