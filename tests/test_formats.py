"""INSTANCE v1 / SCHEME v1 documents: parsing, serialization, round-trips."""

import re
import tracemalloc
from fractions import Fraction
from fractions import Fraction as F
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sidepad as sp
from corpus import corpus, corr23, det22, mixed23, otp2
from sidepad.errors import InputError
from sidepad.formats import INSTANCE_MAGIC, SCHEME_MAGIC
from sidepad.model import _clip, _clip_rat, make_instance, rat_parse
from test_model import DIGIT_LIMIT, instances, needs_digit_limit

CORR23_DOC = """\
INSTANCE v1
2 3
x1 x2
y1 y2 y3
1/4 1/4 0
0 1/4 1/4
"""


def test_parse_canonical_document():
    assert sp.parse_instance(CORR23_DOC) == corr23()


def test_serialize_is_canonical():
    assert sp.serialize_instance(corr23()) == CORR23_DOC


def test_parse_tolerates_comments_and_whitespace():
    text = """
    # a correlated pair
    INSTANCE v1   2 3
      x1 x2 # states
      y1\ty2   y3
    0.25 1/4 0   0 2/8 1/4   # grid, row major
    """
    assert sp.parse_instance(text) == corr23()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "INSTANCE v2\n1 1\nx\ny\n1\n",
        "SCHEME v1\n1 1\nx\ny\n1\n",  # wrong kind
        "INSTANCE v1\n0 1\nx\ny\n1\n",  # n < 1
        "INSTANCE v1\n1 1\nx\ny\n",  # missing entry
        "INSTANCE v1\n1 1\nx\ny\n1 7\n",  # trailing token
        "INSTANCE v1\n1 1\nx\ny\n1e0\n",  # bad rational form
        "INSTANCE v1\n1 2\nx\ny1 y2\n1/2 1/3\n",  # mass != 1
        "INSTANCE v1\n1 2\nx\ny1 y2\n3/2 -1/2\n",  # negative
        "INSTANCE v1\n2 1\nx x\ny\n1/2 1/2\n",  # duplicate labels
        "INSTANCE v1\ntwo 1\nx\ny\n1\n",  # non-integer count
    ],
)
def test_parse_instance_rejects(text):
    with pytest.raises(sp.InputError):
        sp.parse_instance(text)


@given(instances())
def test_instance_round_trip(inst):
    assert sp.parse_instance(sp.serialize_instance(inst)) == inst


@pytest.mark.parametrize("factory", [otp2, corr23, mixed23, det22])
def test_scheme_round_trip(factory):
    scheme = sp.build_scheme(factory())
    assert sp.parse_scheme(sp.serialize_scheme(scheme)) == scheme


CORR23_SCHEME_DOC = """\
SCHEME v1
2 3 2
x1 x2
y1 y2 y3
1/2 1/2
z1 1/2 1 2 3
z2 1/2 2 3 1
"""


def test_serialize_built_scheme_document():
    assert sp.serialize_scheme(sp.build_scheme(corr23())) == CORR23_SCHEME_DOC


def test_parse_scheme_accepts_unnormalized_weights():
    # Weight laws are verification's business, not the parser's: a scheme
    # whose weights do not sum to 1 must load so `verify` can fail it.
    text = CORR23_SCHEME_DOC.replace("z1 1/2", "z1 51/100")
    scheme = sp.parse_scheme(text)
    assert scheme.weights == (F(51, 100), F(1, 2))


def test_parse_scheme_accepts_repeated_columns():
    text = CORR23_SCHEME_DOC.replace("z2 1/2 2 3 1", "z2 1/2 2 2 1")
    scheme = sp.parse_scheme(text)
    assert scheme.assignments[1] == (1, 1, 0)


@pytest.mark.parametrize(
    "text",
    [
        "SCHEME v1\n2 1 1\nx1 x2\ny1\n1/2 1/2\nz1 1 1\n",  # n > m
        CORR23_SCHEME_DOC.replace("z1 1/2", "z1 0"),  # zero weight
        CORR23_SCHEME_DOC.replace("z1 1/2", "z1 -1/2"),  # negative weight
        CORR23_SCHEME_DOC.replace("1/2 1/2\nz1", "0 1\nz1"),  # zero state mass
        CORR23_SCHEME_DOC.replace("z1 1/2 1 2 3", "z1 1/2 1 2 4"),  # col > m
        CORR23_SCHEME_DOC.replace("z1 1/2 1 2 3", "z1 1/2 0 2 3"),  # col < 1
        CORR23_SCHEME_DOC.replace("z2 1/2 2 3 1", "z1 1/2 2 3 1"),  # dup z label
        CORR23_SCHEME_DOC.replace("z2 1/2 2 3 1\n", ""),  # truncated
        CORR23_SCHEME_DOC + "stray\n",  # trailing token
    ],
)
def test_parse_scheme_rejects(text):
    with pytest.raises(sp.InputError):
        sp.parse_scheme(text)


def test_scheme_with_hole_has_no_wire_form():
    built = sp.build_scheme(corr23())
    holed = sp.Scheme(
        x_labels=built.x_labels,
        y_labels=built.y_labels,
        z_labels=built.z_labels,
        px=built.px,
        weights=built.weights,
        assignments=((0, None, 2), built.assignments[1]),
    )
    with pytest.raises(sp.InputError):
        sp.serialize_scheme(holed)


def _one_state_scheme(**labels):
    fields = dict(
        x_labels=("x1",), y_labels=("y1", "y2"), z_labels=("z1", "z2"),
        px=(F(1),), weights=(F(1, 2), F(1, 2)), assignments=((0, 1), (1, 0)),
    )
    return sp.Scheme(**{**fields, **labels})


def test_scheme_checks_label_syntax_as_instance_does():
    # Labels a document cannot carry: "a b" and "y#1" serialize to a
    # document that parses back as another scheme (x label "a", y labels
    # "b" and "y"), and 1 cannot be serialized at all.
    with pytest.raises(sp.InputError, match="^bad x label 'a b': "):
        _one_state_scheme(x_labels=("a b",), y_labels=("y#1", "y2"))
    with pytest.raises(sp.InputError, match="^bad y label 'y#1': "):
        _one_state_scheme(y_labels=("y#1", "y2"))
    with pytest.raises(sp.InputError, match="^bad x label 1: "):
        _one_state_scheme(x_labels=(1,))


@pytest.mark.parametrize(
    "labels",
    [
        {"x_labels": ("",)},
        {"x_labels": (["x1"],)},
        {"y_labels": ("y1", "y\t2")},
        {"y_labels": ("y1", None)},
        {"z_labels": ("z1", "z 2")},
        {"z_labels": ("#z1", "z2")},
        {"z_labels": ("z1", b"z2")},
    ],
)
def test_scheme_refuses_labels_a_document_cannot_carry(labels):
    with pytest.raises(sp.InputError, match="^bad [xyz] label "):
        _one_state_scheme(**labels)


def test_scheme_labels_round_trip_through_a_document():
    scheme = _one_state_scheme(
        x_labels=("état",), y_labels=("y/1", "y-2"), z_labels=("z.1", "z'2")
    )
    assert sp.parse_scheme(sp.serialize_scheme(scheme)) == scheme


@pytest.mark.parametrize(("fields", "message"), [
    ({"x_labels": ()}, "scheme needs at least one state, column, and signal"),
    ({"assignments": ((0, 1),)}, "scheme needs one assignment per signal"),
    ({"assignments": ((0, 1), (1,))}, "each assignment must cover all m rows"),
], ids=["no-states", "too-few-assignments", "short-assignment"])
def test_scheme_refuses_a_bad_shape(fields, message):
    _one_state_scheme()  # the unchanged fields make a scheme
    with pytest.raises(sp.InputError, match=f"^{message}$"):
        _one_state_scheme(**fields)


def test_scheme_shape_validation():
    with pytest.raises(sp.InputError):
        sp.Scheme(
            x_labels=("x1",), y_labels=("y1",), z_labels=("z1",),
            px=(F(1),), weights=(F(1),), assignments=((5,),),
        )
    with pytest.raises(sp.InputError):
        sp.Scheme(
            x_labels=("x1", "x2"), y_labels=("y1",), z_labels=("z1",),
            px=(F(1, 2), F(1, 2)), weights=(F(1),), assignments=((0,),),
        )

    def scheme(px, weights):
        return sp.Scheme(
            x_labels=("x1", "x2"), y_labels=("y1", "y2"), z_labels=("z1", "z2"),
            px=px, weights=weights, assignments=((0, 1), (1, 0)),
        )

    half = (F(1, 2), F(1, 2))
    with pytest.raises(sp.InputError, match="^state mass must be positive, got 0$"):
        scheme((F(0), F(1)), half)
    with pytest.raises(sp.InputError, match="^signal weight must be positive, got -1/2$"):
        scheme(half, (F(-1, 2), F(3, 2)))
    # Two bad values: the first in order is named, masses before weights.
    with pytest.raises(sp.InputError, match="^state mass must be positive, got -1$"):
        scheme((F(-1), F(0)), (F(0), F(1)))
    with pytest.raises(sp.InputError):
        scheme((F(1),), half)  # one mass for two states


# Header counts are plain ASCII digit strings: int() alone would also read
# '1_0' as 10 and '٣' (Arabic-Indic three) as 3.
NON_ASCII_COUNT_DOCS = [
    CORR23_DOC.replace("2 3\n", "٢ 3\n", 1),
    CORR23_DOC.replace("2 3\n", "2 ٣\n", 1),
    CORR23_DOC.replace("2 3\n", "1_0 3\n", 1),
    CORR23_DOC.replace("2 3\n", "+2 3\n", 1),
    CORR23_DOC.replace("1/4 1/4 0\n", "١/٤ 1/4 0\n", 1),
]


@pytest.mark.parametrize("text", NON_ASCII_COUNT_DOCS)
def test_parse_instance_counts_and_numbers_are_ascii(text):
    with pytest.raises(sp.InputError):
        sp.parse_instance(text)


@pytest.mark.parametrize(
    "old, new",
    [("2 3 2\n", "2 3 ٢\n"), ("2 3 2\n", "2 3 0_2\n"), ("z1 1/2 1", "z1 1/2 ١")],
)
def test_parse_scheme_counts_and_indices_are_ascii(old, new):
    doc = sp.serialize_scheme(sp.build_scheme(corr23()))
    assert old in doc
    with pytest.raises(sp.InputError):
        sp.parse_scheme(doc.replace(old, new, 1))


@pytest.mark.parametrize(
    "parse, text",
    [(sp.parse_instance, "INSTANCE v1\n10000000 2\nx1\n"),
     (sp.parse_scheme, "SCHEME v1\n1 10000000 10000000\nx1\n")],
    ids=["instance", "scheme"],
)
def test_a_header_claiming_many_tokens_reads_only_the_document(parse, text):
    # A run takes the tokens there are, never a list of the count claimed:
    # 10**7 slots would show as 80 MB.
    tracemalloc.start()
    try:
        with pytest.raises(sp.InputError, match="^unexpected end of document"):
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peaked at {peak / 2**20:.1f} MiB"


@needs_digit_limit
@pytest.mark.parametrize(
    "old, new",
    [("2 3 2\n", "2 3 {d}\n"), ("z1 1/2 1 ", "z1 1/2 {d} "),
     ("\n1/2 1/2\n", "\n1/{d} 1/2\n")],
    ids=["signal count", "column index", "state mass"],
)
def test_parse_scheme_refuses_numbers_past_the_digit_limit(old, new):
    doc = sp.serialize_scheme(sp.build_scheme(corr23()))
    assert old in doc
    long_doc = doc.replace(old, new.format(d="1" * (DIGIT_LIMIT + 1)), 1)
    with pytest.raises(sp.InputError, match="too long") as caught:
        sp.parse_scheme(long_doc)
    assert len(str(caught.value)) < 200


# The reader as it was before it read counted runs, kept verbatim as the
# reference for the differential test below: it formatted a position
# message for every token and checked mass and weight positivity itself.
class _ReferenceCursor:
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


def _reference_parse_instance(text: str) -> sp.Instance:
    cur = _ReferenceCursor(text)
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


def _reference_parse_scheme(text: str) -> sp.Scheme:
    cur = _ReferenceCursor(text)
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
    return sp.Scheme(
        x_labels=tuple(x_labels),
        y_labels=tuple(y_labels),
        z_labels=tuple(z_labels),
        px=tuple(px),
        weights=tuple(weights),
        assignments=tuple(assignments),
    )


CORPUS = corpus()
FEASIBLE = [inst for inst in CORPUS if sp.check_feasible(inst).feasible]


@cache
def _scheme_document(index: int) -> str:
    return sp.serialize_scheme(sp.build_scheme(FEASIBLE[index]))


@st.composite
def one_edit_documents(draw):
    """A serialized corpus instance, or the scheme built from a feasible
    one, with one token replaced, deleted or inserted."""
    if draw(st.booleans()):
        inst = CORPUS[draw(st.integers(0, len(CORPUS) - 1))]
        tokens = sp.serialize_instance(inst).split()
    else:
        index = draw(st.integers(0, len(FEASIBLE) - 1))
        inst, tokens = FEASIBLE[index], _scheme_document(index).split()
    pool = ["", "0", "-1", str(inst.m + 1), "x", "1/0", "\u0663", "1_0", "+1",
            "-1/2", "0.5", "1e3", draw(st.sampled_from(inst.x_labels + inst.y_labels)),
            "1" * (DIGIT_LIMIT + 1)]
    edit = draw(st.sampled_from(["replace", "delete", "insert"]))
    # Uniform over the document: a drawn integer leans towards the magic line.
    pos = draw(st.randoms(use_true_random=False)).randrange(len(tokens) + (edit == "insert"))
    token = draw(st.sampled_from(pool))
    if edit == "replace":
        tokens[pos] = token
    elif edit == "delete":
        del tokens[pos]
    else:
        tokens.insert(pos, token)
    return " ".join(tokens)


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=1000, deadline=None)
@given(one_edit_documents())
def test_reader_matches_the_reference_on_one_edit_documents(text):
    # A reference refusal for a nonpositive mass or weight may now be
    # preceded by a later token fault in the same document, which the
    # reader reports first: there only the error type must agree.
    for parse, reference in ((sp.parse_instance, _reference_parse_instance),
                             (sp.parse_scheme, _reference_parse_scheme)):
        got, want = _outcome(parse, text), _outcome(reference, text)
        if isinstance(want, tuple) and "must be positive" in want[1]:
            assert isinstance(got, tuple) and got[0] is want[0]
        else:
            assert got == want


def test_a_repeated_bad_rational_is_refused_at_its_first_position():
    # Each distinct token is parsed once per document; one that fails is
    # never kept, so the refusal names its first position, as the reference
    # reader does.
    doc = CORR23_DOC.replace("1/4 1/4 0\n0 1/4 1/4", "1/4 1/0 0\n1/0 1/4 1/0")
    with pytest.raises(InputError) as caught:
        sp.parse_instance(doc)
    assert str(caught.value) == "P_XY entry (1,2): zero denominator in '1/0'"
    assert _outcome(_reference_parse_instance, doc) == (InputError, str(caught.value))
    doc = CORR23_SCHEME_DOC.replace("1/2 1/2\nz1 1/2", "1/2 1/3x\nz1 1/3x")
    with pytest.raises(InputError) as caught:
        sp.parse_scheme(doc)
    assert str(caught.value) == "P_X(x2): not a rational token: '1/3x'"
    doc = CORR23_SCHEME_DOC.replace("z1 1/2", "z1 1e3").replace("z2 1/2", "z2 1e3")
    with pytest.raises(InputError, match=r"^weight of signal 1: not a rational token: '1e3'$"):
        sp.parse_scheme(doc)


def test_shared_rational_tokens_parse_to_equal_values():
    doc = CORR23_DOC.replace("0 1/4 1/4", "0 0.25 2/8")
    inst = sp.parse_instance(doc)
    assert inst == corr23() == _reference_parse_instance(doc)
    assert inst.p_xy[0][0] is inst.p_xy[0][1]  # one token, parsed once


@pytest.mark.parametrize(("token", "columns", "message"), [
    ("01", (1, 0, 0), None),
    ("0", None, "column for row 2 of signal 2 must be >= 1, got 0"),
    ("+1", None, "expected column for row 2 of signal 2, got '+1'"),
    ("4", None, "column index 4 out of range 1..3"),  # m + 1
    ("x", None, "expected column for row 2 of signal 2, got 'x'"),
])
def test_scheme_column_tokens_outside_the_canonical_table(token, columns, message):
    # "1".."m" are read by lookup; any other token takes the counted-run
    # reader, which accepts "01" and refuses the rest as before.
    doc = CORR23_SCHEME_DOC.replace("z2 1/2 2 3 1", f"z2 1/2 2 {token} 1")
    assert _outcome(sp.parse_scheme, doc) == _outcome(_reference_parse_scheme, doc)
    if message is None:
        assert sp.parse_scheme(doc).assignments[1] == columns
    else:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            sp.parse_scheme(doc)


def test_documents_round_trip_on_the_corpus():
    for inst in CORPUS:
        text = sp.serialize_instance(inst)
        parsed = sp.parse_instance(text)
        assert parsed == inst == _reference_parse_instance(text)
        assert sp.serialize_instance(parsed) == text
    for index, inst in enumerate(FEASIBLE):
        text = _scheme_document(index)
        loaded = sp.parse_scheme(text)
        assert loaded == sp.build_scheme(inst) == _reference_parse_scheme(text)
        assert sp.serialize_scheme(loaded) == text
