"""INSTANCE v1 / SCHEME v1 documents: parsing, serialization, round-trips."""

from fractions import Fraction as F

import pytest
from hypothesis import given

import sidepad as sp
from corpus import corr23, det22, mixed23, otp2
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
