"""Fuzzing the document readers and the CLI with mutated documents.

Each example starts from a valid ``INSTANCE v1`` or ``SCHEME v1`` document
and swaps, deletes, duplicates or replaces tokens, the replacements drawn
from the inputs validation must refuse cleanly: signs, zero denominators,
decimals, digit runs past the interpreter's limit, non-ASCII digits, and
for schemes the column indices 0 and m+1 just outside 1..m.  Whatever
comes out, the library may raise only ``SidepadError`` subclasses (never
``InternalInvariantError``), and the CLI (``check`` on instances;
``verify``, ``decode`` and ``encode`` on schemes) must answer with an exit
code 0-3 and at most one ``error:`` line, never a traceback.  The same
holds for ``cli.main`` on argument vectors drawn from the subcommands,
their flags, fixture paths and small numbers.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sidepad as sp
from sidepad.cli import main
from corpus import corr23, mixed23, otp2, skew22
from test_model import DIGIT_LIMIT

LONG = "7" * (max(DIGIT_LIMIT, 4300) + 5)

SEEDS = [
    sp.serialize_instance(inst).split()
    for inst in (
        corr23(),
        mixed23(),
        skew22(),
        otp2(),
        sp.make_instance(
            ["a", "b", "c"], ["u", "v", "w", "t"],
            [["1/12", "0", "1/6", "1/12"], ["1/4", "0", "0", "0"],
             ["0", "1/6", "1/12", "1/6"]],
        ),
    )
]

REPLACEMENTS = st.one_of(
    st.sampled_from([
        "-1/4", "+1/4", "-0", "--1", "1/0", "0/0", "-1/0", "0.25", ".5", "1.",
        "-0.125", "1e-3", "1/-2", "1//2", "nan", "inf", "", "٣/٤", "1/٤", "٣",
        "１/２", "1_0", "0x10", "2", "0", "1", "99999999999999999999",
        LONG, "1/" + LONG, LONG + "/3", "0." + LONG, "-" + LONG,
        "1/" + "3" * (max(DIGIT_LIMIT, 4300) - 1), "INSTANCE", "v1", "v2", "#",
    ]),
    st.fractions(min_value=-2, max_value=2, max_denominator=50).map(str),
    st.text(alphabet="0123456789/.-+٠١٢٣e", min_size=1, max_size=6),
)


def _mutate(draw, tokens, grid, replacements):
    """Apply one to four token mutations, most of them at or past ``grid``."""
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["swap", "delete", "duplicate", "replace", "replace"]))
        if not tokens:
            break
        last = len(tokens) - 1
        k = draw(st.one_of(st.integers(0, last), st.integers(min(grid, last), last),
                           st.integers(min(grid, last), last)))
        if kind == "swap":
            other = draw(st.integers(0, len(tokens) - 1))
            tokens[k], tokens[other] = tokens[other], tokens[k]
        elif kind == "delete":
            del tokens[k]
        elif kind == "duplicate":
            tokens.insert(k, tokens[k])
        else:
            tokens[k] = draw(replacements)
    return " ".join(tokens) + "\n"


@st.composite
def mutated_documents(draw):
    tokens = list(draw(st.sampled_from(SEEDS)))
    # Most mutations land in the grid, which starts after the header, the
    # counts and the labels, so that validation sees them.
    return _mutate(draw, tokens, 4 + int(tokens[2]) + int(tokens[3]), REPLACEMENTS)


# Built schemes of the feasible seed instances, with their instance documents.
SCHEME_SEEDS = [
    (sp.serialize_scheme(sp.build_scheme(inst)).split(), sp.serialize_instance(inst))
    for inst in map(sp.parse_instance, map(" ".join, SEEDS))
    if sp.check_feasible(inst).feasible
]


@st.composite
def mutated_schemes(draw):
    """A mutated scheme document and the instance document it was built for."""
    tokens, instance = draw(st.sampled_from(SCHEME_SEEDS))
    tokens = list(tokens)
    n, m = int(tokens[2]), int(tokens[3])
    # Masses, weights and column indices follow the header, counts and labels.
    columns = st.sampled_from(["0", str(m + 1)])
    return _mutate(draw, tokens, 5 + n + m, st.one_of(REPLACEMENTS, columns)), instance


FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@FUZZ
@given(mutated_documents())
def test_parse_instance_raises_only_input_errors(text):
    try:
        inst = sp.parse_instance(text)
    except sp.InternalInvariantError:
        raise
    except sp.SidepadError:
        return
    # What parses is a valid instance and survives a check.
    assert sum(sp.marginal_x(inst)) == 1
    sp.check_feasible(inst)


@FUZZ
@given(text=mutated_documents())
def test_check_on_a_mutated_document_exits_cleanly(tmp_path, text):
    path = tmp_path / "fuzz.inst"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    if code in (2, 3):
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert not lines and out.getvalue()


@FUZZ
@given(mutated_schemes())
def test_parse_scheme_raises_only_input_errors(case):
    text, instance = case
    try:
        scheme = sp.parse_scheme(text)
    except sp.InternalInvariantError:
        raise
    except sp.SidepadError:
        return
    # What parses verifies, broken or not, or is refused with a SidepadError.
    inst = sp.parse_instance(instance)
    try:
        report = sp.verify_scheme(scheme, inst)
        assert len(report.q_xy) == len(report.q_xz) == scheme.n
        assert len(report.q_z) == scheme.p and len(report.q_yz) == scheme.m
        sp.necessity_audit(scheme)
        sp.decode_table(scheme)
    except sp.InternalInvariantError:
        raise
    except sp.SidepadError:
        pass


@FUZZ
@given(case=mutated_schemes())
def test_scheme_commands_on_a_mutated_document_exit_cleanly(tmp_path, case):
    text, instance = case
    scheme, against = tmp_path / "fuzz.scheme", tmp_path / "fuzz.inst"
    scheme.write_text(text, encoding="utf-8")
    against.write_text(instance, encoding="utf-8")
    for argv in (
        ["verify", str(scheme), "--against", str(against)],
        ["decode", str(scheme), "--y", "y1", "--z", "z1"],
        ["encode", str(scheme), "--x", "x1", "--y", "y1", "--seed", "1"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        lines = err.getvalue().splitlines()
        assert "Traceback" not in err.getvalue()
        assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines)
        assert bool(lines) == (code in (2, 3) or not out.getvalue())


# --- cli.main argv ----------------------------------------------------------

# Placeholders for the files each example writes; "@missing" is never
# written and "@dir" is the example's directory.
FIXTURES = {
    "@otp2.inst": sp.serialize_instance(otp2()),
    "@corr23.inst": sp.serialize_instance(corr23()),
    "@skew22.inst": sp.serialize_instance(skew22()),
    "@mixed23.inst": sp.serialize_instance(mixed23()),
    # One state over seven values: past the oracle's column cap.
    "@wide7.inst": sp.serialize_instance(
        sp.make_instance(["x1"], [f"y{j+1}" for j in range(7)], [["1/7"] * 7])
    ),
    "@otp2.scheme": sp.serialize_scheme(sp.build_scheme(otp2())),
    "@corr23.scheme": sp.serialize_scheme(sp.build_scheme(corr23())),
    "@garbage": "SCHEME v1\nnot a document\n",
}
INSTANCES = [name for name in FIXTURES if name.endswith(".inst")]
SCHEMES = [name for name in FIXTURES if name.endswith(".scheme")]
COMMANDS = ["check", "build", "verify", "encode", "decode", "simulate",
            "oracle", "shannon", "deterministic"]
FLAGS = ["-o", "--output", "--against", "--x", "--y", "--z", "--seed", "-n",
         "--samples", "--shards", "--min-count", "--allow-unverified", "-m",
         "--json", "-h", "--help"]
# Numbers stay at or below 50, so no draw asks for a long simulation or a
# large shannon grid.
NUMBERS = ["0", "-1", "1", "2", "3", "7", "50", "1.5", "1e3", "0x10", "", "x",
           "٣", "-", "--"]
LABELS = ["x1", "x2", "x3", "y1", "y2", "y3", "y7", "z1", "z2", "z9"]
TOKENS = st.sampled_from(
    COMMANDS + FLAGS + NUMBERS + LABELS + [*FIXTURES, "@missing", "@dir", "@out"]
)


@st.composite
def argvs(draw):
    """A valid invocation of one subcommand with up to four tokens swapped,
    deleted, duplicated, or inserted or replaced from the pool; or pool
    tokens alone."""
    inst = draw(st.sampled_from(INSTANCES))
    scheme = draw(st.sampled_from(SCHEMES))
    number = draw(st.sampled_from(["1", "2", "7", "50"]))
    templates = {
        "check": [inst],
        "build": [inst, "-o", "@out"],
        "verify": [scheme, "--against", inst],
        "encode": [scheme, "--x", "x1", "--y", "y1", "--seed", number],
        "decode": [scheme, "--y", "y1", "--z", "z1"],
        "simulate": [scheme, "--against", inst, "-n", number, "--seed", "1",
                     "--shards", number],
        "oracle": [inst],
        "shannon": ["-n", number, "-m", "3"],
        "deterministic": [inst],
    }
    if draw(st.integers(0, 9)) == 0:
        return draw(st.lists(TOKENS, max_size=8))
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, *templates[command]]
    if draw(st.booleans()):
        argv.append("--json")
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(0, len(argv)))
        kind = draw(st.sampled_from(
            ["swap", "delete", "duplicate", "replace", "insert"]))
        if kind == "insert" or k == len(argv):
            argv.insert(k, draw(TOKENS))
        elif kind == "swap":
            other = draw(st.integers(0, len(argv) - 1))
            argv[k], argv[other] = argv[other], argv[k]
        elif kind == "delete":
            del argv[k]
        elif kind == "duplicate":
            argv.insert(k, argv[k])
        else:
            argv[k] = draw(TOKENS)
    return argv


@FUZZ
@given(argv=argvs())
def test_main_on_a_drawn_argv_exits_cleanly(tmp_path, monkeypatch, argv):
    # Any token may follow -o, so relative outputs must land in tmp_path.
    monkeypatch.chdir(tmp_path)
    paths = {"@dir": str(tmp_path), "@missing": str(tmp_path / "missing"),
             "@out": str(tmp_path / "out")}
    for name, text in FIXTURES.items():
        paths[name] = str(tmp_path / name[1:])
        (tmp_path / name[1:]).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    # InternalInvariantError is not among main's exit codes: reaching it
    # raises out of main and fails the example.
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([paths.get(token, token) for token in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1
