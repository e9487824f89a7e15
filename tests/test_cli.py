"""End-to-end command-line behaviour: outputs, pipes, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

import sidepad as sp
from sidepad.cli import main
from corpus import (
    corr23, det22, mixed23, otp2, overfull47, skew22, uniform_independent,
)
from test_model import DIGIT_LIMIT, needs_digit_limit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def paths(tmp_path):
    """Instance documents for the recurring fixtures, written to disk."""
    out = {}
    for name, factory in [
        ("corr23", corr23),
        ("mixed23", mixed23),
        ("otp2", otp2),
        ("det22", det22),
        ("skew22", skew22),
    ]:
        path = tmp_path / f"{name}.inst"
        path.write_text(sp.serialize_instance(factory()), encoding="utf-8")
        out[name] = str(path)
    scheme_path = tmp_path / "corr23.scheme"
    scheme_path.write_text(
        sp.serialize_scheme(sp.build_scheme(corr23())), encoding="utf-8"
    )
    out["corr23.scheme"] = str(scheme_path)
    return out


# --- check ---------------------------------------------------------------


def test_check_feasible(capsys, paths):
    code, out, _ = run(capsys, "check", paths["corr23"])
    assert code == 0
    assert "column sums: y1=1/2 y2=1 y3=1/2" in out
    assert "feasible: yes" in out


def test_check_infeasible(capsys, paths):
    code, out, _ = run(capsys, "check", paths["skew22"])
    assert code == 1
    assert "violated columns: y1" in out
    assert "feasible: no" in out


def test_check_json(capsys, paths):
    code, out, _ = run(capsys, "check", paths["skew22"], "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["column_sums"] == ["3/2", "1/2"]
    assert payload["violations"] == ["y1"]
    assert payload["shannon"]["applies"] is False


def test_check_reports_uniform_independent_counting(capsys, tmp_path):
    path = tmp_path / "u.inst"
    path.write_text(sp.serialize_instance(uniform_independent(3, 2)))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "independent uniform case: n=3 states, m=2 values (n > m)" in out


# --- build ---------------------------------------------------------------


def test_build_stdout_parses(capsys, paths):
    code, out, _ = run(capsys, "build", paths["corr23"])
    assert code == 0
    scheme = sp.parse_scheme(out)
    assert scheme.p == 2
    assert scheme.weights == (sp.Rational(1, 2), sp.Rational(1, 2))


def test_build_writes_file(capsys, paths, tmp_path):
    target = tmp_path / "out.scheme"
    code, out, _ = run(capsys, "build", paths["otp2"], "-o", str(target))
    assert code == 0
    assert "wrote scheme (2 signals)" in out
    scheme = sp.parse_scheme(target.read_text())
    assert sp.verify_scheme(scheme, otp2()).all_ok


def test_build_infeasible(capsys, paths):
    code, out, err = run(capsys, "build", paths["skew22"])
    assert code == 1
    assert out == ""
    assert "infeasible: column sum exceeds 1 at y1" in err


def test_build_json(capsys, paths):
    code, out, _ = run(capsys, "build", paths["corr23"], "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["weights"] == ["1/2", "1/2"]
    assert payload["assignments"] == [[1, 2, 3], [2, 3, 1]]


# A 3x6 mixture of six permutations: the max-bottleneck split takes 6
# signals against a lower bound of 5, where first-fit took 11.  The CI
# quick loop builds the same document and checks its p against this test.
MIXTURE36 = (
    "INSTANCE v1\n3 6\nx1 x2 x3\ny1 y2 y3 y4 y5 y6\n"
    "15/72 0 3/72 3/72 1/72 2/72\n"
    "3/72 20/72 1/72 0 0 0\n"
    "3/72 1/72 0 3/72 15/72 2/72\n"
)


def test_build_json_pins_p_on_a_permutation_mixture(capsys, tmp_path):
    path = tmp_path / "mixture.inst"
    path.write_text(MIXTURE36, encoding="utf-8")
    code, out, _ = run(capsys, "build", str(path), "--json")
    payload = json.loads(out)
    assert (code, payload["p"], payload["p_lower_bound"]) == (0, 6, 5)


# --- verify --------------------------------------------------------------


def test_verify_built_scheme(capsys, paths):
    code, out, _ = run(
        capsys, "verify", paths["corr23.scheme"], "--against", paths["corr23"]
    )
    assert code == 0
    assert "consistency: pass" in out
    assert "informativeness: pass" in out
    assert "secrecy: pass" in out
    assert "necessity audit: pass" in out
    assert "verified: yes" in out


def test_verify_pipeline_from_build(capsys, paths, tmp_path):
    target = tmp_path / "piped.scheme"
    run(capsys, "build", paths["mixed23"], "-o", str(target))
    code, out, _ = run(
        capsys, "verify", str(target), "--against", paths["mixed23"]
    )
    assert code == 0
    assert "verified: yes" in out


def test_a_reader_closing_the_pipe_early_is_not_an_error(tmp_path):
    # 85 kB of JSON, more than a pipe holds, so the write itself breaks.
    inst = tmp_path / "big.inst"
    inst.write_text(sp.serialize_instance(uniform_independent(40, 90)))
    src = str(Path(sp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "sidepad.cli", "build", str(inst), "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(10) == b'{\n  "kind"'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_the_library_and_cli_import_only_the_standard_library():
    # Site hooks may preload third-party modules, so only the modules that
    # importing sidepad adds are checked.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import sidepad, sidepad.cli\n"
        "print(*{name.partition('.')[0] for name in set(sys.modules) - before})\n"
    )
    src = str(Path(sp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, check=True, timeout=120,
    ).stdout.split()
    assert "sidepad" in out
    foreign = [name for name in out
               if name != "sidepad" and name not in sys.stdlib_module_names]
    assert foreign == []


def test_verify_broken_weights(capsys, paths, tmp_path):
    doc = sp.serialize_scheme(sp.build_scheme(corr23()))
    broken = doc.replace("z1 1/2", "z1 51/100", 1)
    path = tmp_path / "broken.scheme"
    path.write_text(broken, encoding="utf-8")
    code, out, _ = run(capsys, "verify", str(path), "--against", paths["corr23"])
    assert code == 1
    assert "consistency: FAIL" in out
    assert "x=x1 y=y1 got=51/200 expected=1/4" in out
    assert "verified: no" in out


def test_verify_broken_json_witness(capsys, paths, tmp_path):
    doc = sp.serialize_scheme(sp.build_scheme(corr23()))
    path = tmp_path / "broken.scheme"
    path.write_text(doc.replace("z1 1/2", "z1 51/100", 1), encoding="utf-8")
    code, out, _ = run(
        capsys, "verify", str(path), "--against", paths["corr23"], "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verified"] is False
    assert payload["consistency"]["ok"] is False
    assert payload["consistency"]["witness"]["got"] == "51/200"
    assert payload["necessity_audit"] is None


def test_verify_reports_an_informativeness_clash(capsys, paths, tmp_path):
    # z1 sends both states to y1: the witness lists them through the
    # tuple branch of the text formatter.
    doc = sp.serialize_scheme(sp.build_scheme(corr23()))
    path = tmp_path / "clash.scheme"
    path.write_text(doc.replace("z1 1/2 1 2 3", "z1 1/2 1 1 3", 1))
    code, out, _ = run(capsys, "verify", str(path), "--against", paths["corr23"])
    assert code == 1
    assert out == (
        "consistency: FAIL (x=x2 y=y1 got=1/4 expected=0)\n"
        "informativeness: FAIL (y=y1 z=z1 xs=x1,x2)\n"
        "secrecy: pass\n"
        "necessity audit: skipped\n"
        "verified: no\n"
    )


def test_verify_dimension_mismatch(capsys, paths):
    code, _, err = run(
        capsys, "verify", paths["corr23.scheme"], "--against", paths["otp2"]
    )
    assert code == 2
    assert "error:" in err

# ``sidepad verify --json`` pinned byte for byte: the built scheme of every
# feasible fixture, and corr23's with a weight raised (consistency fails) or
# with z1 sending both states to y1 (consistency and informativeness fail).
# Each entry: (exit code, instance, edit of the scheme document, payload as
# compact JSON); the command prints the payload indented by two.
VERIFY_GOLDEN = {
    "corr23": (
        0, "corr23", None,
        '{"kind":"verification","verified":true,"consistency":{"ok":true,'
        '"witness":null},"informativeness":{"ok":true,"witness":null},'
        '"secrecy":{"ok":true,"witness":null},"q_z":["1/2","1/2"],'
        '"q_xz":[["1/4","1/4"],["1/4","1/4"]],"q_yz":[["1/4","0/1"],["1/4",'
        '"1/4"],["0/1","1/4"]],"q_xy":[["1/4","1/4","0/1"],["0/1","1/4",'
        '"1/4"]],"necessity_audit":{"ok":true,"triple_bound_ok":true,'
        '"disjoint_ok":true,"column_mass_ok":true,"column_mass":["1/2",'
        '"1/1","1/2"],"witness":null}}',
    ),
    "mixed23": (
        0, "mixed23", None,
        '{"kind":"verification","verified":true,"consistency":{"ok":true,'
        '"witness":null},"informativeness":{"ok":true,"witness":null},'
        '"secrecy":{"ok":true,"witness":null},"q_z":["1/2","1/3","1/6"],'
        '"q_xz":[["1/4","1/6","1/12"],["1/4","1/6","1/12"]],"q_yz":[["0/1",'
        '"1/6","1/12"],["1/4","1/6","0/1"],["1/4","0/1","1/12"]],'
        '"q_xy":[["1/4","1/4","0/1"],["0/1","1/6","1/3"]],'
        '"necessity_audit":{"ok":true,"triple_bound_ok":true,'
        '"disjoint_ok":true,"column_mass_ok":true,"column_mass":["1/2",'
        '"5/6","2/3"],"witness":null}}',
    ),
    "otp2": (
        0, "otp2", None,
        '{"kind":"verification","verified":true,"consistency":{"ok":true,'
        '"witness":null},"informativeness":{"ok":true,"witness":null},'
        '"secrecy":{"ok":true,"witness":null},"q_z":["1/2","1/2"],'
        '"q_xz":[["1/4","1/4"],["1/4","1/4"]],"q_yz":[["1/4","1/4"],["1/4",'
        '"1/4"]],"q_xy":[["1/4","1/4"],["1/4","1/4"]],'
        '"necessity_audit":{"ok":true,"triple_bound_ok":true,'
        '"disjoint_ok":true,"column_mass_ok":true,"column_mass":["1/1",'
        '"1/1"],"witness":null}}',
    ),
    "det22": (
        0, "det22", None,
        '{"kind":"verification","verified":true,"consistency":{"ok":true,'
        '"witness":null},"informativeness":{"ok":true,"witness":null},'
        '"secrecy":{"ok":true,"witness":null},"q_z":["2/3","1/3"],'
        '"q_xz":[["1/3","1/6"],["1/3","1/6"]],"q_yz":[["1/3","1/6"],["1/3",'
        '"1/6"]],"q_xy":[["1/3","1/6"],["1/6","1/3"]],'
        '"necessity_audit":{"ok":true,"triple_bound_ok":true,'
        '"disjoint_ok":true,"column_mass_ok":true,"column_mass":["1/1",'
        '"1/1"],"witness":null}}',
    ),
    "broken": (
        1, "corr23", ('z1 1/2', 'z1 51/100'),
        '{"kind":"verification","verified":false,"consistency":{"ok":false,'
        '"witness":{"x":"x1","y":"y1","got":"51/200","expected":"1/4"}},'
        '"informativeness":{"ok":true,"witness":null},"secrecy":{"ok":true,'
        '"witness":null},"q_z":["51/100","1/2"],"q_xz":[["51/200","1/4"],'
        '["51/200","1/4"]],"q_yz":[["51/200","0/1"],["51/200","1/4"],'
        '["0/1","1/4"]],"q_xy":[["51/200","1/4","0/1"],["0/1","51/200",'
        '"1/4"]],"necessity_audit":null}',
    ),
    "clash": (
        1, "corr23", ('z1 1/2 1 2 3', 'z1 1/2 1 1 3'),
        '{"kind":"verification","verified":false,"consistency":{"ok":false,'
        '"witness":{"x":"x2","y":"y1","got":"1/4","expected":"0/1"}},'
        '"informativeness":{"ok":false,"witness":{"y":"y1","z":"z1",'
        '"xs":["x1","x2"]}},"secrecy":{"ok":true,"witness":null},'
        '"q_z":["1/2","1/2"],"q_xz":[["1/4","1/4"],["1/4","1/4"]],'
        '"q_yz":[["1/2","0/1"],["0/1","1/4"],["0/1","1/4"]],"q_xy":[["1/4",'
        '"1/4","0/1"],["1/4","0/1","1/4"]],"necessity_audit":null}',
    ),
}


@pytest.mark.parametrize("name", list(VERIFY_GOLDEN))
def test_verify_json_is_pinned(capsys, paths, tmp_path, name):
    code, fixture, edit, compact = VERIFY_GOLDEN[name]
    inst = sp.parse_instance(Path(paths[fixture]).read_text(encoding="utf-8"))
    doc = sp.serialize_scheme(sp.build_scheme(inst))
    if edit is not None:
        assert edit[0] in doc
        doc = doc.replace(*edit, 1)
    path = tmp_path / f"{name}.scheme"
    path.write_text(doc, encoding="utf-8")
    expected = json.dumps(json.loads(compact), indent=2) + "\n"
    assert run(
        capsys, "verify", str(path), "--against", paths[fixture], "--json"
    ) == (code, expected, "")


# --- encode / decode ------------------------------------------------------


def test_encode_prints_signal(capsys, paths):
    code, out, _ = run(
        capsys, "encode", paths["corr23.scheme"],
        "--x", "x1", "--y", "y1", "--seed", "0",
    )
    assert code == 0
    assert out.strip() == "z1"


def test_encode_json_is_pinned(capsys, tmp_path):
    # mixed23's cell (x1, y1) splits over z2 and z3.
    path = tmp_path / "mixed23.scheme"
    path.write_text(sp.serialize_scheme(sp.build_scheme(mixed23())))
    outs = []
    for seed in range(1, 7):
        code, out, _ = run(
            capsys, "encode", str(path),
            "--x", "x1", "--y", "y1", "--seed", str(seed), "--json",
        )
        assert code == 0
        outs.append(out)
    assert outs == [
        '{\n  "kind": "encode",\n  "z": "%s"\n}\n' % z
        for z in ("z2", "z2", "z2", "z2", "z3", "z3")
    ]


def test_encode_off_support(capsys, paths):
    code, _, err = run(
        capsys, "encode", paths["corr23.scheme"],
        "--x", "x1", "--y", "y3", "--seed", "0",
    )
    assert code == 1
    assert "error:" in err


def test_encode_unknown_label(capsys, paths):
    code, _, err = run(
        capsys, "encode", paths["corr23.scheme"],
        "--x", "x9", "--y", "y1", "--seed", "0",
    )
    assert code == 2
    assert "unknown x label 'x9'" in err


def test_encode_requires_seed(capsys, paths):
    code, _, _ = run(
        capsys, "encode", paths["corr23.scheme"], "--x", "x1", "--y", "y1"
    )
    assert code == 2


def test_decode_recovers_state(capsys, paths):
    code, out, _ = run(
        capsys, "decode", paths["corr23.scheme"], "--y", "y2", "--z", "z1"
    )
    assert code == 0
    assert out.strip() == "x2"


def test_decode_json(capsys, paths):
    code, out, _ = run(
        capsys, "decode", paths["corr23.scheme"], "--y", "y2", "--z", "z2",
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {"kind": "decode", "x": "x1"}


def test_decode_off_support(capsys, paths):
    code, _, err = run(
        capsys, "decode", paths["corr23.scheme"], "--y", "y3", "--z", "z1"
    )
    assert code == 1
    assert "error:" in err


# --- simulate -------------------------------------------------------------


def test_simulate_text_report(capsys, paths):
    code, out, _ = run(
        capsys, "simulate", paths["corr23.scheme"],
        "--against", paths["corr23"], "-n", "5000", "--seed", "202608",
    )
    assert code == 0
    assert "decode success: 1.000000" in out
    assert "empirical Q_Z: z1=" in out
    assert "max TV:" in out


def test_simulate_json(capsys, paths):
    code, out, _ = run(
        capsys, "simulate", paths["corr23.scheme"],
        "--against", paths["corr23"], "-n", "4000", "--seed", "7", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["decode_success"] == 1.0
    assert payload["samples"] == 4000
    assert len(payload["empirical_qz"]) == 2
    assert payload["shards"] == 1


def test_simulate_refuses_unverified(capsys, paths, tmp_path):
    doc = sp.serialize_scheme(sp.build_scheme(corr23()))
    path = tmp_path / "broken.scheme"
    path.write_text(doc.replace("z1 1/2", "z1 51/100", 1), encoding="utf-8")
    code, _, err = run(
        capsys, "simulate", str(path),
        "--against", paths["corr23"], "-n", "100", "--seed", "1",
    )
    assert code == 1
    assert "error:" in err
    code, out, _ = run(
        capsys, "simulate", str(path),
        "--against", paths["corr23"], "-n", "100", "--seed", "1",
        "--allow-unverified",
    )
    assert code == 0
    assert "samples: 100" in out


def test_simulate_rejects_bad_arguments(capsys, paths):
    code, _, err = run(
        capsys, "simulate", paths["corr23.scheme"],
        "--against", paths["corr23"], "-n", "-5", "--seed", "1",
    )
    assert code == 2
    assert "error:" in err


# --- oracle ---------------------------------------------------------------


def test_oracle_agrees_on_fixtures(capsys, paths):
    code, out, _ = run(capsys, "oracle", paths["mixed23"])
    assert code == 0
    assert "oracle: feasible" in out
    code, out, _ = run(capsys, "oracle", paths["skew22"])
    assert code == 1
    assert "oracle: infeasible" in out


def test_oracle_json_support_reconstructs(capsys, paths):
    code, out, _ = run(capsys, "oracle", paths["corr23"], "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    total = sum(sp.rat_parse(term["weight"]) for term in payload["support"])
    assert total == 1


# ``sidepad oracle`` text and --json output on the fixtures, pinned across
# solver versions: (exit code, text line, support as (weight, perm) pairs).
ORACLE_GOLDEN = {
    "corr23": (0, "oracle: feasible (mixture of 2 permutations)",
               [("1/2", [1, 2, 3]), ("1/2", [2, 3, 1])]),
    "mixed23": (0, "oracle: feasible (mixture of 3 permutations)",
                [("1/3", [1, 2, 3]), ("1/6", [1, 3, 2]), ("1/2", [2, 3, 1])]),
    "otp2": (0, "oracle: feasible (mixture of 2 permutations)",
             [("1/2", [1, 2]), ("1/2", [2, 1])]),
    "det22": (0, "oracle: feasible (mixture of 2 permutations)",
              [("2/3", [1, 2]), ("1/3", [2, 1])]),
    "skew22": (1, "oracle: infeasible", None),
}


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDEN))
def test_oracle_output_is_pinned(capsys, paths, name):
    code, line, support = ORACLE_GOLDEN[name]
    assert run(capsys, "oracle", paths[name]) == (code, line + "\n", "")
    payload = {
        "kind": "oracle",
        "feasible": support is not None,
        "support": None if support is None else [
            {"weight": weight, "perm": perm} for weight, perm in support
        ],
    }
    assert run(capsys, "oracle", paths[name], "--json") == (
        code, json.dumps(payload, indent=2) + "\n", ""
    )


# SHA-256 of ``oracle --json`` on the dense n x n Shannon grids, the values
# CI pins: every cell is positive, so all 120 and 720 permutations are
# variables of the oracle's LP, and the report pins its pivot path.
DENSE_ORACLE_DIGESTS = {
    5: "921945bdd014be5642ddf8f7d74694b358846e76136f47fd2ed5ccebb02de4d1",
    6: "ee40d582702e779706c0ec7c4ba9f305c07279323c628a7617f4e918dec40b32",
}


@pytest.mark.parametrize("n", sorted(DENSE_ORACLE_DIGESTS))
def test_dense_oracle_json_is_pinned(capsys, tmp_path, n):
    code, document, _ = run(capsys, "shannon", "-n", str(n), "-m", str(n))
    assert code == 0
    path = tmp_path / f"dense{n}.inst"
    path.write_text(document, encoding="utf-8")
    code, out, err = run(capsys, "oracle", str(path), "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DENSE_ORACLE_DIGESTS[n]


def test_oracle_refuses_large_alphabets(capsys, tmp_path):
    path = tmp_path / "wide.inst"
    path.write_text(sp.serialize_instance(uniform_independent(2, 7)))
    code, _, err = run(capsys, "oracle", str(path))
    assert code == 3
    assert "error:" in err


# --- shannon --------------------------------------------------------------


def test_shannon_emits_parseable_instance(capsys):
    code, out, _ = run(capsys, "shannon", "-n", "2", "-m", "3")
    assert code == 0
    inst = sp.parse_instance(out)
    assert (inst.n, inst.m) == (2, 3)
    assert sp.check_feasible(inst).feasible


def test_shannon_json_is_pinned(capsys):
    code, out, _ = run(capsys, "shannon", "-n", "1", "-m", "1", "--json")
    assert code == 0
    assert out == (
        '{\n  "kind": "instance",\n  "n": 1,\n  "m": 1,\n'
        '  "x_labels": [\n    "x1"\n  ],\n  "y_labels": [\n    "y1"\n  ],\n'
        '  "p_xy": [\n    [\n      "1/1"\n    ]\n  ]\n}\n'
    )
    code, out, _ = run(capsys, "shannon", "-n", "2", "-m", "3", "--json")
    assert code == 0
    assert json.loads(out)["p_xy"] == [["1/6"] * 3] * 2


def test_shannon_to_check_pipeline(capsys, tmp_path):
    path = tmp_path / "u32.inst"
    code, _, _ = run(capsys, "shannon", "-n", "3", "-m", "2", "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "(n > m)" in out


def test_shannon_rejects_zero(capsys):
    code, _, err = run(capsys, "shannon", "-n", "0", "-m", "2")
    assert code == 2
    assert "error:" in err


def test_shannon_refuses_a_large_grid_before_building_it(capsys):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "shannon", "-n", "2000", "-m", "2000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert peak < 2**20, f"peaked at {peak / 2**20:.1f} MiB"


# --- deterministic ---------------------------------------------------------


def test_deterministic_found_pipes_into_verify(capsys, paths, tmp_path):
    code, out, _ = run(capsys, "deterministic", paths["det22"])
    assert code == 0
    scheme = sp.parse_scheme(out)  # bare document, nothing else on stdout
    assert sp.verify_scheme(scheme, det22()).all_ok
    assert all(None not in sigma for sigma in scheme.assignments)


def test_deterministic_output_file(capsys, paths, tmp_path):
    target = tmp_path / "det.scheme"
    code, out, _ = run(
        capsys, "deterministic", paths["corr23"], "-o", str(target)
    )
    assert code == 0
    assert "row value multisets equal: yes" in out
    assert sp.verify_scheme(sp.parse_scheme(target.read_text()), corr23()).all_ok


def test_deterministic_json_writes_the_output_file(capsys, paths, tmp_path):
    target = tmp_path / "det.scheme"
    code, out, _ = run(
        capsys, "deterministic", paths["det22"], "-o", str(target), "--json"
    )
    assert code == 0
    assert json.loads(out)["status"] == "found"
    assert sp.verify_scheme(sp.parse_scheme(target.read_text()), det22()).all_ok


def test_deterministic_none_found(capsys, paths):
    code, out, _ = run(capsys, "deterministic", paths["mixed23"])
    assert code == 1
    assert "no deterministic scheme exists" in out
    assert "row value multisets equal: no" in out


def test_deterministic_json_statuses(capsys, paths):
    code, out, _ = run(capsys, "deterministic", paths["det22"], "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "found"
    assert payload["scheme"]["weights"] == ["2/3", "1/3"]
    code, out, _ = run(capsys, "deterministic", paths["mixed23"], "--json")
    assert code == 1
    assert json.loads(out)["status"] == "none_found"


def test_deterministic_decides_an_overfull_column(capsys, tmp_path):
    # Rows alike, but y3 holds a row's one 1/4 twice: decided in a couple
    # of dozen colouring steps.
    path = tmp_path / "overfull47.inst"
    path.write_text(sp.serialize_instance(overfull47()), encoding="utf-8")
    code, out, _ = run(capsys, "deterministic", str(path))
    assert (code, out) == (
        1, "row value multisets equal: yes\nno deterministic scheme exists\n"
    )
    code, out, _ = run(capsys, "deterministic", str(path), "--json")
    assert code == 1
    assert json.loads(out)["nodes"] == 23


@pytest.mark.parametrize("n, m", [(3, 12), (12, 12)])
def test_deterministic_finds_wide_shannon_pads(capsys, tmp_path, n, m):
    inst_path, scheme_path = tmp_path / "pad.inst", tmp_path / "pad.scheme"
    run(capsys, "shannon", "-n", str(n), "-m", str(m), "-o", str(inst_path))
    code, out, _ = run(
        capsys, "deterministic", str(inst_path), "-o", str(scheme_path)
    )
    assert code == 0
    assert out.endswith(f"wrote deterministic scheme to {scheme_path}\n")
    inst = sp.parse_instance(inst_path.read_text())
    scheme = sp.parse_scheme(scheme_path.read_text())
    assert sp.verify_scheme(scheme, inst).all_ok
    assert scheme.p == sp.p_lower_bound(inst) == m
    code, _, _ = run(capsys, "verify", str(scheme_path), "--against", str(inst_path))
    assert code == 0


def test_deterministic_infeasible(capsys, paths):
    code, _, err = run(capsys, "deterministic", paths["skew22"])
    assert code == 1
    assert "infeasible: column sum exceeds 1 at y1" in err


# --- every command, pinned -------------------------------------------------

# stdout, exit code and stderr of check, build, deterministic, simulate and
# shannon -o, in text and --json, recorded byte for byte.  Each key is the
# command line: a fixture name stands for its instance file, "NAME.scheme"
# for the fixture's built scheme and "out" for a fresh output file, which the
# recorded output names as "out".  A --json entry holds its payload as compact
# JSON; the command prints it indented by two.
CLI_GOLDEN = {
    'check corr23': (
        0,
        'column sums: y1=1/2 y2=1 y3=1/2\n'
        'feasible: yes\n',
        '',
    ),
    'check corr23 --json': (
        0,
        '{"kind":"feasibility","feasible":true,"column_sums":["1/2","1/1",'
        '"1/2"],"violations":[],"shannon":{"independent":false,'
        '"y_uniform":false,"applies":false,"n":2,"m":3,'
        '"feasible_by_count":true}}',
        '',
    ),
    'check mixed23': (
        0,
        'column sums: y1=1/2 y2=5/6 y3=2/3\n'
        'feasible: yes\n',
        '',
    ),
    'check mixed23 --json': (
        0,
        '{"kind":"feasibility","feasible":true,"column_sums":["1/2","5/6",'
        '"2/3"],"violations":[],"shannon":{"independent":false,'
        '"y_uniform":false,"applies":false,"n":2,"m":3,'
        '"feasible_by_count":true}}',
        '',
    ),
    'check otp2': (
        0,
        'column sums: y1=1 y2=1\n'
        'independent uniform case: n=2 states, m=2 values (n <= m)\n'
        'feasible: yes\n',
        '',
    ),
    'check otp2 --json': (
        0,
        '{"kind":"feasibility","feasible":true,"column_sums":["1/1","1/1"],'
        '"violations":[],"shannon":{"independent":true,"y_uniform":true,'
        '"applies":true,"n":2,"m":2,"feasible_by_count":true}}',
        '',
    ),
    'check det22': (
        0,
        'column sums: y1=1 y2=1\n'
        'feasible: yes\n',
        '',
    ),
    'check det22 --json': (
        0,
        '{"kind":"feasibility","feasible":true,"column_sums":["1/1","1/1"],'
        '"violations":[],"shannon":{"independent":false,"y_uniform":true,'
        '"applies":false,"n":2,"m":2,"feasible_by_count":true}}',
        '',
    ),
    'check skew22': (
        1,
        'column sums: y1=3/2 y2=1/2\n'
        'violated columns: y1\n'
        'feasible: no\n',
        '',
    ),
    'check skew22 --json': (
        1,
        '{"kind":"feasibility","feasible":false,"column_sums":["3/2",'
        '"1/2"],"violations":["y1"],"shannon":{"independent":true,'
        '"y_uniform":false,"applies":false,"n":2,"m":2,'
        '"feasible_by_count":true}}',
        '',
    ),
    'build corr23': (
        0,
        'SCHEME v1\n'
        '2 3 2\n'
        'x1 x2\n'
        'y1 y2 y3\n'
        '1/2 1/2\n'
        'z1 1/2 1 2 3\n'
        'z2 1/2 2 3 1\n',
        '',
    ),
    'build corr23 --json': (
        0,
        '{"kind":"scheme","n":2,"m":3,"p":2,"x_labels":["x1","x2"],'
        '"y_labels":["y1","y2","y3"],"z_labels":["z1","z2"],"px":["1/2",'
        '"1/2"],"weights":["1/2","1/2"],"assignments":[[1,2,3],[2,3,1]],'
        '"p_lower_bound":2}',
        '',
    ),
    'build mixed23': (
        0,
        'SCHEME v1\n'
        '2 3 3\n'
        'x1 x2\n'
        'y1 y2 y3\n'
        '1/2 1/2\n'
        'z1 1/2 2 3 1\n'
        'z2 1/3 1 2 3\n'
        'z3 1/6 1 3 2\n',
        '',
    ),
    'build mixed23 --json': (
        0,
        '{"kind":"scheme","n":2,"m":3,"p":3,"x_labels":["x1","x2"],'
        '"y_labels":["y1","y2","y3"],"z_labels":["z1","z2","z3"],'
        '"px":["1/2","1/2"],"weights":["1/2","1/3","1/6"],'
        '"assignments":[[2,3,1],[1,2,3],[1,3,2]],"p_lower_bound":2}',
        '',
    ),
    'build otp2': (
        0,
        'SCHEME v1\n'
        '2 2 2\n'
        'x1 x2\n'
        'y1 y2\n'
        '1/2 1/2\n'
        'z1 1/2 1 2\n'
        'z2 1/2 2 1\n',
        '',
    ),
    'build otp2 --json': (
        0,
        '{"kind":"scheme","n":2,"m":2,"p":2,"x_labels":["x1","x2"],'
        '"y_labels":["y1","y2"],"z_labels":["z1","z2"],"px":["1/2","1/2"],'
        '"weights":["1/2","1/2"],"assignments":[[1,2],[2,1]],'
        '"p_lower_bound":2}',
        '',
    ),
    'build det22': (
        0,
        'SCHEME v1\n'
        '2 2 2\n'
        'x1 x2\n'
        'y1 y2\n'
        '1/2 1/2\n'
        'z1 2/3 1 2\n'
        'z2 1/3 2 1\n',
        '',
    ),
    'build det22 --json': (
        0,
        '{"kind":"scheme","n":2,"m":2,"p":2,"x_labels":["x1","x2"],'
        '"y_labels":["y1","y2"],"z_labels":["z1","z2"],"px":["1/2","1/2"],'
        '"weights":["2/3","1/3"],"assignments":[[1,2],[2,1]],'
        '"p_lower_bound":2}',
        '',
    ),
    'build skew22': (
        1,
        '',
        'infeasible: column sum exceeds 1 at y1\n',
    ),
    'build skew22 --json': (
        1,
        '',
        'infeasible: column sum exceeds 1 at y1\n',
    ),
    'deterministic corr23': (
        0,
        'SCHEME v1\n'
        '2 3 2\n'
        'x1 x2\n'
        'y1 y2 y3\n'
        '1/2 1/2\n'
        'z1 1/2 1 2 3\n'
        'z2 1/2 2 3 1\n',
        '',
    ),
    'deterministic corr23 --json': (
        0,
        '{"kind":"deterministic-search","status":"found","nodes":4,'
        '"row_multisets_equal":true,"scheme":{"n":2,"m":3,"p":2,'
        '"x_labels":["x1","x2"],"y_labels":["y1","y2","y3"],'
        '"z_labels":["z1","z2"],"px":["1/2","1/2"],"weights":["1/2","1/2"],'
        '"assignments":[[1,2,3],[2,3,1]]}}',
        '',
    ),
    'deterministic mixed23': (
        1,
        'row value multisets equal: no\n'
        'no deterministic scheme exists\n',
        '',
    ),
    'deterministic mixed23 --json': (
        1,
        '{"kind":"deterministic-search","status":"none_found","nodes":0,'
        '"row_multisets_equal":false,"scheme":null}',
        '',
    ),
    'deterministic otp2': (
        0,
        'SCHEME v1\n'
        '2 2 2\n'
        'x1 x2\n'
        'y1 y2\n'
        '1/2 1/2\n'
        'z1 1/2 1 2\n'
        'z2 1/2 2 1\n',
        '',
    ),
    'deterministic otp2 --json': (
        0,
        '{"kind":"deterministic-search","status":"found","nodes":4,'
        '"row_multisets_equal":true,"scheme":{"n":2,"m":2,"p":2,'
        '"x_labels":["x1","x2"],"y_labels":["y1","y2"],"z_labels":["z1",'
        '"z2"],"px":["1/2","1/2"],"weights":["1/2","1/2"],'
        '"assignments":[[1,2],[2,1]]}}',
        '',
    ),
    'deterministic det22': (
        0,
        'SCHEME v1\n'
        '2 2 2\n'
        'x1 x2\n'
        'y1 y2\n'
        '1/2 1/2\n'
        'z1 2/3 1 2\n'
        'z2 1/3 2 1\n',
        '',
    ),
    'deterministic det22 --json': (
        0,
        '{"kind":"deterministic-search","status":"found","nodes":4,'
        '"row_multisets_equal":true,"scheme":{"n":2,"m":2,"p":2,'
        '"x_labels":["x1","x2"],"y_labels":["y1","y2"],"z_labels":["z1",'
        '"z2"],"px":["1/2","1/2"],"weights":["2/3","1/3"],'
        '"assignments":[[1,2],[2,1]]}}',
        '',
    ),
    'deterministic skew22': (
        1,
        '',
        'infeasible: column sum exceeds 1 at y1\n',
    ),
    'deterministic skew22 --json': (
        1,
        '',
        'infeasible: column sum exceeds 1 at y1\n',
    ),
    'build corr23 -o out': (
        0,
        'wrote scheme (2 signals) to out\n',
        '',
    ),
    'build corr23 -o out --json': (
        0,
        '{"kind":"scheme","n":2,"m":3,"p":2,"x_labels":["x1","x2"],'
        '"y_labels":["y1","y2","y3"],"z_labels":["z1","z2"],"px":["1/2",'
        '"1/2"],"weights":["1/2","1/2"],"assignments":[[1,2,3],[2,3,1]],'
        '"p_lower_bound":2}',
        '',
    ),
    'deterministic det22 -o out': (
        0,
        'row value multisets equal: yes\n'
        'wrote deterministic scheme to out\n',
        '',
    ),
    'deterministic det22 -o out --json': (
        0,
        '{"kind":"deterministic-search","status":"found","nodes":4,'
        '"row_multisets_equal":true,"scheme":{"n":2,"m":2,"p":2,'
        '"x_labels":["x1","x2"],"y_labels":["y1","y2"],"z_labels":["z1",'
        '"z2"],"px":["1/2","1/2"],"weights":["2/3","1/3"],'
        '"assignments":[[1,2],[2,1]]}}',
        '',
    ),
    'deterministic mixed23 -o out': (
        1,
        'row value multisets equal: no\n'
        'no deterministic scheme exists\n',
        '',
    ),
    'shannon -n 2 -m 3': (
        0,
        'INSTANCE v1\n'
        '2 3\n'
        'x1 x2\n'
        'y1 y2 y3\n'
        '1/6 1/6 1/6\n'
        '1/6 1/6 1/6\n',
        '',
    ),
    'shannon -n 2 -m 3 -o out': (
        0,
        'wrote instance to out\n',
        '',
    ),
    'shannon -n 2 -m 3 -o out --json': (
        0,
        '{"kind":"instance","n":2,"m":3,"x_labels":["x1","x2"],'
        '"y_labels":["y1","y2","y3"],"p_xy":[["1/6","1/6","1/6"],["1/6",'
        '"1/6","1/6"]]}',
        '',
    ),
    'simulate corr23.scheme --against corr23 -n 3000 --seed 7': (
        0,
        'samples: 3000\n'
        'decode success: 1.000000\n'
        'empirical Q_Z: z1=0.502333 z2=0.497667\n'
        'TV from P_X by signal (min count 1000): z1=0.001659 z2=0.003014\n'
        'max TV: 0.003014\n',
        '',
    ),
    'simulate corr23.scheme --against corr23 -n 3000 --seed 7 --json': (
        0,
        '{"kind":"simulation","samples":3000,"decode_success":1.0,'
        '"empirical_qz":[0.5023333333333333,0.49766666666666665],'
        '"tv_secrecy":[0.0016589250165892633,0.003014065639651703],'
        '"max_tv":0.003014065639651703,"min_count":1000,"shards":1,'
        '"seed":7}',
        '',
    ),
    'simulate mixed23.scheme --against mixed23 -n 3000 --seed 7': (
        0,
        'samples: 3000\n'
        'decode success: 1.000000\n'
        'empirical Q_Z: z1=0.498667 z2=0.338000 z3=0.163333\n'
        'TV from P_X by signal (min count 1000): z1=0.005348 z2=0.003945 z3=n'
        '/a\n'
        'max TV: 0.005348\n',
        '',
    ),
    'simulate mixed23.scheme --against mixed23 -n 3000 --seed 7 --json': (
        0,
        '{"kind":"simulation","samples":3000,"decode_success":1.0,'
        '"empirical_qz":[0.49866666666666665,0.338,'
        '0.16333333333333333],"tv_secrecy":[0.005347593582887722,'
        '0.0039447731755424265,null],"max_tv":0.005347593582887722,'
        '"min_count":1000,"shards":1,'
        '"seed":7}',
        '',
    ),
    'simulate otp2.scheme --against otp2 -n 3000 --seed 7': (
        0,
        'samples: 3000\n'
        'decode success: 1.000000\n'
        'empirical Q_Z: z1=0.499333 z2=0.500667\n'
        'TV from P_X by signal (min count 1000): z1=0.004673 z2=0.000000\n'
        'max TV: 0.004673\n',
        '',
    ),
    'simulate otp2.scheme --against otp2 -n 3000 --seed 7 --json': (
        0,
        '{"kind":"simulation","samples":3000,"decode_success":1.0,'
        '"empirical_qz":[0.49933333333333335,0.5006666666666667],'
        '"tv_secrecy":[0.004672897196261655,0.0],'
        '"max_tv":0.004672897196261655,'
        '"min_count":1000,"shards":1,"seed":7}',
        '',
    ),
    'simulate det22.scheme --against det22 -n 3000 --seed 7': (
        0,
        'samples: 3000\n'
        'decode success: 1.000000\n'
        'empirical Q_Z: z1=0.672333 z2=0.327667\n'
        'TV from P_X by signal (min count 1000): z1=0.007685 z2=n/a\n'
        'max TV: 0.007685\n',
        '',
    ),
    'simulate det22.scheme --against det22 -n 3000 --seed 7 --json': (
        0,
        '{"kind":"simulation","samples":3000,"decode_success":1.0,'
        '"empirical_qz":[0.6723333333333333,0.32766666666666666],'
        '"tv_secrecy":[0.007684680218145751,null],'
        '"max_tv":0.007684680218145751,"min_count":1000,"shards":1,'
        '"seed":7}',
        '',
    ),
    ('simulate mixed23.scheme --against mixed23 -n 2500 --seed 11'
     ' --shards 3 --min-count 900'): (
        0,
        'samples: 2500\n'
        'decode success: 1.000000\n'
        'empirical Q_Z: z1=0.496000 z2=0.335600 z3=0.168400\n'
        'TV from P_X by signal (min count 900): z1=0.000806 z2=n/a z3=n/a\n'
        'max TV: 0.000806\n',
        '',
    ),
    ('simulate mixed23.scheme --against mixed23 -n 2500 --seed 11'
     ' --shards 3 --min-count 900 --json'): (
        0,
        '{"kind":"simulation","samples":2500,"decode_success":1.0,'
        '"empirical_qz":[0.496,0.3356,0.1684],"tv_secrecy":['
        '0.0008064516129032417,null,null],"max_tv":0.0008064516129032417,'
        '"min_count":900,"shards":3,"seed":11}',
        '',
    ),
}

# ``sidepad decode`` on every (y, z) pair of each fixture's built scheme: one
# string per y label, the decoded state per z label, "-" where the pair is
# off support.
DECODE_GOLDEN = {
    'corr23': ('x1 -', 'x2 x1', '- x2'),
    'mixed23': ('- x1 x1', 'x1 x2 -', 'x2 - x2'),
    'otp2': ('x1 x2', 'x2 x1'),
    'det22': ('x1 x2', 'x2 x1'),
}


@pytest.fixture
def files(paths, tmp_path):
    """``paths`` plus the built scheme of every feasible fixture."""
    out = dict(paths)
    for name, factory in [
        ("corr23", corr23), ("mixed23", mixed23), ("otp2", otp2), ("det22", det22)
    ]:
        path = tmp_path / f"{name}.scheme"
        path.write_text(sp.serialize_scheme(sp.build_scheme(factory())))
        out[f"{name}.scheme"] = str(path)
    return out


@pytest.mark.parametrize("key", list(CLI_GOLDEN))
def test_command_output_is_pinned(capsys, files, tmp_path, key):
    code, out, err = CLI_GOLDEN[key]
    target = tmp_path / "out"
    argv = [str(target) if t == "out" else files.get(t, t) for t in key.split()]
    if "--json" in argv and out:
        out = json.dumps(json.loads(out), indent=2) + "\n"
    got_code, got_out, got_err = run(capsys, *argv)
    assert (got_code, got_out.replace(str(target), "out"), got_err) == (
        code, out, err
    )
    if "out" in key.split():
        # The file holds what the command prints without -o and --json.
        base = key.replace(" -o out", "").replace(" --json", "")
        if code == 0:
            assert target.read_text(encoding="utf-8") == CLI_GOLDEN[base][1]
        else:
            assert not target.exists()


@pytest.mark.parametrize("name", list(DECODE_GOLDEN))
def test_decode_output_is_pinned(capsys, files, name):
    path = files[f"{name}.scheme"]
    scheme = sp.parse_scheme(Path(path).read_text(encoding="utf-8"))
    for y, row in zip(scheme.y_labels, DECODE_GOLDEN[name]):
        for z, x in zip(scheme.z_labels, row.split()):
            if x == "-":
                miss = (1, "", f"error: pair ({y}, {z}) has zero probability "
                               "under the scheme\n")
                expected = [miss, miss]
            else:
                expected = [
                    (0, f"{x}\n", ""),
                    (0, '{\n  "kind": "decode",\n  "x": "%s"\n}\n' % x, ""),
                ]
            assert [
                run(capsys, "decode", path, "--y", y, "--z", z, *flags)
                for flags in ((), ("--json",))
            ] == expected


# --- plumbing ---------------------------------------------------------------


def test_malformed_instance_file(capsys, tmp_path):
    path = tmp_path / "bad.inst"
    path.write_text("INSTANCE v1\n2 2\nx1 x2\ny1 y2\n1/2 1/2\n1/2 1/2\n")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "error:" in err


def test_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "nope.inst"))
    assert code == 2
    assert "error:" in err


def test_a_document_that_is_not_utf8_is_malformed_input(capsys, tmp_path):
    path = tmp_path / "latin1.inst"
    path.write_bytes("INSTANCE v1\n1 1\nx\u00e9\ny1\n1\n".encode("latin-1"))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_no_arguments(capsys):
    assert run(capsys)[0] == 2



# '٣' is Arabic-Indic three; int() and Fraction() would read it, and 1_0.
NON_ASCII_INSTANCES = [
    "INSTANCE v1\n٢ 3\nx1 x2\ny1 y2 y3\n1/4 1/4 0\n0 1/4 1/4\n",
    "INSTANCE v1\n1_0 3\nx1 x2\ny1 y2 y3\n1/4 1/4 0\n0 1/4 1/4\n",
    "INSTANCE v1\n2 3\nx1 x2\ny1 y2 y3\n١/٤ 1/4 0\n0 1/4 1/4\n",
]


@pytest.mark.parametrize("text", NON_ASCII_INSTANCES)
def test_check_refuses_non_ascii_numbers(capsys, tmp_path, text):
    path = tmp_path / "bad.inst"
    path.write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "old, new", [("2 3 2\n", "2 3 ٢\n"), ("2 3 2\n", "2 3 0_2\n"),
                 ("z1 1/2", "z1 ١/٢")]
)
def test_verify_refuses_non_ascii_numbers(capsys, paths, tmp_path, old, new):
    doc = sp.serialize_scheme(sp.build_scheme(corr23()))
    assert old in doc
    path = tmp_path / "bad.scheme"
    path.write_text(doc.replace(old, new, 1), encoding="utf-8")
    code, _, err = run(capsys, "verify", str(path), "--against", paths["corr23"])
    assert code == 2
    assert "error:" in err


@needs_digit_limit
@pytest.mark.parametrize("command", ["check", "build", "oracle"])
def test_numbers_past_the_digit_limit_exit_2(capsys, tmp_path, command):
    digits = "7" * (DIGIT_LIMIT + 700)
    path = tmp_path / "long.inst"
    path.write_text(
        f"INSTANCE v1\n1 1\nx1\ny1\n{digits}/{digits}\n", encoding="utf-8"
    )
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "too long" in err
    assert "Traceback" not in err and len(err) < 300


@needs_digit_limit
@pytest.mark.parametrize(
    "argv", [["check"], ["check", "--json"], ["build"], ["deterministic"]]
)
def test_rationals_past_the_digit_limit_exit_3(capsys, tmp_path, argv):
    # Coprime denominators of just over half the limit each: every token
    # parses, but the column sums of P(Y|X) are over their product.
    half = DIGIT_LIMIT // 2 + 50
    a = 3 ** (half * 2096 // 1000)
    b = 2 ** (half * 3322 // 1000)
    assert half <= len(str(a)) < DIGIT_LIMIT and half <= len(str(b)) < DIGIT_LIMIT
    path = tmp_path / "wide.inst"
    path.write_text(sp.serialize_instance(sp.make_instance(
        ["x1", "x2"], ["y1", "y2"],
        [[F(1, a), F(1, 2) - F(1, a)], [F(1, b), F(1, 2) - F(1, b)]],
    )))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "too long to print" in err
    assert "Traceback" not in err and len(err) < 300


@needs_digit_limit
@pytest.mark.parametrize("field", ["mass", "weight"])
def test_an_unprintable_bad_scheme_number_exits_2(capsys, paths, tmp_path, field):
    # The token parses, but its denominator 10**DIGIT_LIMIT has one digit
    # too many to print in the "must be positive" message: the message
    # names the value without its digits, and the input error stays one.
    bad = f"-0.{'7' * DIGIT_LIMIT}"
    mass, weight = (bad, "1") if field == "mass" else ("1", bad)
    path = tmp_path / "negative.scheme"
    path.write_text(f"SCHEME v1\n1 1 1\nx1\ny1\n{mass}\nz1 {weight} 1\n")
    code, out, err = run(capsys, "verify", str(path), "--against", paths["otp2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"{field} must be positive" in err
    assert "too long to print" in err
    assert "Traceback" not in err and len(err) < 300


@needs_digit_limit
@pytest.mark.parametrize("command", ["check", "build", "oracle"])
def test_an_unprintable_bad_mass_sum_exits_2(capsys, tmp_path, command):
    # Both tokens parse, but their sum's denominator 3**4700 * 2**7400 is
    # past the digit limit, too long to print in the "sums to" message.
    a, b = 3 ** 4700, 2 ** 7400
    assert len(str(a)) < DIGIT_LIMIT and len(str(b)) < DIGIT_LIMIT
    assert len(str(a)) + len(str(b)) > DIGIT_LIMIT + 1
    path = tmp_path / "short.inst"
    path.write_text(f"INSTANCE v1\n1 2\nx1\ny1 y2\n1/{a} 1/{b}\n")
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "mass sums to" in err
    assert "too long to print" in err
    assert "Traceback" not in err and len(err) < 300
