"""Differential test: every quantity verification and the runtime derive
from a scheme's compiled joint equals a brute-force enumeration of the
defining formula Q(x_i, y_j, z_k) = alpha_k * P_X(x_i) * [sigma_k(i) = j]
over all (i, j, k) triples."""

import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sidepad as sp
from corpus import corpus, corr23, mixed23

ZERO = F(0)


def brute_joint(scheme):
    return {
        (i, j, k): scheme.weights[k] * scheme.px[i]
        * (1 if scheme.assignments[k][i] == j else 0)
        for i in range(scheme.n)
        for j in range(scheme.m)
        for k in range(scheme.p)
    }


def marginal(q, scheme, keep):
    """Sum the joint onto the axes named in ``keep`` (a subset of 'xyz').
    Triples missing from ``q`` count as zero."""
    sizes = {"x": scheme.n, "y": scheme.m, "z": scheme.p}
    out = {}
    for (i, j, k), v in q.items():
        key = tuple(c for axis, c in zip("xyz", (i, j, k)) if axis in keep)
        out[key] = out.get(key, ZERO) + v
    shape = [sizes[a] for a in keep]
    if len(shape) == 1:
        return tuple(out.get((a,), ZERO) for a in range(shape[0]))
    return tuple(
        tuple(out.get((a, b), ZERO) for b in range(shape[1]))
        for a in range(shape[0])
    )


def states_at(q, scheme, j, k):
    return [i for i in range(scheme.n) if q[(i, j, k)] > 0]


def brute_laws(scheme, inst, q):
    q_xy, q_xz, q_z = marginal(q, scheme, "xy"), marginal(q, scheme, "xz"), marginal(q, scheme, "z")
    supp = sp.supp_x(inst)
    consistency = next(
        (
            {"x": scheme.x_labels[i], "y": scheme.y_labels[j],
             "got": q_xy[i][j], "expected": inst.p_xy[supp[i]][j]}
            for i in range(scheme.n)
            for j in range(scheme.m)
            if q_xy[i][j] != inst.p_xy[supp[i]][j]
        ),
        None,
    )
    informativeness = next(
        (
            {"y": scheme.y_labels[j], "z": scheme.z_labels[k],
             "xs": tuple(scheme.x_labels[i] for i in states_at(q, scheme, j, k))}
            for j in range(scheme.m)
            for k in range(scheme.p)
            if len(states_at(q, scheme, j, k)) > 1
        ),
        None,
    )
    secrecy = next(
        (
            {"x": scheme.x_labels[i], "z": scheme.z_labels[k],
             "got": q_xz[i][k], "expected": q_z[k] * scheme.px[i]}
            for i in range(scheme.n)
            for k in range(scheme.p)
            if q_z[k] != 0 and q_xz[i][k] != q_z[k] * scheme.px[i]
        ),
        None,
    )
    return consistency, informativeness, secrecy


def brute_audit(scheme, q):
    n, m, p = scheme.n, scheme.m, scheme.p
    q_y, q_z = marginal(q, scheme, "y"), marginal(q, scheme, "z")
    phi = [[[k for k in range(p) if q[(i, j, k)] > 0] for j in range(m)] for i in range(n)]
    disjoint = []
    for j in range(m):
        owner = {}
        for i in range(n):
            for k in phi[i][j]:
                if k in owner and owner[k] != i:
                    disjoint.append(
                        {"law": "disjoint_support", "y": scheme.y_labels[j],
                         "z": scheme.z_labels[k],
                         "xs": (scheme.x_labels[owner[k]], scheme.x_labels[i])}
                    )
                owner.setdefault(k, i)
    column_mass = tuple(
        None if q_y[j] == 0
        else sum((q_z[k] for i in range(n) for k in phi[i][j]), ZERO)
        for j in range(m)
    )
    heavy = [
        {"law": "column_mass", "y": scheme.y_labels[j], "mass": mass}
        for j, mass in enumerate(column_mass)
        if mass is not None and mass > 1
    ]
    witness = (disjoint + heavy or [None])[0]
    # Q_XYZ(x, y, z) is one nonnegative term of the sum Q_XZ(x, z), so the
    # triple bound holds on every scheme.
    return (True, not disjoint, not heavy, column_mass, witness)


def assert_matches_brute_force(scheme, inst):
    q = brute_joint(scheme)
    report = sp.verify_scheme(scheme, inst)
    assert report.q_xy == marginal(q, scheme, "xy")
    assert report.q_xz == marginal(q, scheme, "xz")
    assert report.q_yz == marginal(q, scheme, "yz")
    assert report.q_z == marginal(q, scheme, "z")

    consistency, informativeness, secrecy = brute_laws(scheme, inst, q)
    for result, witness in (
        (report.consistency, consistency),
        (report.informativeness, informativeness),
        (report.secrecy, secrecy),
    ):
        assert result.ok == (witness is None)
        assert result.witness == witness

    for i in range(scheme.n):
        for j in range(scheme.m):
            assert sp.support_signals(scheme, i, j) == {
                k for k in range(scheme.p) if q[(i, j, k)] > 0
            }
    if informativeness is None:
        assert sp.decode_table(scheme) == {
            (j, k): states_at(q, scheme, j, k)[0]
            for j in range(scheme.m)
            for k in range(scheme.p)
            if states_at(q, scheme, j, k)
        }
    else:
        with pytest.raises(sp.UnverifiedSchemeError):
            sp.decode_table(scheme)

    assert_each_pair_lies_in_one_cell(scheme, q)
    audit = sp.necessity_audit(scheme)
    triple_ok, disjoint_ok, mass_ok, column_mass, witness = brute_audit(scheme, q)
    assert audit.triple_bound_ok == triple_ok
    assert audit.disjoint_ok == disjoint_ok
    assert audit.disjoint_ok == report.informativeness.ok
    assert audit.column_mass_ok == mass_ok
    assert audit.ok == (triple_ok and disjoint_ok and mass_ok)
    assert audit.column_mass == column_mass
    assert audit.witness == witness


def assert_each_pair_lies_in_one_cell(scheme, q):
    """The fact ``necessity_audit`` reports the triple bound from: each
    (state row, signal) pair lies in at most one phi cell, and that cell's
    term a[k] * b[i] / den is all of Q_XZ(x, z), so Q_XYZ <= Q_XZ holds."""
    joint = scheme._joint
    q_xz = marginal(q, scheme, "xz")
    for i, row in enumerate(joint.phi):
        cell_of = {}
        for j, ks in row.items():
            for k in ks:
                assert k not in cell_of, (i, k, cell_of.get(k), j)
                cell_of[k] = j
        for k in range(scheme.p):
            term = F(joint.a[k] * joint.b[i], joint.den) if k in cell_of else ZERO
            assert term == q_xz[i][k]


def test_compiled_joint_matches_brute_force_on_corpus():
    checked = 0
    for inst in corpus():
        if not sp.check_feasible(inst).feasible:
            continue
        assert_matches_brute_force(sp.build_scheme(inst), inst)
        checked += 1
    assert checked > 100


def test_report_marginals_are_built_on_first_read():
    # A 24x48 permutation mixture: uniform P_X, conditional rows the first
    # 24 rows of 48 random permutation matrices, integer weights summing to
    # 4m.  Verdicts come up front; each marginal waits for its first read.
    rng = random.Random(11)
    n, m = 24, 48
    cuts = sorted(rng.sample(range(1, 4 * m), m - 1))
    counts = [[0] * m for _ in range(n)]
    for weight in (b - a for a, b in zip([0, *cuts], [*cuts, 4 * m])):
        perm = rng.sample(range(m), m)
        for i in range(n):
            counts[i][perm[i]] += weight
    inst = sp.instance_from_conditional(
        [F(1, n)] * n, [[F(c, 4 * m) for c in row] for row in counts]
    )
    scheme = sp.build_scheme(inst)
    report = sp.verify_scheme(scheme, inst)
    assert report.all_ok
    assert report == sp.verify_scheme(scheme, inst)
    names = {"q_z": "z", "q_xz": "xz", "q_yz": "yz", "q_xy": "xy"}
    # The defining formula on its nonzero triples only: brute_joint's
    # dense n*m*p enumeration takes seconds at this size.
    q = {
        (i, sigma[i], k): w * scheme.px[i]
        for k, (w, sigma) in enumerate(zip(scheme.weights, scheme.assignments))
        for i in range(n)
    }
    values = []
    for read, (name, keep) in enumerate(names.items()):
        assert vars(report).keys() & names.keys() == set(list(names)[:read])
        value = getattr(report, name)
        assert value == marginal(q, scheme, keep)
        assert getattr(report, name) is value
        values += value if name == "q_z" else [v for row in value for v in row]
    # One memo serves all four: equal values are one Fraction object.
    assert len({id(v) for v in values}) == len(set(values))


def _variant(scheme, **changes):
    fields = dict(
        x_labels=scheme.x_labels,
        y_labels=scheme.y_labels,
        z_labels=scheme.z_labels,
        px=scheme.px,
        weights=scheme.weights,
        assignments=scheme.assignments,
    )
    fields.update(changes)
    return sp.Scheme(**fields)


def broken_schemes():
    inst = corr23()
    worked = sp.build_scheme(inst)
    first, second = worked.assignments
    collapsed_inst = sp.make_instance(
        ["x1", "x2"], ["y1", "y2"], [["1/2", "0"], ["0", "1/2"]]
    )
    return [
        ("perturbed_weight",
         _variant(worked, weights=(F(1, 2) + F(1, 100), F(1, 2))), inst),
        ("merged_signal", _variant(worked, assignments=(first, (1, 1, 0))), inst),
        ("dropped_pair",
         _variant(worked, assignments=((0, None, 2), second)), inst),
        ("collapsed", sp.Scheme(
            x_labels=("x1", "x2"), y_labels=("y1", "y2"), z_labels=("z1",),
            px=(F(1, 2), F(1, 2)), weights=(F(1),), assignments=((0, None),),
        ), collapsed_inst),
        # Clashes at (y2, z2) and (y1, z3): the later signal's comes first
        # in (y, z) scan order, so it is the informativeness witness.
        ("late_clash", _variant(
            sp.build_scheme(mixed23()),
            assignments=((0, 1, 2), (1, 1, 0), (0, 0, 1)),
        ), mixed23()),
        ("shared_signals", shared_signals(), collapsed_inst),
        ("crossed_pairs", crossed_pairs(), crossed_inst()),
    ]


def shared_signals():
    """Nine signals; x1 and x2 share z2 and z9 at y1, everything else is
    disjoint."""
    return sp.Scheme(
        x_labels=("x1", "x2"), y_labels=("y1", "y2"),
        z_labels=tuple(f"z{k+1}" for k in range(9)),
        px=(F(1, 2), F(1, 2)), weights=(F(1, 9),) * 9,
        assignments=tuple((0, 0) if k in (1, 8) else (0, 1) for k in range(9)),
    )


def crossed_pairs():
    """Two signals clash at y1: z1 pairs it with x1 and x3, z2 with x1 and
    x2.  Informativeness names z1, the lower signal; the audit names z2,
    whose second state comes first."""
    return sp.Scheme(
        x_labels=("x1", "x2", "x3"), y_labels=("y1", "y2", "y3"),
        z_labels=("z1", "z2"), px=(F(1, 3),) * 3, weights=(F(1, 2),) * 2,
        assignments=((0, 1, 0), (0, 0, 2)),
    )


def crossed_inst():
    return sp.make_instance(
        ["x1", "x2", "x3"], ["y1", "y2", "y3"],
        [["1/3", "0", "0"], ["1/6", "1/6", "0"], ["1/6", "0", "1/6"]],
    )


@pytest.mark.parametrize("scheme, z, xs, clash, column_mass", [
    # Signals in a cell are scanned in ascending index, so the witness is
    # z2 rather than z9 (a frozenset of {1, 8} would iterate 8 first).
    (shared_signals(), "z2", ("x1", "x2"), ("z2", ("x1", "x2")),
     (F(11, 9), F(7, 9))),
    (crossed_pairs(), "z2", ("x1", "x2"), ("z1", ("x1", "x3")),
     (F(2), F(1, 2), F(1, 2))),
], ids=["shared_signals", "crossed_pairs"])
def test_disjointness_witness_names_the_lowest_shared_signal(
    scheme, z, xs, clash, column_mass,
):
    audit = sp.necessity_audit(scheme)
    assert (audit.triple_bound_ok, audit.disjoint_ok, audit.column_mass_ok) == (
        True, False, False,
    )
    assert audit.witness == {
        "law": "disjoint_support", "y": "y1", "z": z, "xs": xs,
    }
    assert audit.column_mass == column_mass
    info = sp.check_informativeness(scheme)
    assert (info.witness["y"], info.witness["z"], info.witness["xs"]) == (
        "y1", *clash,
    )


@pytest.mark.parametrize(
    "name, scheme, inst", broken_schemes(), ids=[b[0] for b in broken_schemes()]
)
def test_compiled_joint_matches_brute_force_on_broken_schemes(name, scheme, inst):
    assert_matches_brute_force(scheme, inst)
    assert not sp.verify_scheme(scheme, inst).all_ok or not sp.necessity_audit(scheme).ok


def test_decode_table_is_built_once_and_read_only():
    scheme = sp.build_scheme(mixed23())
    table = sp.decode_table(scheme)
    assert sp.decode_table(scheme) is table
    with pytest.raises(TypeError):
        table[(0, 0)] = 1
    for (j, k), i in table.items():
        assert sp.decode(scheme, j, k) == i


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


@st.composite
def scrambled_schemes(draw):
    """A scheme with arbitrary positive rational state masses and weights
    over pairwise-coprime denominators (neither summing to 1), ``None``
    rows and clashing columns, paired with an instance of the same shape:
    random, or the scheme's own Q_XY after rescaling its weights, and
    sometimes with an extra zero-mass row."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 4))
    p = draw(st.integers(1, 4))
    primes = iter(draw(st.permutations(PRIMES)))

    def masses(count):
        out = []
        for _ in range(count):
            den = next(primes) ** draw(st.integers(0, 2))
            out.append(F(draw(st.integers(1, 3 * den)), den))
        return tuple(out)

    px, weights = masses(n), masses(p)
    cells = st.one_of(st.none(), st.integers(0, m - 1))
    assignments = tuple(
        tuple(draw(st.lists(cells, min_size=m, max_size=m))) for _ in range(p)
    )
    scheme = sp.Scheme(
        x_labels=tuple(f"x{i+1}" for i in range(n)),
        y_labels=tuple(f"y{j+1}" for j in range(m)),
        z_labels=tuple(f"z{k+1}" for k in range(p)),
        px=px, weights=weights, assignments=assignments,
    )
    q_xy = marginal(brute_joint(scheme), scheme, "xy")
    total = sum(map(sum, q_xy))
    if total and all(map(any, q_xy)) and draw(st.booleans()):
        # Rescaled weights make the scheme's Q_XY the instance's P_XY.
        scheme = _variant(scheme, weights=tuple(w / total for w in weights))
        grid = [[v / total for v in row] for row in q_xy]
    else:
        units = [
            draw(st.lists(st.integers(0, 5), min_size=m, max_size=m).filter(any))
            for _ in range(n)
        ]
        grid = [[F(u, sum(map(sum, units))) for u in row] for row in units]
    labels = list(scheme.x_labels)
    if draw(st.booleans()):
        at = draw(st.integers(0, n))
        grid.insert(at, [F(0)] * m)
        labels.insert(at, "x0")
    return scheme, sp.make_instance(labels, scheme.y_labels, grid)


@settings(max_examples=300, deadline=None)
@given(scrambled_schemes())
def test_compiled_joint_matches_brute_force_on_random_schemes(case):
    assert_matches_brute_force(*case)


def _wide_document(n=1000):
    """A SCHEME v1 document of about 20 KiB: n states, n columns and one
    signal that sends state i to column i."""
    return sp.serialize_scheme(sp.Scheme(
        x_labels=tuple(f"x{i+1}" for i in range(n)),
        y_labels=tuple(f"y{j+1}" for j in range(n)),
        z_labels=("z1",),
        px=(F(1, n),) * n,
        weights=(F(1),),
        assignments=(tuple(range(n)),),
    ))


WIDE_CALLS = {
    "decode": (lambda s: sp.decode(s, 999, 0), 999),
    "encode": (lambda s: sp.encode(s, 999, 999, sp.RandomSource(1)), 0),
    "necessity_audit": (lambda s: sp.necessity_audit(s).ok, True),
}


@pytest.mark.parametrize("name", list(WIDE_CALLS))
def test_a_small_wide_scheme_compiles_without_an_n_by_m_grid(name):
    call, expected = WIDE_CALLS[name]
    # A fresh parse per call, so the traced call compiles the joint itself.
    scheme = sp.parse_scheme(_wide_document())
    tracemalloc.start()
    try:
        assert call(scheme) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"{name} peaked at {peak / 2**20:.1f} MiB"
