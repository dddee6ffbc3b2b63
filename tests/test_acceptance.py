"""Acceptance gate: one test per release criterion, zero tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass or fail line
per criterion.  All arithmetic is exact, so every residual must vanish
identically.  Frozen expected values in this module are cross-checked by the
unit test modules, which record where each number comes from.

Three criteria assert statements that are mathematically false for the
witnesses they name.  They are implemented faithfully and fail with an
assertion message carrying the analysis, rather than being weakened until
they pass.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import aff1, heisenberg, sl2

import albv
from albv.algebroid import (
    PoissonStructure,
    cotangent_algebroid,
    lie_algebra,
    tangent_algebroid,
    triangular_dual_algebroid,
)
from albv.bv import (
    AConnectionOnA,
    TopConnection,
    connection_from_operator,
    curvature,
    divergence,
    generating_operator,
    operator_difference,
    torsion_free_generator,
)
from albv.calculus import (
    bialgebroid_check,
    differential,
    dual_differential,
    schouten,
    schouten_oracle,
)
from albv.exterior import (
    A_SIDE,
    DUAL_SIDE,
    contract_or_zero,
    pairing,
    wedge,
)
from albv.homology import (
    anticommutator_defect_check,
    boundary_betti,
    cohomology_betti,
    duality_check,
    homotopy_invariance_check,
    kb_betti,
    lichnerowicz_betti,
    lie_algebra_boundary,
    modular_relation_check,
    modular_vector_field,
    monomial_basis_elems,
    star_conjugation_check,
)
from albv.randgen import random_elem, random_flat_form, random_section

XY = ("x", "y")
XYZ = ("x", "y", "z")


def roster():
    """The structures every structural criterion quantifies over."""
    return [
        ("tangent plane", tangent_algebroid(XY)),
        ("tangent 3-space", tangent_algebroid(XYZ)),
        ("affine line algebra", aff1()),
        ("sl2", sl2()),
        ("heisenberg", heisenberg()),
        ("constant cotangent", cotangent_algebroid(PoissonStructure(XY, {(0, 1): "1"}))),
        ("linear cotangent", cotangent_algebroid(PoissonStructure(XY, {(0, 1): "y"}))),
    ]


def lie_basis(a):
    out = []
    for k in range(a.rank + 1):
        out.extend(monomial_basis_elems((), a.rank, A_SIDE, k, 0))
    return out


def test_criterion_01_axioms_hold_and_a_perturbed_bracket_is_rejected():
    for name, a in roster():
        report = a.validate()
        assert report.ok, "%s fails the axiom gate: %s" % (name, report.lines())
    broken = lie_algebra(3, {(0, 1): {0: 1, 1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    report = broken.validate()
    assert not report.ok
    assert report.anchor_failures == []
    assert report.jacobi_failures == [
        {"i": 1, "j": 2, "k": 3, "residual": "(-2) e3"}
    ]


def test_criterion_02_bracket_laws_and_oracle_agreement_on_the_roster():
    for name, a in roster():
        rng = random.Random("acceptance-2:" + name)

        def draw():
            return random_elem(rng, a, A_SIDE, rng.randrange(a.rank + 1), 3)

        for pos in range(100):
            u, v, w = draw(), draw(), draw()
            sign = -1 if ((u.degree - 1) * (v.degree - 1)) % 2 else 1

            anti = schouten(a, u, v) + sign * schouten(a, v, u)
            assert anti.is_zero, "%s antisymmetry probe %d: %s" % (name, pos + 1, anti)

            jac = (
                schouten(a, u, schouten(a, v, w))
                - schouten(a, schouten(a, u, v), w)
                - sign * schouten(a, v, schouten(a, u, w))
            )
            assert jac.is_zero, "%s jacobi probe %d: %s" % (name, pos + 1, jac)

            dsign = -1 if ((u.degree - 1) * v.degree) % 2 else 1
            der = (
                schouten(a, u, wedge(v, w))
                - wedge(schouten(a, u, v), w)
                - dsign * wedge(v, schouten(a, u, w))
            )
            assert der.is_zero, "%s derivation probe %d: %s" % (name, pos + 1, der)

            orc = schouten(a, u, v) - schouten_oracle(a, u, v)
            assert orc.is_zero, "%s oracle probe %d: %s" % (name, pos + 1, orc)


def test_criterion_03_differential_squares_and_bialgebroid_compatibility():
    for name, a in roster():
        rng = random.Random("acceptance-3:" + name)
        for pos in range(20):
            omega = random_elem(rng, a, DUAL_SIDE, rng.randrange(a.rank + 1), 3)
            twice = differential(a, differential(a, omega))
            assert twice.is_zero, "%s square probe %d: %s" % (name, pos + 1, twice)

    # The cotangent lift of a self-commuting bivector satisfies the mixed
    # derivation identity against the tangent bracket.
    plane = tangent_algebroid(XY)
    rng = random.Random("acceptance-3:pairs")
    pairs = [
        (random_section(rng, plane, 2), random_section(rng, plane, 2))
        for _ in range(30)
    ]
    lift = cotangent_algebroid(PoissonStructure(XY, {(0, 1): "y"}))
    good = bialgebroid_check(plane, lift, pairs)
    assert good["ok"], good["failures"][:3]

    # Failure clause.  The named three-variable bivector is required to break
    # the same identity.  It cannot, for two independent reasons, both
    # verified here before the required assertion is stated.
    space = tangent_algebroid(XYZ)
    named = PoissonStructure(XYZ, {(0, 1): "1", (1, 2): "x"}, check=False)
    assert named.jacobiator().is_zero  # the named bivector self-commutes
    genuine = PoissonStructure(XYZ, {(0, 1): "1", (1, 2): "y"}, check=False)
    assert not genuine.jacobiator().is_zero

    rng = random.Random("acceptance-3:witness")
    pairs = [
        (random_section(rng, space, 2), random_section(rng, space, 2))
        for _ in range(10)
    ]
    genuine_dual = cotangent_algebroid(genuine, check=False)
    genuine_out = bialgebroid_check(space, genuine_dual, pairs)
    squared = sum(
        1
        for x, _ in pairs
        if not dual_differential(genuine_dual, dual_differential(genuine_dual, x)).is_zero
    )
    named_out = bialgebroid_check(
        space, cotangent_algebroid(named, check=False), pairs
    )
    assert not named_out["ok"], (
        "the derivation identity cannot fail on this witness: the named "
        "bivector has zero self-bracket (asserted above), and even a bivector "
        "with nonzero self-bracket satisfies the identity (ok=%s on the same "
        "probes) because the one-form bracket is built from the bivector the "
        "same way on both sides of the identity; the obstruction shows up "
        "only in the squared dual differential (nonzero on %d of %d probe "
        "sections) and in the dual axiom gate, never in the derivation law"
        % (genuine_out["ok"], squared, len(pairs))
    )


def test_criterion_04_generating_property_for_flat_and_curved_forms():
    plane = tangent_algebroid(XY)
    s = sl2()
    configs = [
        ("plane zero", plane, plane.zero_elem(DUAL_SIDE, 1)),
        ("plane exact", plane, differential(plane, plane.scalar("x*y", DUAL_SIDE))),
        ("plane curved", plane, plane.poly("x") * plane.coframe(1)),
        ("sl2 zero", s, s.zero_elem(DUAL_SIDE, 1)),
    ]
    for label, a, alpha in configs:
        conn = TopConnection(a, alpha)
        rng = random.Random("acceptance-4:" + label)
        for pos in range(100):
            u = random_elem(rng, a, A_SIDE, rng.randrange(a.rank + 1), 2)
            v = random_elem(rng, a, A_SIDE, rng.randrange(a.rank + 1), 2)
            sign = -1 if u.degree % 2 else 1
            expanded = (
                generating_operator(conn, wedge(u, v))
                - wedge(generating_operator(conn, u), v)
                - sign * wedge(u, generating_operator(conn, v))
            )
            residual = schouten(a, u, v) - sign * expanded
            assert residual.is_zero, "%s probe %d: %s" % (label, pos + 1, residual)


def test_criterion_05_squared_operator_is_curvature_contraction():
    plane = tangent_algebroid(XY)
    curved = TopConnection(plane, plane.poly("x") * plane.coframe(1))
    r = curvature(curved)
    assert str(r) == "(1) eps1^eps2"

    rng = random.Random("acceptance-5")
    for pos in range(40):
        u = random_elem(rng, plane, A_SIDE, rng.randrange(3), 2)
        twice = generating_operator(curved, generating_operator(curved, u))
        residual = twice + contract_or_zero(r, u)
        assert residual.is_zero, "curved square probe %d: %s" % (pos + 1, residual)

    for label, alpha in (
        ("zero", plane.zero_elem(DUAL_SIDE, 1)),
        ("exact", differential(plane, plane.scalar("x^2-y", DUAL_SIDE))),
    ):
        conn = TopConnection(plane, alpha)
        assert curvature(conn).is_zero
        for pos in range(40):
            u = random_elem(rng, plane, A_SIDE, rng.randrange(3), 2)
            twice = generating_operator(conn, generating_operator(conn, u))
            assert twice.is_zero, "%s square probe %d: %s" % (label, pos + 1, twice)

    base = TopConnection(plane)
    probes = [random_elem(rng, plane, A_SIDE, rng.randrange(3), 2) for _ in range(50)]
    diff = operator_difference(plane, base.operator(), curved.operator(), probes)
    assert diff["ok"], diff["failures"][:3]
    assert diff["alpha"] == curved.alpha


def test_criterion_06_round_trips_contraction_identity_and_torsion_free_route():
    plane = tangent_algebroid(XY)
    rng = random.Random("acceptance-6")
    for pos in range(20):
        alpha = random_flat_form(rng, plane, 2)
        back = connection_from_operator(plane, TopConnection(plane, alpha).operator())
        assert back.alpha == alpha, "flat probe %d recovered %s" % (pos + 1, back.alpha)

    s = sl2()
    setups = [
        ("curved plane", plane, TopConnection(plane, plane.poly("x") * plane.coframe(1))),
        ("sl2 trivial", s, TopConnection(s)),
    ]
    for label, a, conn in setups:
        rng = random.Random("acceptance-6:" + label)
        for pos in range(60):
            theta = random_elem(rng, a, DUAL_SIDE, rng.randrange(a.rank + 1), 2)
            u = random_elem(rng, a, A_SIDE, rng.randrange(a.rank + 1), 2)
            sign = -1 if theta.degree % 2 else 1
            lhs = contract_or_zero(theta, generating_operator(conn, u))
            rhs = (
                sign * generating_operator(conn, contract_or_zero(theta, u))
                + contract_or_zero(differential(a, theta), u)
            )
            residual = lhs - rhs
            assert residual.is_zero, "%s contraction probe %d: %s" % (
                label,
                pos + 1,
                residual,
            )

    # Frame-wise formula against the induced trace connection: exhaustively
    # on the half-adjoint connection of sl2, then on a plane connection with
    # symmetric Christoffel data and a nonzero trace.
    half = [
        [[s.structure_coeff(i, j, k) / 2 for k in range(3)] for j in range(3)]
        for i in range(3)
    ]
    conn_s = AConnectionOnA(s, half)
    assert conn_s.is_torsion_free()
    induced_s = conn_s.induced_top_connection()
    assert induced_s.alpha.is_zero
    for elem in lie_basis(s):
        residual = (
            torsion_free_generator(conn_s, elem)
            - generating_operator(induced_s, elem)
        )
        assert residual.is_zero, "sl2 basis element %s: %s" % (elem, residual)

    gamma = [
        [[plane.zero_poly() for _ in range(2)] for _ in range(2)] for _ in range(2)
    ]
    gamma[0][1][0] = plane.poly("x")
    gamma[1][0][0] = plane.poly("x")
    conn_p = AConnectionOnA(plane, gamma)
    assert conn_p.is_torsion_free()
    induced_p = conn_p.induced_top_connection()
    assert str(induced_p.alpha) == "(x) eps2"
    rng = random.Random("acceptance-6:plane")
    for pos in range(30):
        u = random_elem(rng, plane, A_SIDE, rng.randrange(3), 2)
        residual = (
            torsion_free_generator(conn_p, u)
            - generating_operator(induced_p, u)
        )
        assert residual.is_zero, "plane probe %d: %s" % (pos + 1, residual)


def test_criterion_07_divergence_matches_bracket_with_the_top_section():
    plane = tangent_algebroid(XY)
    top = plane.top()
    for label, alpha in (
        ("zero", plane.zero_elem(DUAL_SIDE, 1)),
        ("curved", plane.poly("x") * plane.coframe(1)),
    ):
        conn = TopConnection(plane, alpha)
        rng = random.Random("acceptance-7:" + label)
        for pos in range(100):
            x = random_section(rng, plane, 2)
            lhs = schouten(plane, x, top) - pairing(alpha, x) * top
            rhs = divergence(conn, x) * top
            residual = lhs - rhs
            assert residual.is_zero, "%s probe %d: %s" % (label, pos + 1, residual)


def test_criterion_08_star_conjugation_between_differential_and_boundary():
    plane = tangent_algebroid(XY)
    out = star_conjugation_check(plane, plane.volume(), max_weight=4)
    assert out["ok"], out["failures"][:3]
    assert out["count"] > 0

    s = sl2()
    out = star_conjugation_check(s, s.volume())
    assert out["ok"], out["failures"][:3]
    assert out["count"] == 8  # every exterior degree of the rank-3 frame


def test_criterion_09_finite_dimensional_tables_and_duality():
    cases = [
        ("abelian rank 3", lie_algebra(3, {}), (1, 3, 3, 1), (1, 3, 3, 1)),
        ("affine line algebra", aff1(), (1, 1, 0), (0, 1, 1)),
        ("sl2", sl2(), (1, 0, 0, 1), (1, 0, 0, 1)),
        ("heisenberg", heisenberg(), (1, 2, 2, 1), (1, 2, 2, 1)),
    ]
    for name, a, coh, hom in cases:
        ctab = cohomology_betti(a)
        htab = boundary_betti(TopConnection(a))
        assert tuple(ctab.entry(k, 0) for k in range(a.rank + 1)) == coh, name
        assert tuple(htab.entry(k, 0) for k in range(a.rank + 1)) == hom, name
        dual = duality_check(a)
        assert dual["ok"], (name, dual["mismatches"])


def test_criterion_10_symplectic_plane_tables_mirror_each_other():
    pi = PoissonStructure(XY, {(0, 1): "1"})
    kb = kb_betti(pi, max_weight=4)
    lich = lichnerowicz_betti(pi, max_weight=4)
    for k in range(3):
        for w in range(5):
            assert kb.entry(k, w) == (1 if (k, w) == (2, 0) else 0), (k, w)
            assert lich.entry(k, w) == (1 if (k, w) == (0, 0) else 0), (k, w)
            assert kb.entry(k, w) == lich.entry(2 - k, w), (k, w)


def test_criterion_11_modular_fields_carry_one_global_sign():
    const_pi = PoissonStructure(XY, {(0, 1): "1"})
    linear_pi = PoissonStructure(XY, {(0, 1): "y"})
    assert modular_vector_field(const_pi).is_zero
    assert str(modular_vector_field(linear_pi)) == "(1) e1"

    signs = []
    for pi in (linear_pi, const_pi):
        out = modular_relation_check(pi)
        assert out["ok"], out["failures"][:3]
        signs.append(out["sign"])
    # one global sign: every structure with a nonzero modular operator must
    # report the same value, and the degenerate case reports none
    assert signs == [-1, None]

    # Finite-dimensional analogue: the boundary of the trivial module differs
    # from the flat generating operator by contraction with the modular form,
    # scaled by the same global sign.
    for name, a, character in (
        ("affine line algebra", aff1(), "eps1"),
        ("sl2", sl2(), None),
    ):
        out = operator_difference(
            a,
            lambda u, a=a: lie_algebra_boundary(a, u),
            TopConnection(a).operator(),
            lie_basis(a),
        )
        assert out["ok"], (name, out["failures"][:3])
        if character is None:
            assert out["alpha"].is_zero, name
        else:
            assert str(out["alpha"]) == "(-1) %s" % character, name


def test_criterion_12_anticommutator_tracks_the_modular_field():
    s = modular_relation_check(PoissonStructure(XY, {(0, 1): "y"}))["sign"]
    assert s == -1
    for label, pi in (
        ("constant", PoissonStructure(XY, {(0, 1): "1"})),
        ("linear", PoissonStructure(XY, {(0, 1): "y"})),
    ):
        t = pi.tangent()
        rng = random.Random("acceptance-12:" + label)
        probes = [random_elem(rng, t, A_SIDE, rng.randrange(3), 2) for _ in range(50)]
        out = anticommutator_defect_check(pi, probes, modular_sign=s)
        assert out["oracle_ok"], (label, out["oracle_failures"][:3])
        assert out["own_ok"], (label, out["own_failures"][:3])
        assert out["operator_of_bivector"] == out["modular_field"], label
        assert out["literal_ok"], (
            "for the %s bivector the anticommutator of the bivector bracket "
            "differential with the flat boundary is Lie derivative along the "
            "modular field with coefficient %+d; that coefficient is forced, "
            "because the defect equals bracketing with the operator image of "
            "the bivector and that image is the modular field itself (both "
            "read %s here); the recorded global sign is %+d, and the relation "
            "scaled by it fails on %d of %d probes"
            % (
                label,
                out["own_sign"],
                out["modular_field"],
                s,
                len(out["literal_failures"]),
                len(probes),
            )
        )


def test_criterion_13_capped_tables_agree_below_the_cap_window():
    plane = tangent_algebroid(XY)
    zero = plane.zero_elem(DUAL_SIDE, 1)
    dx = differential(plane, plane.scalar("x", DUAL_SIDE))
    out = homotopy_invariance_check(plane, zero, dx, max_weight=4)
    assert not out["inconclusive"], out.get("reason")
    assert out["window"] == 3
    assert {"k": 2, "w": 0, "first": 1, "second": 0} in out["mismatches"]
    assert out["ok"], (
        "the capped tables cannot agree inside the window: the shifted "
        "boundary has top-degree kernel spanned by the exponential of minus "
        "the potential, which has no polynomial representative, so the top "
        "corner reads 1 against 0 and the tables disagree in %d slots in "
        "total; equality below the cap window holds only when the twist by "
        "the potential stays inside the polynomial model"
        % len(out["mismatches"])
    )


def test_criterion_14_triangular_duals_reproduce_cotangent_structures():
    plane = tangent_algebroid(XY)
    tri = triangular_dual_algebroid(plane, wedge(plane.frame(0), plane.frame(1)))
    assert tri == cotangent_algebroid(PoissonStructure(XY, {(0, 1): "1"}))

    s = sl2()
    r = wedge(s.frame(1), s.frame(0))
    assert schouten(s, r, r).is_zero
    tri = triangular_dual_algebroid(s, r)
    report = tri.validate()
    assert report.ok, report.lines()

    bad = wedge(s.frame(1), s.frame(2))
    assert not schouten(s, bad, bad).is_zero
    with pytest.raises(ValueError):
        triangular_dual_algebroid(s, bad)


PLANE_TEXT = """\
[algebroid]
kind = "tangent"
base_vars = ["x", "y"]

[poisson]
terms = [{"i": 1, "j": 2, "c": "y"}]

[connection]
alpha = ["0", "x"]
"""

SL2_TEXT = """\
[algebroid]
kind = "lie_algebra"
rank = 3
structure = [{"i": 1, "j": 2, "k": 2, "c": "2"}, {"i": 1, "j": 3, "k": 3, "c": "-2"}, {"i": 2, "j": 3, "k": 1, "c": "1"}]
"""

# the child imports the package this process imports, whatever its
# environment's path says
SRC = str(Path(albv.__file__).resolve().parents[1])
RUNNER = "import sys\nsys.path.insert(0, %r)\nfrom albv.cli import main\n" % SRC
RUNNER += "sys.exit(main(sys.argv[1:]))"


def test_criterion_15_verify_reports_are_byte_identical_for_a_seed(tmp_path):
    # the plane's bivector {x,y} = y is not unimodular, so its unimodular
    # duality does not apply and is the one check reported as skipped
    files = {}
    for name, text, skips in (
        ("plane.albv", PLANE_TEXT, ["unimodular-duality"]),
        ("sl2.albv", SL2_TEXT, []),
    ):
        path = tmp_path / name
        path.write_text(text)
        files[str(path)] = skips
    for path, skips in files.items():
        for extra in ([], ["--json"]):
            args = ["verify", path, "--seed", "11", "--trials", "6"] + extra
            runs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-c", RUNNER] + args, capture_output=True
                )
                assert proc.returncode == 0, proc.stderr.decode()
                runs.append(proc.stdout)
            assert runs[0] == runs[1], (path, extra)
            if extra:
                report = json.loads(runs[0])
                assert report["checks"]
                others = [c for c in report["checks"] if c["status"] != "pass"]
                assert [c["name"] for c in others] == skips
                assert all(c["status"] == "skip" for c in others)
            else:
                assert b"generating-property: PASS" in runs[0]
