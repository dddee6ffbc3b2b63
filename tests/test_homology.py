"""Boundary operators, weight-graded dimension tables, and the Poisson checks."""

import random
from fractions import Fraction
from math import comb

import pytest

from albv.algebroid import (
    PoissonStructure,
    cotangent_algebroid,
    lie_algebra,
    tangent_algebroid,
)
from albv.bv import TopConnection, generating_operator
from albv.calculus import differential, lichnerowicz
from albv.exterior import A_SIDE, DUAL_SIDE, GradedElem, star, wedge
from albv.homology import (
    anticommutator_defect_check,
    betti_table,
    boundary,
    boundary_betti,
    cohomology_betti,
    duality_check,
    homotopy_invariance_check,
    kb_betti,
    koszul_brylinski,
    lichnerowicz_betti,
    lie_algebra_boundary,
    modular_relation_check,
    modular_vector_field,
    monomial_basis_elems,
    star_conjugation_check,
    unimodular_duality_check,
)
from albv.poly import Poly
from albv.randgen import random_elem
from albv.rows import boundary_rows, differential_rows, kb_rows
from conftest import aff1, heisenberg, sl2

XY = ("x", "y")


def tuple_of(table, w=0):
    return tuple(table.entry(k, w) for k in range(table.rank + 1))


def test_boundary_frozen_values_on_the_plane():
    a = tangent_algebroid(XY)
    conn = TopConnection(a)
    x = a.poly("x")
    assert boundary(conn, x * a.frame(0)).scalar() == a.poly("1")
    assert boundary(conn, x * wedge(a.frame(0), a.frame(1))) == -a.frame(1)


def test_boundary_squares_to_zero():
    rng = random.Random(3)
    for a in (tangent_algebroid(XY), sl2()):
        conn = TopConnection(a)
        for degree in range(a.rank + 1):
            for _ in range(4):
                u = random_elem(rng, a, A_SIDE, degree)
                assert boundary(conn, boundary(conn, u)).is_zero


def test_lie_algebra_boundary_values():
    a = aff1()
    assert lie_algebra_boundary(a, wedge(a.frame(0), a.frame(1))) == -a.frame(1)
    assert lie_algebra_boundary(a, a.scalar(1)).is_zero

    s = sl2()
    assert lie_algebra_boundary(s, wedge(s.frame(0), s.frame(1))) == -2 * s.frame(1)
    assert lie_algebra_boundary(s, wedge(s.frame(1), s.frame(2))) == -s.frame(0)


def test_lie_algebra_boundary_needs_empty_base():
    a = tangent_algebroid(XY)
    with pytest.raises(ValueError, match="empty base"):
        lie_algebra_boundary(a, a.frame(0))


def test_chain_boundary_matches_operator_for_unimodular_algebra():
    # the trace form of sl2 vanishes, so the pairing adjoint and the
    # volume-based operator agree on the nose
    s = sl2()
    conn = TopConnection(s)
    for degree in range(s.rank + 1):
        for u in monomial_basis_elems((), s.rank, A_SIDE, degree, 0):
            lhs = lie_algebra_boundary(s, u)
            rhs = generating_operator(conn, u)
            assert (lhs - rhs).is_zero


def test_monomial_basis_count():
    elems = monomial_basis_elems(XY, 2, A_SIDE, 1, 2)
    assert len(elems) == 6
    assert all(e.degree == 1 for e in elems)
    # no monomial has negative weight, in one variable as in several
    assert monomial_basis_elems(("x",), 1, A_SIDE, 0, -1) == []
    assert monomial_basis_elems(XY, 2, A_SIDE, 0, -1) == []


def test_cohomology_tables_for_small_algebras():
    assert tuple_of(cohomology_betti(lie_algebra(3, {}))) == (1, 3, 3, 1)
    assert tuple_of(cohomology_betti(aff1())) == (1, 1, 0)
    assert tuple_of(cohomology_betti(sl2())) == (1, 0, 0, 1)
    assert tuple_of(cohomology_betti(heisenberg())) == (1, 2, 2, 1)


def test_cohomology_table_flags_for_empty_base():
    table = cohomology_betti(sl2())
    assert table.max_weight == 0
    assert table.homogeneous and not table.capped
    assert table.shift == 0


def test_boundary_tables_for_small_algebras():
    assert tuple_of(boundary_betti(TopConnection(aff1()))) == (0, 1, 1)
    assert tuple_of(boundary_betti(TopConnection(sl2()))) == (1, 0, 0, 1)
    assert tuple_of(boundary_betti(TopConnection(heisenberg()))) == (1, 2, 2, 1)


def test_polynomial_tangent_tables_are_poincare_trivial():
    # on the line d(f) = f' dx, so only the constants survive in degree 0 and
    # every x^n dx is exact; the boundary sends f e1 to -f', so only the
    # constant multiples of e1 survive and every polynomial is a boundary.
    # The plane is the same in each variable.
    for variables in (("x",), XY):
        a = tangent_algebroid(variables)
        coh = cohomology_betti(a, max_weight=4)
        assert coh.shift == -1 and coh.homogeneous
        hom = boundary_betti(TopConnection(a), max_weight=4)
        assert hom.shift == -1
        for k in range(a.rank + 1):
            for w in range(5):
                assert coh.entry(k, w) == (1 if (k, w) == (0, 0) else 0), variables
                assert hom.entry(k, w) == (1 if (k, w) == (a.rank, 0) else 0), variables


def test_each_weight_window_is_ranked_once(monkeypatch):
    import albv.homology

    calls = []
    rank = albv.homology.matrix_rank

    def counting_rank(rows, pivots=None):
        calls.append(len(rows))
        return rank(rows, pivots)

    monkeypatch.setattr(albv.homology, "matrix_rank", counting_rank)
    so3 = PoissonStructure(("x", "y", "z"), {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    t3 = TopConnection(tangent_algebroid(("x", "y", "z")))
    for make in (
        lambda: kb_betti(so3, max_weight=3),
        lambda: boundary_betti(t3, max_weight=3, force_capped=True),
    ):
        calls.clear()
        table = make()
        assert len(table.entries) == 16
        assert 0 < len(calls) <= len(table.entries)


def test_every_rank_input_of_a_table_matches_the_oracle(monkeypatch):
    """Every matrix that the so(3)* Koszul-Brylinski table and the capped
    boundary table of tangent 3-space hand to ``matrix_rank`` at weight 3
    ranks as the textbook Gauss-Jordan oracle does.  No zero image is handed
    over: every row has a nonzero entry."""
    import albv.homology

    from test_linalg import oracle_rank

    seen = []
    rank = albv.homology.matrix_rank

    def capture(rows, pivots=None):
        seen.append(rows)
        return rank(rows, pivots)

    monkeypatch.setattr(albv.homology, "matrix_rank", capture)
    so3 = PoissonStructure(("x", "y", "z"), {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    t3 = TopConnection(tangent_algebroid(("x", "y", "z")))
    kb_betti(so3, max_weight=3)
    boundary_betti(t3, max_weight=3, force_capped=True)
    assert len(seen) > 10
    for rows in seen:
        assert rows and all(any(row) for row in rows)
        assert rank(rows) == oracle_rank(rows), rows


def test_an_image_outside_the_expected_slice_is_refused():
    """A row function of k_step +1 on the plane whose image of y has an
    index tuple of degree 2, not 1, in a block whose other image, that of
    x, is zero."""

    def row(idx, expo):
        return {((0, 1), expo): 1} if (idx, expo) == ((), (0, 1)) else {}

    with pytest.raises(ValueError, match="^operator image leaves the expected slice$"):
        betti_table(XY, 2, row, 1, 1)


def test_a_zero_operator_hands_nothing_to_rank(monkeypatch):
    """Every block of the zero operator holds zero images only, so no rank
    is taken and every entry is the dimension of its slice."""
    import albv.homology

    monkeypatch.setattr(
        albv.homology, "matrix_rank", lambda rows: pytest.fail("rank asked")
    )
    table = betti_table(XY, 2, lambda idx, expo: {}, 1, 2)
    assert table.entries == {
        (k, w): comb(2, k) * (w + 1) for k in range(3) for w in range(3)
    }


def test_each_basis_monomial_builds_one_poly(monkeypatch):
    """18 monomials of degree 1 and weight 2 on 3-space cost 18 Polys."""
    built = []
    init = Poly.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", counting_init)
    elems = monomial_basis_elems(("x", "y", "z"), 3, DUAL_SIDE, 1, 2)
    monkeypatch.undo()
    assert len(elems) == 18
    assert len(built) == 18


def sparse(elem):
    """An operator image as a sparse row keyed by (index tuple, exponent tuple)."""
    return {
        (idx, expo): c
        for idx, poly in elem.components.items()
        for expo, c in poly.terms.items()
    }


def monomial_key(elem):
    ((idx, coeff),) = elem.components.items()
    (expo,) = coeff.terms
    return idx, expo


def assert_rows_match(row, op, variables, rank, side, top_w=3):
    """Every basis monomial up to weight ``top_w``: compiled row == operator."""
    seen = 0
    for k in range(rank + 1):
        for w in range(top_w + 1 if variables else 1):
            for elem in monomial_basis_elems(variables, rank, side, k, w):
                assert row(*monomial_key(elem)) == sparse(op(elem)), str(elem)
                seen += 1
    return seen


def test_compiled_rows_equal_the_operator_images():
    """The operator route is the oracle of the compiled table rows.

    Rows of d (and of d + alpha^), -star (d + alpha^) star_inv, the bracket
    with a bivector (the cotangent differential) and i_pi d - d i_pi are
    compared with ``differential``, ``boundary``, ``lichnerowicz`` and
    ``koszul_brylinski`` on every basis monomial of weight at most 3, and
    at most 4 for the so(3)* operators and the quadratic bracket.  The rows
    are extended from weights 0 and 1 by the first-order rule, so the
    oracle checks them at least three weights beyond.
    """
    xyz = ("x", "y", "z")
    t3 = tangent_algebroid(xyz)
    so3 = PoissonStructure(xyz, {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    cot = cotangent_algebroid(so3)
    plane = tangent_algebroid(XY)
    alpha = plane.poly("x") * plane.coframe(1)
    quadratic = PoissonStructure(XY, {(0, 1): "x^2 + y^2"})
    seen = 0
    for a in (t3, cot, sl2(), plane):
        top_w = 4 if a is cot else 3
        seen += assert_rows_match(
            differential_rows(a),
            lambda u: differential(a, u),
            a.variables,
            a.rank,
            DUAL_SIDE,
            top_w,
        )
        conn = TopConnection(a)
        seen += assert_rows_match(
            boundary_rows(conn),
            lambda u: boundary(conn, u),
            a.variables,
            a.rank,
            A_SIDE,
            top_w,
        )
    seen += assert_rows_match(
        differential_rows(plane, alpha),
        lambda u: differential(plane, u) + wedge(alpha, u),
        XY,
        2,
        DUAL_SIDE,
    )
    twisted = TopConnection(plane, alpha)
    seen += assert_rows_match(
        boundary_rows(twisted), lambda u: boundary(twisted, u), XY, 2, A_SIDE
    )
    for pi in (so3, PoissonStructure(XY, {(0, 1): "y"}), quadratic):
        m = pi.base_dim
        top_w = 4 if pi is so3 or pi is quadratic else 3
        seen += assert_rows_match(
            kb_rows(pi),
            lambda u: koszul_brylinski(pi, u),
            pi.variables,
            m,
            DUAL_SIDE,
            top_w,
        )
        seen += assert_rows_match(
            differential_rows(pi.cotangent()),
            lambda u: lichnerowicz(pi, u),
            pi.variables,
            m,
            A_SIDE,
            top_w,
        )
    # 3-space: 4 so(3)* operators at 280 monomials each (8 index tuples
    # times 35 exponents), 2 tangent ones at 160 (8 times 20); the plane: 2
    # quadratic ones at 60 (4 times 15), 6 others at 40 (4 times 10); 2 on
    # sl2, 8 each
    assert seen == 4 * 280 + 2 * 160 + 2 * 60 + 6 * 40 + 2 * 8


def test_rows_are_kept_on_the_structure_that_fixes_them():
    so3 = PoissonStructure(("x", "y", "z"), {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    cot = so3.cotangent()
    conn = TopConnection(cot)
    plane = tangent_algebroid(XY)
    alpha = plane.poly("x") * plane.coframe(1)
    assert kb_rows(so3) is kb_rows(so3)
    assert differential_rows(cot) is differential_rows(cot)
    assert differential_rows(cot, cot.zero_elem(DUAL_SIDE, 1)) is differential_rows(cot)
    assert boundary_rows(conn) is boundary_rows(conn)
    assert boundary_rows(TopConnection(cot)) is not boundary_rows(conn)
    # a twist is not fixed by the algebroid: its rows are kept on its connection
    assert differential_rows(plane, alpha) is not differential_rows(plane, alpha)
    twisted = TopConnection(plane, alpha)
    assert boundary_rows(twisted) is boundary_rows(twisted)


def test_kb_table_builds_no_element_per_basis_monomial(monkeypatch):
    """so(3)* has 160 basis monomials up to weight 3 and 448 up to weight 5;
    the Poly and GradedElem objects a table builds do not depend on that.
    Each weight gets its own bivector, built before counting, so each count
    holds everything its table builds, the kept cotangent algebroid whose
    split the table reads included."""
    bivectors = {
        w: PoissonStructure(("x", "y", "z"), {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
        for w in (3, 5)
    }
    built = []
    for cls in (Poly, GradedElem):
        init = cls.__init__

        def counting_init(self, *args, _init=init, **kwargs):
            built.append(type(self))
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    counts = []
    for w, so3 in bivectors.items():
        built.clear()
        table = kb_betti(so3, max_weight=w)
        counts.append(len(built))
        assert table.entry(0, 2) == 1 and table.entry(3, 2) == 1
    assert counts[0] == counts[1]


def test_tables_sort_no_index_tuple_per_basis_monomial(monkeypatch):
    """The Leibniz rule sorts index tuples only at weights 0 and 1.

    The rows of every other weight follow from those by the first-order
    rule, so the ``sort_with_sign`` calls of a table do not depend on its
    top weight: so(3)* has 160 basis monomials up to weight 3 and 448 up to
    weight 5.  Rows are kept on the structure that fixes them, so each
    weight gets fresh structures (the tangent algebroid, shared per variable
    tuple, included), and a second table on the same structures sorts
    nothing.
    """
    import albv.algebroid
    import albv.rows

    xyz = ("x", "y", "z")

    def so3():
        albv.algebroid._tangent.cache_clear()
        return PoissonStructure(xyz, {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})

    def kb_table():
        pi = so3()
        return lambda w: kb_betti(pi, w)

    def cohomology_table():
        albv.algebroid._tangent.cache_clear()
        t3 = tangent_algebroid(xyz)
        return lambda w: cohomology_betti(t3, w)

    def boundary_table():
        cot = TopConnection(cotangent_algebroid(so3()))
        return lambda w: boundary_betti(cot, w)

    sort = albv.rows.sort_with_sign
    calls = []

    def counting_sort(indices):
        calls.append(indices)
        return sort(indices)

    monkeypatch.setattr(albv.rows, "sort_with_sign", counting_sort)
    counts = {}
    for w in (3, 5):
        for pos, fresh in enumerate((kb_table, cohomology_table, boundary_table)):
            table = fresh()
            calls.clear()
            table(w)
            counts.setdefault(pos, []).append(len(calls))
            calls.clear()
            table(w)
            assert calls == []
    for first, second in counts.values():
        assert first == second > 0


def shared_structures():
    """The structures the tables of ``SHARED_TABLES`` are computed on."""
    xyz = ("x", "y", "z")
    so3 = PoissonStructure(xyz, {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    t3 = tangent_algebroid(xyz)
    plane = tangent_algebroid(XY)
    return {
        "so3": so3,
        "t3": t3,
        "cot": TopConnection(cotangent_algebroid(so3)),
        "t3 trivial": TopConnection(t3),
        "plane": TopConnection(plane),
        "mixed plane": TopConnection(plane, plane.coframe(0)),
    }


# the six tables the benchmark times, then the capped boundary table of the
# plane and the capped table of d + eps1^ on the same plane algebroid
SHARED_TABLES = {
    "kb so(3)* w=5": lambda s: kb_betti(s["so3"], 5),
    "lichnerowicz so(3)* w=3": lambda s: lichnerowicz_betti(s["so3"], 3),
    "cohomology tangent 3-space w=6": lambda s: cohomology_betti(s["t3"], 6),
    "boundary cotangent so(3)* w=5": lambda s: boundary_betti(s["cot"], 5),
    "capped boundary tangent 3-space w=4": lambda s: boundary_betti(
        s["t3 trivial"], 4, force_capped=True
    ),
    "capped boundary cotangent so(3)* w=4": lambda s: boundary_betti(
        s["cot"], 4, force_capped=True
    ),
    "capped boundary plane w=3": lambda s: boundary_betti(
        s["plane"], 3, force_capped=True
    ),
    "mixed plane w=3": lambda s: boundary_betti(s["mixed plane"], 3),
}


def fresh_bench_tables():
    """Each table of ``SHARED_TABLES`` by name, computed on structures built
    for it alone and with the shape caches cleared."""
    import albv.algebroid
    import albv.homology

    def fresh():
        for cached in (
            albv.algebroid._tangent,
            albv.homology._basis,
            albv.homology._index_map,
        ):
            cached.cache_clear()
        return shared_structures()

    return {name: table(fresh()) for name, table in SHARED_TABLES.items()}


def test_tables_on_shared_structures_equal_tables_on_fresh_ones():
    """Rows are kept on the structures that fix them and bases and index
    maps per shape, so no table may read another's: on shared structures,
    in two interleaved orders, every table equals its fresh computation.
    The orders put the twisted (mixed-shift) plane table right after the
    untwisted boundary table of the same algebroid, and the Koszul-Brylinski
    and Lichnerowicz tables of one bivector next to each other."""
    expected = fresh_bench_tables()
    shared = shared_structures()
    names = list(SHARED_TABLES)
    order = names + names[::-1] + names[::2] + names[1::2]
    for name in order:
        got = SHARED_TABLES[name](shared)
        assert got == expected[name], name
    assert expected["mixed plane w=3"].capped
    assert expected["mixed plane w=3"] != expected["capped boundary plane w=3"]


def test_weight_raising_operator_is_refused():
    """x^2 d on the line sends x^b to b x^(b+1) dx and every 1-form to 0."""

    def row(idx, expo):
        (b,) = expo
        return {((0,), (b + 1,)): b} if idx == () and b else {}

    with pytest.raises(ValueError, match="raises weight by 1"):
        betti_table(("x",), 1, row, 1, 2)


def test_so3_tables_are_invariants_times_lie_algebra_homology():
    """so(3)*: {x,y} = z, {y,z} = x, {z,x} = y, on weights 0 to 6.

    The Koszul-Brylinski operator of a linear Poisson structure on g*
    preserves weight (contraction by the bivector raises the coefficient
    degree by one and d lowers it by one), and on the weight-w slice it is
    the Chevalley-Eilenberg boundary of g with coefficients in S^w(g), the
    polynomials of degree w on g*.  Each S^w(g) is a finite-dimensional
    g-module; so(3) is semisimple, so by the Whitehead lemmas (the Casimir
    element acts on homology by zero and on a nontrivial irreducible module
    invertibly) only the trivial summand contributes:
    H_k = H_k(g) (x) S^w(g)^g.  For so(3), H(g) is one-dimensional in
    degrees 0 and 3 and zero in degrees 1 and 2.  The invariant polynomials
    are the polynomials in the Casimir x^2 + y^2 + z^2 (the rotation
    invariants of 3-space), so S^w(g)^g has dimension 1 for even w and 0 for
    odd w.  Hence rows k = 0 and k = 3 read 1, 0, 1, 0, 1, 0, 1 and rows 1
    and 2 vanish.  so(3) is unimodular, its modular field is zero, and the
    flat-volume boundary of the cotangent algebroid has the same table,
    with k read as the multivector degree.
    """
    so3 = PoissonStructure(("x", "y", "z"), {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    expected = {
        0: [1, 0, 1, 0, 1, 0, 1],
        1: [0] * 7,
        2: [0] * 7,
        3: [1, 0, 1, 0, 1, 0, 1],
    }
    for table in (
        kb_betti(so3, max_weight=6),
        boundary_betti(TopConnection(cotangent_algebroid(so3)), max_weight=6),
    ):
        assert table.homogeneous and table.shift == 0
        assert {k: [table.entry(k, w) for w in range(7)] for k in range(4)} == expected


def sl3_dual():
    """The linear Poisson structure of sl3 on its dual, {u, v} = [u, v].

    Coordinates are the basis h1 = E11 - E22, h2 = E22 - E33, the raising
    E12, E23, E13 and the lowering E21, E32, E31; each bracket is the matrix
    commutator written back in that basis.
    """
    names = ("h1", "h2", "e1", "e2", "e3", "f1", "f2", "f3")
    off = [(0, 1), (1, 2), (0, 2), (1, 0), (2, 1), (2, 0)]

    def unit(i, j, c=1):
        return {(i, j): c}

    def plus(p, q):
        out = dict(p)
        for key, c in q.items():
            out[key] = out.get(key, 0) + c
        return out

    def commutator(p, q):
        out = {}
        for (i, j), c in p.items():
            for (k, l), d in q.items():
                if j == k:
                    out = plus(out, unit(i, l, c * d))
                if l == i:
                    out = plus(out, unit(k, j, -c * d))
        return out

    def coords(mat):
        return [mat.get((0, 0), 0), -mat.get((2, 2), 0)] + [mat.get(ij, 0) for ij in off]

    basis = [plus(unit(0, 0), unit(1, 1, -1)), plus(unit(1, 1), unit(2, 2, -1))]
    basis += [unit(i, j) for i, j in off]
    comps = {}
    for p in range(8):
        for q in range(p + 1, 8):
            image = coords(commutator(basis[p], basis[q]))
            comps[(p, q)] = sum(
                (c * Poly.variable(name, names) for c, name in zip(image, names) if c),
                Poly.zero(names),
            )
    return PoissonStructure(names, comps)


def test_sl3_tables_are_lie_algebra_cohomology_times_invariants():
    """sl3*, rank 8, at weights 0 and 1.

    As for so(3)* below, both the Lichnerowicz differential and the
    Koszul-Brylinski operator of a linear structure on g* preserve weight,
    and on weight w they are the Chevalley-Eilenberg cochain and chain
    complexes of g with coefficients in S^w(g), the polynomials of degree w
    on g*.  For g = sl3 semisimple, Hochschild-Serre (with Whitehead's
    lemmas: a nontrivial irreducible module has no cohomology) leaves only
    the invariant part: H^k = H^k(g) (x) S^w(g)^g, and H_k likewise.  The
    cohomology ring of sl3 is an exterior algebra on primitive classes of
    degrees 3 and 5, with Poincare polynomial (1 + t^3)(1 + t^5) =
    1 + t^3 + t^5 + t^8, so H(sl3) reads 1, 0, 0, 1, 0, 1, 0, 0, 1 in
    degrees 0 to 8; homology has the same dimensions.  The invariant
    polynomials of sl3 are generated by the Casimirs tr X^2 and tr X^3, of
    degrees 2 and 3, so S^0(g)^g is the constants and S^1(g)^g = 0.  Hence
    both tables read 1, 0, 0, 1, 0, 1, 0, 0, 1 at w = 0 and vanish at
    w = 1.
    """
    pi = sl3_dual()
    for table in (lichnerowicz_betti(pi, 1), kb_betti(pi, 1)):
        assert table.homogeneous and table.shift == 0
        assert tuple_of(table, 0) == (1, 0, 0, 1, 0, 1, 0, 0, 1)
        assert tuple_of(table, 1) == (0,) * 9


def test_duality_reverses_the_degree():
    for a in (aff1(), sl2(), heisenberg(), tangent_algebroid(XY)):
        result = duality_check(a, max_weight=3)
        assert result["ok"], result["mismatches"]


def test_capped_table_of_the_plane():
    table = boundary_betti(TopConnection(tangent_algebroid(XY)), 3, force_capped=True)
    assert table.capped and not table.homogeneous and table.shift is None
    for w in range(4):
        assert table.entry(2, w) == 1
        assert table.entry(1, w) == w + 2
        assert table.entry(0, w) == w + 1


def test_star_conjugation_of_the_boundary():
    for a in (sl2(), tangent_algebroid(XY)):
        result = star_conjugation_check(a, a.volume(1), max_weight=2)
        assert result["ok"], result["failures"]
        assert result["count"] > 0


def test_star_conjugation_is_a_second_route(monkeypatch):
    # a sign flip of star in both bv and homology cancels in any check that
    # restates the boundary through star; the frame-wise route uses no star,
    # so it sees the flip
    import albv.bv
    import albv.homology

    def flipped(elem, vol):
        return -star(elem, vol)

    monkeypatch.setattr(albv.bv, "star", flipped)
    monkeypatch.setattr(albv.homology, "star", flipped)
    for a in (sl2(), tangent_algebroid(XY)):
        result = star_conjugation_check(a, a.volume(1), max_weight=2)
        assert not result["ok"]
        assert result["failures"]


def test_koszul_brylinski_small_values():
    pi = PoissonStructure(XY, {(0, 1): "1"})
    t = pi.tangent()
    omega = t.poly("x") * t.coframe(1)
    image = koszul_brylinski(pi, omega)
    assert image.side == DUAL_SIDE and image.degree == 0
    assert image.scalar() == t.poly("1")
    assert koszul_brylinski(pi, t.poly("x") * t.coframe(0)).is_zero


def test_koszul_brylinski_squares_to_zero():
    pi = PoissonStructure(XY, {(0, 1): "y"})
    t = pi.tangent()
    rng = random.Random(13)
    for degree in range(1, 3):
        for _ in range(5):
            omega = random_elem(rng, t, DUAL_SIDE, degree)
            assert koszul_brylinski(pi, koszul_brylinski(pi, omega)).is_zero


def test_modular_vector_fields():
    linear = PoissonStructure(XY, {(0, 1): "y"})
    nu = modular_vector_field(linear)
    assert nu == linear.tangent().frame(0)
    assert lichnerowicz(linear, nu).is_zero
    flat = PoissonStructure(XY, {(0, 1): "1"})
    assert modular_vector_field(flat).is_zero


def test_modular_relation_sign_is_uniform():
    linear = PoissonStructure(XY, {(0, 1): "y"})
    result = modular_relation_check(linear)
    assert result["ok"], result["failures"]
    assert result["sign"] == -1
    flat = PoissonStructure(XY, {(0, 1): "1"})
    result = modular_relation_check(flat)
    assert result["ok"]
    assert result["sign"] is None


def test_modular_relation_names_each_failing_probe(monkeypatch):
    """For {x,y}=y the modular field is e1 and the recorded sign is -1: the
    true operator is the flat-volume boundary minus the contraction by e1.
    Probe 1 (eps1) fixes that sign.  The patched operator then adds 1 on
    eps2, whose contraction by e1 vanishes; doubles the contraction on
    x eps1; and flips its sign on y eps1."""
    import albv.homology as homology

    pi = PoissonStructure(XY, {(0, 1): "y"})
    t = pi.tangent()
    eps1, eps2 = t.coframe(0), t.coframe(1)
    probes = [eps1, eps2, t.poly("x") * eps1, t.poly("y") * eps1]
    extra = [
        (eps2, t.scalar("1", DUAL_SIDE)),
        (probes[2], -t.scalar("x", DUAL_SIDE)),
        (probes[3], t.scalar("2*y", DUAL_SIDE)),
    ]
    real = homology.koszul_brylinski

    def patched(pi, omega):
        out = real(pi, omega)
        for probe, shift in extra:
            if omega == probe:
                out = out + shift
        return out

    monkeypatch.setattr(homology, "koszul_brylinski", patched)
    result = modular_relation_check(pi, probes)
    assert result["sign"] == -1
    assert [(f["probe"], f["reason"]) for f in result["failures"]] == [
        (2, "nonzero where the target vanishes"),
        (3, "not proportional to the target"),
        (4, "sign flips across probes"),
    ]
    assert result["failures"][0]["residual"] == "(1)"
    assert result["closed_failures"] == []


def test_symplectic_plane_homology_tables():
    pi = PoissonStructure(XY, {(0, 1): "1"})
    hom = kb_betti(pi, max_weight=4)
    coh = lichnerowicz_betti(pi, max_weight=4)
    for k in range(3):
        for w in range(5):
            assert hom.entry(k, w) == (1 if (k, w) == (2, 0) else 0)
            assert coh.entry(k, w) == (1 if (k, w) == (0, 0) else 0)
    result = unimodular_duality_check(pi, max_weight=4)
    assert result["ok"] and not result["skipped"]


def test_unimodular_duality_skips_when_modular_field_survives():
    pi = PoissonStructure(XY, {(0, 1): "y"})
    result = unimodular_duality_check(pi)
    assert result["skipped"]
    assert result["modular_field"] == "(1) e1"


@pytest.mark.parametrize("c, skipped", [("1", False), ("y", True)])
def test_unimodular_duality_returns_both_tables_either_way(c, skipped):
    """A skipped comparison still returns the two tables it would compare."""
    pi = PoissonStructure(XY, {(0, 1): c})
    result = unimodular_duality_check(pi, max_weight=2)
    assert result["skipped"] is skipped
    assert result["homology"].entries == kb_betti(pi, 2).entries
    assert result["cohomology"].entries == lichnerowicz_betti(pi, 2).entries


def test_anticommutator_defect_is_the_modular_derivative():
    pi = PoissonStructure(XY, {(0, 1): "y"})
    probes = []
    for k in range(3):
        for w in range(3):
            probes.extend(monomial_basis_elems(XY, 2, A_SIDE, k, w))
    result = anticommutator_defect_check(pi, probes, modular_sign=-1)
    assert result["oracle_ok"], result["oracle_failures"]
    assert result["own_sign"] == 1
    assert result["own_ok"], result["own_failures"]
    assert result["operator_of_bivector"] == "(1) e1"
    assert result["operator_of_bivector"] == result["modular_field"]
    # with the recorded global sign the literal comparison cannot hold
    assert not result["literal_ok"]
    assert result["literal_failures"]


def test_anticommutator_defect_vanishes_for_constant_bivector():
    pi = PoissonStructure(XY, {(0, 1): "1"})
    probes = []
    for k in range(3):
        probes.extend(monomial_basis_elems(XY, 2, A_SIDE, k, 1))
    result = anticommutator_defect_check(pi, probes, modular_sign=-1)
    assert result["oracle_ok"] and result["own_ok"] and result["literal_ok"]
    assert result["own_sign"] is None


def test_homotopy_check_mechanics():
    a = tangent_algebroid(("x",))
    zero = a.zero_elem(DUAL_SIDE, 1)

    same = homotopy_invariance_check(a, zero, zero, max_weight=3)
    assert same["ok"] and not same["inconclusive"]

    b = tangent_algebroid(XY)
    not_flat = homotopy_invariance_check(
        b, b.zero_elem(DUAL_SIDE, 1), b.poly("x") * b.coframe(1)
    )
    assert not_flat["inconclusive"]
    assert "not flat" in not_flat["reason"]

    steep = differential(a, a.scalar("x^5", DUAL_SIDE))
    small_cap = homotopy_invariance_check(a, zero, steep, max_weight=3)
    assert small_cap["inconclusive"]
    assert "cap too small" in small_cap["reason"]


def test_homotopy_check_detects_the_twisted_line_discrepancy():
    # d(x) is flat, but the twisted kernel has no polynomial members, so the
    # capped tables genuinely disagree with the untwisted ones
    a = tangent_algebroid(("x",))
    zero = a.zero_elem(DUAL_SIDE, 1)
    alpha = differential(a, a.scalar("x", DUAL_SIDE))
    result = homotopy_invariance_check(a, zero, alpha, max_weight=4)
    assert not result["inconclusive"]
    assert not result["ok"]
    assert result["first"].entry(1, 0) == 1
    assert result["second"].entry(1, 0) == 0
    assert {"k": 1, "w": 0, "first": 1, "second": 0} in result["mismatches"]


def test_betti_table_serialization():
    table = cohomology_betti(sl2())
    text = table.to_text()
    assert "k=0" in text and "w=0" in text
    data = table.to_json()
    assert len(data["records"]) == 4
    assert {"k": 0, "w": 0, "dim": 1} in data["records"]


def test_betti_table_refuses_an_operator_that_does_not_square_to_zero():
    # sl2 with an extra e1 in [e1, e2]: its differential has a nonzero
    # square, and the first basis monomial it does not kill is eps3
    bad = lie_algebra(3, {(0, 1): {0: 1, 1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    with pytest.raises(ValueError) as exc:
        cohomology_betti(bad, max_weight=0)
    assert str(exc.value) == (
        "operator does not square to zero: its square sends 1 [3] to -2 [1,2,3]"
    )


# {x,y} = z, {y,z} = x, {x,z} = x on 3-space: its self-bracket is 2z dx^dy^dz
NON_POISSON_TERMS = {(0, 1): "z", (1, 2): "x", (0, 2): "x"}


def test_tables_of_a_nonzero_square_are_refused_with_a_witness():
    """A table whose operator is not a differential is refused before any
    rank, with the first basis monomial, in table order, whose image's image
    is nonzero, and that image; no entry need be negative for it.  The
    Koszul-Brylinski table of the bivector above read 1, 1, 0, 0 at every
    weight and its Lichnerowicz table printed at weight 0; the cohomology
    of [e1,e2] = e1, [e2,e3] = e3, [e1,e3] = e1 (Jacobiator e1) read 1, 1,
    0, 0.  The square of the bivector's operators is first seen at weight 0
    when the table ranks weight 0 alone, and on z at weight 1 otherwise.
    d + eps3^ on the tangent line times aff1, whose d eps3 = -eps2 ^ eps3 is
    not zero, has mixed shifts and is refused the same way."""
    from albv.algebroid import custom_algebroid

    pi = PoissonStructure(("x", "y", "z"), NON_POISSON_TERMS, check=False)
    jacobi = lie_algebra(3, {(0, 1): {0: 1}, (1, 2): {2: 1}, (0, 2): {0: 1}})
    line_aff1 = custom_algebroid(("x",), 3, [[1], [0], [0]], {(1, 2): {2: 1}})
    twisted = differential_rows(line_aff1, line_aff1.coframe(2))
    cases = [
        (lambda: kb_betti(pi, 0), "1 [1,2,3] to -1 [3]"),
        (lambda: lichnerowicz_betti(pi, 0), "1 [3] to -1 [1,2,3]"),
        (lambda: cohomology_betti(jacobi, 0), "1 [1] to -1 [1,2,3]"),
        (lambda: boundary_betti(TopConnection(jacobi), 0), "1 [2,3] to -1 []"),
    ]
    for w in range(1, 4):
        cases += [
            (lambda w=w: kb_betti(pi, w), "z [1,2] to -z []"),
            (lambda w=w: lichnerowicz_betti(pi, w), "z [] to z [1,2]"),
            (lambda w=w: betti_table(("x",), 3, twisted, 1, w), "1 [] to -1 [2,3]"),
        ]
    for make, witness in cases:
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == "operator does not square to zero: its square sends " + witness


# -- rank blocks of capped tables -----------------------------------------


def capped_boundaries():
    """(name, connection, one shift?) of the capped tables pinned below: three
    one-shift operators capped on request, and d + eps1^ on the plane, whose
    weight shifts are -1 (from d) and 0 (from the constant form)."""
    so3 = PoissonStructure(("x", "y", "z"), {(0, 1): "z", (1, 2): "x", (0, 2): "-y"})
    plane = tangent_algebroid(XY)
    return [
        ("cotangent so(3)*", TopConnection(cotangent_algebroid(so3)), True),
        ("tangent 3-space", TopConnection(tangent_algebroid(("x", "y", "z"))), True),
        ("sl2", TopConnection(sl2()), True),
        ("mixed plane", TopConnection(plane, plane.coframe(0)), False),
    ]


def whole_window_betti(variables, rank, row, k_step, max_weight):
    """Capped Betti numbers with every window ranked as one matrix, the way
    tables were ranked before blocks: dense rows of all the basis monomials
    of weight at most w, handed to ``linalg.rank``."""
    from itertools import combinations, product

    from albv.linalg import rank as dense_rank

    def window(k, w):
        if not 0 <= k <= rank:
            return []
        return [
            (idx, expo)
            for idx in combinations(range(rank), k)
            for expo in product(range(w + 1), repeat=len(variables))
            if sum(expo) <= w
        ]

    def rank_out(k, w):
        dst = {mono: pos for pos, mono in enumerate(window(k + k_step, w))}
        rows = []
        for idx, expo in window(k, w):
            dense = [0] * len(dst)
            for key, c in row(idx, expo).items():
                dense[dst[key]] = c
            rows.append(dense)
        return dense_rank(rows) if rows and dst else 0

    return {
        (k, w): len(window(k, w)) - rank_out(k, w) - rank_out(k - k_step, w)
        for k in range(rank + 1)
        for w in range(max_weight + 1)
    }


def test_capped_tables_equal_whole_window_ranks():
    for name, conn, _ in capped_boundaries():
        a = conn.algebroid
        table = boundary_betti(conn, 5, force_capped=True)
        assert table.capped
        expected = whole_window_betti(
            a.variables, a.rank, boundary_rows(conn), -1, table.max_weight
        )
        assert table.entries == expected, name


def test_one_shift_capped_tables_from_their_homogeneous_tables():
    """Capping a one-shift table adds up its slices, less what the cap cuts.

    For shift s and exterior step k_step, write d(k, v) for the number of
    basis monomials of slice (k, v), r(k, v) for the rank out of it, and
    H(k, v) = d(k, v) - r(k, v) - r(k - k_step, v - s) for the homogeneous
    entry.  The subcomplex of weight at most w keeps every slice v <= w and
    every map between two of them, so its entry is
    C(k, w) = sum_{v <= w} (d(k, v) - r(k, v) - r(k - k_step, v)).  The
    difference from the prefix sum of H telescopes:
    C(k, w) - sum_{v <= w} H(k, v) = sum_{w < u <= w - s} r(k - k_step, u),
    the ranks into the top -s weights from the slices above the cap; the
    terms u < -s vanish, as their targets have negative weight.  With s = 0
    (the cotangent so(3)* boundary, and sl2, whose base is empty) the capped
    table is the prefix sum of the homogeneous one.  The boundary of tangent
    3-space has s = -1 and k_step = -1, so C(k, w) exceeds the prefix sum by
    r(k + 1, w + 1), and the homogeneous table gives the ranks from the top
    degree down: r(k, v) = d(k, v) - H(k, v) - r(k + 1, v + 1), and
    r(4, v) = 0.
    """
    cot, tan, lie, _ = capped_boundaries()
    for name, conn, _ in (cot, lie):
        capped = boundary_betti(conn, 5, force_capped=True)
        flat = boundary_betti(conn, 5)
        assert flat.shift == 0, name
        for k in range(flat.rank + 1):
            for w in range(capped.max_weight + 1):
                prefix = sum(flat.entry(k, v) for v in range(w + 1))
                assert capped.entry(k, w) == prefix, (name, k, w)

    conn = tan[1]
    capped = boundary_betti(conn, 5, force_capped=True)
    flat = boundary_betti(conn, 9)
    assert flat.shift == -1

    def r(k, v):
        if k > 3:
            return 0
        d = comb(3, k) * comb(v + 2, 2)
        return d - flat.entry(k, v) - r(k + 1, v + 1)

    for k in range(4):
        for w in range(6):
            prefix = sum(flat.entry(k, v) for v in range(w + 1))
            assert capped.entry(k, w) == prefix + r(k + 1, w + 1), (k, w)


def test_capped_tables_at_weights_0_and_1_equal_whole_window_ranks():
    """A capped table of one shift s is read off the homogeneous table at
    ``max_weight + s``.  At the edges of that reading: at weight 0 with
    shift -1 (tangent 3-space) the homogeneous weight is -1, its table is
    empty, no slice maps anywhere and the capped table counts the basis; at
    weight 1 the homogeneous table has weight 0 alone.  Every fixture, the
    mixed plane too, equals whole-window ranks at weights 0 and 1."""
    for name, conn, _ in capped_boundaries():
        a = conn.algebroid
        for w in (0, 1):
            table = boundary_betti(conn, w, force_capped=True)
            expected = whole_window_betti(
                a.variables, a.rank, boundary_rows(conn), -1, table.max_weight
            )
            assert table.capped and table.entries == expected, (name, w)
    t3 = capped_boundaries()[1][1]
    table = boundary_betti(t3, 0, force_capped=True)
    assert table.entries == {(k, 0): comb(3, k) for k in range(4)}


@pytest.mark.parametrize(
    "name",
    [
        "tangent 1-space",
        "tangent 2-space",
        "tangent 3-space",
        "tangent 4-space",
        "so(3)* x {u,v}=v",
        "x d/dx x aff1",
    ],
)
def test_capped_tables_of_products_equal_whole_window_ranks(name):
    """A capped table of a product comes from the homogeneous table, which
    the split convolves from the factors (tangent n-space is n lines; the
    cotangent algebroid of so(3)* x {u,v}=v and x d/dx x aff1 are two
    factors of shift 0).  Each equals whole-window ranks at weights up to 3."""
    from albv.rows import boundary_split

    if name.startswith("tangent"):
        a = tangent_algebroid(XYZUV[: int(name.split()[1][0])])
    elif name == "so(3)* x {u,v}=v":
        a = product_structures()[name].cotangent()
    else:
        a = product_structures()[name]
    conn = TopConnection(a)
    assert len(boundary_split(conn)) > 1 or name == "tangent 1-space"
    for w in range(4):
        table = boundary_betti(conn, w, force_capped=True)
        expected = whole_window_betti(a.variables, a.rank, boundary_rows(conn), -1, w)
        assert table.capped and table.entries == expected, (name, w)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mixed_shift_tables_equal_whole_window_ranks(n):
    """On tangent n-space the form alpha = dx_j is closed and constant, so
    d + alpha^ and the boundary of the connection alpha are differentials
    of the shifts -1 (from d) and 0 (from the form).  Their capped tables
    rank each degree's windows in filtration order, cleared, into columns
    from the highest weight down; each equals the whole-window oracle at
    every cap w <= 6, for every j, for the boundary and for the twisted
    cohomology rows."""
    a = tangent_algebroid(XYZUV[:n])
    for j in range(n):
        alpha = a.coframe(j)
        conn = TopConnection(a, alpha)
        cases = [
            (boundary_rows(conn), -1, lambda w: boundary_betti(conn, w)),
            (
                differential_rows(a, alpha),
                1,
                lambda w: betti_table(a.variables, n, differential_rows(a, alpha), 1, w),
            ),
        ]
        for rows, k_step, make in cases:
            oracle = whole_window_betti(a.variables, n, rows, k_step, 6)
            for w in range(7):
                table = make(w)
                assert table.capped and table.shift is None, (n, j, k_step, w)
                expected = {key: b for key, b in oracle.items() if key[1] <= w}
                assert table.entries == expected, (n, j, k_step, w)


def test_a_mixed_shift_table_ranks_less_than_one_whole_window_per_degree(monkeypatch):
    """The boundary of alpha = dx on tangent 3-space at w=8: the windows at
    weight 8 of the three maps hold 165 x 495 + 495 x 495 + 495 x 165 =
    408,375 dense cells.  Ranking every window whole handed 760,254 cells
    to ``matrix_rank``; one elimination per degree, fed weight by weight,
    hands fewer than one whole window per degree.  Without clearing it
    would hand all 1,056 nonzero images; the rows at the incoming pivot
    columns are left out."""
    seen = spy_on_ranks(monkeypatch)
    t3 = tangent_algebroid(("x", "y", "z"))
    table = boundary_betti(TopConnection(t3, t3.coframe(0)), 8)
    assert table.capped
    assert len(seen) == 3 * 9
    assert sum(rows * cols for rows, cols in seen) < 408375
    assert sum(rows for rows, _ in seen) < 1056


# one prime per (degree, weight) of a basis monomial, at 7 * degree + weight;
# the table operators have small coefficients
TAGS = [p for p in range(10007, 10400) if all(p % q for q in range(2, 102))][:28]


def test_one_shift_blocks_are_single_weight_slices(monkeypatch):
    """Each operator is conjugated by the diagonal map that scales a basis
    monomial by the prime of its degree and weight, which changes no rank
    and keeps the square zero: the image of a monomial of prime t has every
    nonzero entry over the denominator t, which names its source weight.
    The rows of every ``matrix_rank`` call of a capped table then come from
    one weight.  The mixed-shift table hands each degree's rows over weight
    by weight, in weight order, into one elimination over the columns of
    every weight: 2 x 21 of degree 1, then 21 of degree 0."""
    import albv.homology

    spans = []
    rank = albv.homology.matrix_rank

    def tag_rank(rows, pivots=None):
        weights = set()
        for row in rows:
            nonzero = [Fraction(x).denominator for x in row if x]
            if nonzero:
                (tag,) = [t for t in TAGS if all(d % t == 0 for d in nonzero)]
                weights.add(TAGS.index(tag) % 7)
        spans.append((weights, len(rows[0])))
        return rank(rows, pivots)

    def tagged(row):
        def conjugated(idx, expo):
            tag = TAGS[7 * len(idx) + sum(expo)]
            return {
                key: Fraction(c * TAGS[7 * len(key[0]) + sum(key[1])], tag)
                for key, c in row(idx, expo).items()
            }

        return conjugated

    assert len(TAGS) == 28
    for name, conn, one_shift in capped_boundaries():
        a = conn.algebroid
        expected = boundary_betti(conn, 5, force_capped=True)
        monkeypatch.setattr(albv.homology, "matrix_rank", tag_rank)
        spans.clear()
        table = betti_table(
            a.variables, a.rank, tagged(boundary_rows(conn)), -1, 5, "homology", True
        )
        monkeypatch.setattr(albv.homology, "matrix_rank", rank)
        assert table == expected, name
        assert spans and all(len(weights) == 1 for weights, _ in spans), name
        if not one_shift:
            weights = [min(weights) for weights, _ in spans]
            widths = [width for _, width in spans]
            cut = widths.index(21)
            assert set(widths[:cut]) == {42} and set(widths[cut:]) == {21}, name
            for part in (weights[:cut], weights[cut:]):
                assert part == sorted(set(part)), name


def test_monomial_counts_come_from_binomials():
    """A rank-0 complex has one index tuple, so its block size is the
    monomial count of the weight."""
    from albv.homology import Complex, _exponents

    for m in range(5):
        complex_ = Complex(tuple("abcd")[:m], 0, 0)
        for w in range(-1, 7):
            assert complex_.block_size((w,)) == len(_exponents(m, w)), (m, w)


@pytest.mark.parametrize(
    "case, largest",
    [
        # shift 0, capped: the largest block is the slice at the cap
        ("cotangent so(3)*", comb(3, 1) * comb(3 + 3 - 1, 3)),
        # shift -1: entry (k, 3) needs the rank out of slice (k + 1, 4)
        ("tangent 3-space", comb(3, 1) * comb(3 + 4 - 1, 4)),
        # mixed shifts: a block is a whole window, weights 0..3
        ("mixed plane", comb(2, 1) * sum(comb(2 + v - 1, v) for v in range(4))),
    ],
)
def test_oversized_tables_are_refused_by_their_largest_block(monkeypatch, case, largest):
    """Blocks are counted in the middle degree, C(rank, rank // 2) index
    tuples times the monomials of the block's weights, C(m + v - 1, v) each;
    a table at weight 3 passes at a limit equal to its largest block and is
    refused one below."""
    import albv.homology
    from albv.homology import TableTooLarge

    (conn,) = [conn for name, conn, _ in capped_boundaries() if name == case]
    capped = case == "cotangent so(3)*"
    monkeypatch.setattr(albv.homology, "MAX_BLOCK_SIZE", largest)
    table = boundary_betti(conn, 3, force_capped=capped)
    monkeypatch.setattr(albv.homology, "MAX_BLOCK_SIZE", largest - 1)
    with pytest.raises(TableTooLarge, match="table too large") as exc:
        boundary_betti(conn, 3, force_capped=capped)
    assert isinstance(exc.value, ValueError)
    assert "%d basis monomials" % largest in str(exc.value)
    monkeypatch.setattr(albv.homology, "MAX_BLOCK_SIZE", largest)
    assert boundary_betti(conn, 3, force_capped=capped) == table


def test_the_largest_documented_tables_fit_the_block_limit():
    """The sl3* tables at weight 2 (rank 8, 8 coordinates, shift 0) rank
    slices of at most C(8, 4) C(9, 2) = 2,520 monomials; at weight 3 the
    slices reach 8,400 and the table is refused before anything is built."""
    from albv.homology import MAX_BLOCK_SIZE, Complex, TableTooLarge

    sl3 = tuple("abcdefgh")
    assert Complex(sl3, 8, 2).block_size((2,)) == 2520 <= MAX_BLOCK_SIZE
    with pytest.raises(TableTooLarge, match="has 8400 basis monomials"):
        Complex(sl3, 8, 3)
    assert 8400 > MAX_BLOCK_SIZE
    calls = []

    def row(idx, expo):
        calls.append(idx)
        return {}

    with pytest.raises(TableTooLarge):
        betti_table(tuple("abcdefgh"), 8, row, 1, 3)
    assert calls == []


def limited_tables():
    """(name, thunk) of tables of every kind of block list: the boundary of
    the tangent plane (shift -1), homogeneous and capped, so(3)* ``kb_betti``
    (shift 0), the mixed plane (one window), tangent 3-space cohomology
    (split into three lines) and the boundary rows of tangent 3-space
    unsplit."""
    plane = TopConnection(tangent_algebroid(XY))
    so3 = PoissonStructure(("x", "y", "z"), SO3_TERMS)
    (mixed,) = [conn for name, conn, _ in capped_boundaries() if name == "mixed plane"]
    t3 = tangent_algebroid(("x", "y", "z"))
    rows = boundary_rows(TopConnection(t3))
    return [
        ("tangent plane boundary", lambda: boundary_betti(plane, 4)),
        ("capped tangent plane boundary", lambda: boundary_betti(plane, 4, True)),
        ("so(3)* kb", lambda: kb_betti(so3, 3)),
        ("mixed plane", lambda: boundary_betti(mixed, 4)),
        ("split tangent 3-space cohomology", lambda: cohomology_betti(t3, 3)),
        ("unsplit tangent 3-space boundary", lambda: betti_table(t3.variables, 3, rows, -1, 3)),
    ]


def test_count_names_the_blocks_a_table_ranks(monkeypatch):
    """The size bound covers every block a table ranks: at the smallest
    ``MAX_BLOCK_SIZE`` at which a table builds, no matrix handed to
    ``matrix_rank`` has more rows or columns than the limit, and below it
    the table is refused before any rank.  With no shift, or a shift that
    raises weight, nothing is counted."""
    import albv.homology
    from albv.homology import Complex, TableTooLarge

    sizes = []
    rank = albv.homology.matrix_rank

    def spy(rows, pivots=None):
        sizes.append(max(len(rows), len(rows[0])))
        return rank(rows, pivots)

    monkeypatch.setattr(albv.homology, "matrix_rank", spy)
    limits = []
    for name, make in limited_tables():
        for limit in range(1, 100):
            monkeypatch.setattr(albv.homology, "MAX_BLOCK_SIZE", limit)
            sizes.clear()
            try:
                make()
                break
            except TableTooLarge:
                assert sizes == [], (name, limit)
        assert sizes and max(sizes) <= limit, name
        limits.append(limit)
    assert limits == [12, 10, 30, 30, 45, 45]

    shape = Complex(XY, 2, 3)
    monkeypatch.setattr(shape, "block_size", lambda ws: pytest.fail("counted %s" % (ws,)))
    for shifts in (set(), {1}, {-1, 1}):
        for capped in (False, True):
            shape.count(shifts, capped)


def test_count_sizes_each_block_once(monkeypatch):
    """``Complex.count`` calls ``block_size`` once per block ``_blocks``
    lists, on its sources: the capped boundary table of tangent 3-space at
    w=4 reads the homogeneous table at weight 3, whose five slices 0 to 4
    are counted after the shift scan at weight 4; the mixed plane counts its
    one window."""
    from albv.homology import Complex, _blocks

    sized = []
    block_size = Complex.block_size

    def spy(self, weights):
        sized.append(tuple(weights))
        return block_size(self, weights)

    monkeypatch.setattr(Complex, "block_size", spy)
    boundary_betti(TopConnection(tangent_algebroid(("x", "y", "z"))), 4, force_capped=True)
    assert sized == [(4,), (0,), (1,), (2,), (3,), (4,)]
    assert sized[1:] == [tuple(sources) for sources, _ in _blocks(3, -1)]
    (mixed,) = [conn for name, conn, _ in capped_boundaries() if name == "mixed plane"]
    sized.clear()
    boundary_betti(mixed, 4)
    assert sized == [(4,), (0, 1, 2, 3, 4)]


def test_a_mixed_shift_table_is_refused_before_any_block_is_ranked(monkeypatch):
    """d + eps1^ on the plane ranks its windows in filtration order, each
    degree's rows into the columns of every weight; at the limit of 15 the
    window at weight 5, with C(2, 1) (1 + 2 + ... + 6) = 42 monomials, is
    refused before any block is ranked."""
    import albv.homology
    from albv.homology import TableTooLarge

    (conn,) = [conn for name, conn, _ in capped_boundaries() if name == "mixed plane"]
    ranked = []
    monkeypatch.setattr(albv.homology, "matrix_rank", ranked.append)
    monkeypatch.setattr(albv.homology, "MAX_BLOCK_SIZE", 15)
    with pytest.raises(TableTooLarge) as exc:
        boundary_betti(conn, 5)
    assert str(exc.value) == (
        "table too large: a block of degree 1 and weight at most 5 has 42 basis "
        "monomials, above the limit of 15"
    )
    assert ranked == []


def test_a_negative_weight_is_refused():
    """A table at weight -1 came back empty, with shift 0 although d lowers
    weight by one, and a walk at weight -3 walked nothing; a negative weight
    is now a ValueError, not a size refusal."""
    from albv.homology import Complex, TableTooLarge

    plane = tangent_algebroid(XY)
    calls = [
        lambda: cohomology_betti(plane, -1),
        lambda: star_conjugation_check(plane, plane.volume(1), max_weight=-1),
        lambda: Complex(("x",), 1, -3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="max_weight must be nonnegative") as exc:
            call()
        assert not isinstance(exc.value, TableTooLarge)


# -- product structures split into factors -------------------------------------


def test_the_poincare_lemma_holds_at_every_weight_cap():
    """On tangent n-space d x^b eps_I = sum_mu b_mu x^(b - 1_mu) eps_mu ^ eps_I,
    so only the constants are closed and not exact (the Poincare lemma), and
    the trivial boundary, its star conjugate, keeps only the constant top
    multivectors: cohomology (0, 0) = 1 and homology (n, 0) = 1, nothing
    else, shift -1, at every cap.  At cap 0 no row of weight 0 is nonzero,
    so a shift scan of weight 0 alone read shift 0 and the plane printed
    k=1: 2 and k=2: 1; the scan reads the rows through weight 1, split or
    whole."""
    for n in (1, 2, 3):
        a = tangent_algebroid(("x", "y", "z")[:n])
        conn = TopConnection(a)
        for w in range(4):
            whole = betti_table(a.variables, n, differential_rows(a), 1, w)
            for table, top in [
                (cohomology_betti(a, w), 0),
                (whole, 0),
                (boundary_betti(conn, w), n),
            ]:
                assert table.shift == -1 and table.homogeneous, (n, w)
                assert {key for key, b in table.entries.items() if b} == {(top, 0)}
                assert table.entry(top, 0) == 1
    plane = cohomology_betti(tangent_algebroid(XY), 0)
    assert plane.entries == {(0, 0): 1, (1, 0): 0, (2, 0): 0}


XYZUV = ("x", "y", "z", "u", "v")
SO3_TERMS = {(0, 1): "z", (1, 2): "x", (0, 2): "-y"}


def product_structures():
    """Products on disjoint frames and variables, by name: so(3)* and
    Bianchi III ({x,z} = x, with y a Casimir of its own) times {u,v} = v,
    so(3)* times sl2* on x, y, z, a, b, c, {v,z} = v times {u,y} = 1 on
    v, u, z, y, x (five cotangent factors: dv and dz with v and z, du with
    y, dy with u, dx alone and x alone), the line with anchor x d/dx times
    aff1, and anchor y d/dx on x, y (y joins through the coefficient alone)
    times anchor z d/dz on z."""
    from albv.algebroid import custom_algebroid

    sl2_terms = {(3, 4): "2*b", (3, 5): "-2*c", (4, 5): "a"}
    so3_sl2 = {**SO3_TERMS, **sl2_terms}
    return {
        "so(3)* x {u,v}=v": PoissonStructure(XYZUV, {**SO3_TERMS, (3, 4): "v"}),
        "Bianchi III x {u,v}=v": PoissonStructure(XYZUV, {(0, 2): "x", (3, 4): "v"}),
        "so(3)* x sl2*": PoissonStructure(("x", "y", "z", "a", "b", "c"), so3_sl2),
        "{v,z}=v x {u,y}=1": PoissonStructure(
            ("v", "u", "z", "y", "x"), {(0, 2): "v", (1, 3): "1"}
        ),
        "x d/dx x aff1": custom_algebroid(
            ("x",), 3, [["x"], [0], [0]], {(1, 2): {2: 1}}
        ),
        "y d/dx x z d/dz": custom_algebroid(
            ("x", "y", "z"), 2, [["y", 0, 0], [0, 0, "z"]], {}
        ),
    }


def split_and_whole(kind, structure, max_weight, force_capped=False):
    """Two thunks: the table of ``kind`` on ``structure`` as the library
    computes it, and ``betti_table`` on the same rows with no split, the
    whole engine."""
    if kind == "cohomology":
        a = structure
        return lambda: cohomology_betti(a, max_weight), lambda: betti_table(
            a.variables, a.rank, differential_rows(a), 1, max_weight, "cohomology"
        )
    if kind == "homology":
        conn = structure if isinstance(structure, TopConnection) else TopConnection(structure)
        a = conn.algebroid
        return lambda: boundary_betti(conn, max_weight, force_capped), lambda: betti_table(
            a.variables, a.rank, boundary_rows(conn), -1, max_weight, "homology",
            force_capped,
        )
    pi = structure
    if kind == "kb-homology":
        return lambda: kb_betti(pi, max_weight), lambda: betti_table(
            pi.variables, pi.base_dim, kb_rows(pi), -1, max_weight, kind
        )
    return lambda: lichnerowicz_betti(pi, max_weight), lambda: betti_table(
        pi.variables, pi.base_dim, differential_rows(pi.cotangent()), 1, max_weight,
        "poisson-cohomology",
    )


def assert_same_table(split, whole):
    assert split == whole
    assert split.to_text() == whole.to_text()
    assert split.to_json() == whole.to_json()


@pytest.mark.parametrize(
    "name, kinds, top_w",
    [
        ("tangent 1-space", ("cohomology", "homology"), 6),
        ("tangent 2-space", ("cohomology", "homology"), 6),
        ("tangent 3-space", ("cohomology", "homology"), 6),
        ("tangent 4-space", ("cohomology", "homology"), 6),
        ("so(3)* x {u,v}=v", ("kb-homology", "poisson-cohomology"), 3),
        ("Bianchi III x {u,v}=v", ("kb-homology", "poisson-cohomology"), 3),
        ("so(3)* x sl2*", ("kb-homology", "poisson-cohomology"), 4),
        ("x d/dx x aff1", ("cohomology", "homology"), 4),
        ("y d/dx x z d/dz", ("cohomology", "homology"), 3),
        ("{v,z}=v x {u,y}=1", ("kb-homology", "poisson-cohomology"), 3),
    ],
)
def test_a_split_table_equals_the_whole_table(name, kinds, top_w):
    """Second route for the Kunneth split: each table of a product equals
    ``betti_table`` on the product's own rows, ranked whole, entry for entry
    with the same shift and header, at every weight up to ``top_w``.  Every
    structure here has more than one factor, so the split is what runs; both
    Poisson tables read the cotangent algebroid's split.  On {v,z}=v x
    {u,y}=1 the factors' shifts are 0 and -1, so the split gives the shifts
    and the product's rows are ranked as a capped table."""
    from albv.rows import boundary_split, differential_split

    if name.startswith("tangent"):
        structure = tangent_algebroid(XYZUV[: int(name.split()[1][0])])
    else:
        structure = product_structures()[name]
    for kind in kinds:
        if kind == "cohomology":
            factors = differential_split(structure)
        elif kind == "homology":
            factors = boundary_split(TopConnection(structure))
        else:
            factors = differential_split(structure.cotangent())
        assert len(factors) > 1 or name == "tangent 1-space", (name, kind)
        for w in range(top_w + 1):
            split, whole = split_and_whole(kind, structure, w)
            assert_same_table(split(), whole())


def outcome(make):
    """A table's text and entries, or the type and text of what it raised."""
    try:
        table = make()
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return table.to_text(), table.entries


def unsplit_cases():
    """(name, kind, structure, force_capped) of products whose tables do not
    fit the split: mixed shifts across the factors, ranked on the product's
    rows; a factor whose square is nonzero, refused with the product's
    witness; a factor that raises weight, refused.  And two capped tables of
    one shift, which fit it since capped tables are read off the homogeneous
    table."""
    from albv.algebroid import custom_algebroid

    line_aff1 = custom_algebroid(("x",), 3, [[1], [0], [0]], {(1, 2): {2: 1}})
    # sl2 with an extra e1 in [e1, e2], whose d has a nonzero square, times aff1
    broken_aff1 = lie_algebra(
        5, {(0, 1): {0: 1, 1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}, (3, 4): {4: 1}}
    )
    # a bivector whose self-bracket is 2z e1^e2^e3, times {u,v} = v
    bad_pi = PoissonStructure(
        XYZUV, {(0, 1): "z", (1, 2): "x", (0, 2): "x", (3, 4): "v"}, check=False
    )
    raising = custom_algebroid(XY, 2, [["x^2", 0], [0, 1]], {})
    t3 = tangent_algebroid(("x", "y", "z"))
    return [
        ("tangent line x aff1, mixed shifts", "cohomology", line_aff1, False),
        ("tangent line x aff1, mixed shifts", "homology", line_aff1, False),
        ("capped tangent 3-space", "homology", TopConnection(t3), True),
        ("capped x d/dx x aff1", "homology", product_structures()["x d/dx x aff1"], True),
        ("broken sl2 x aff1", "cohomology", broken_aff1, False),
        ("broken sl2 x aff1", "homology", broken_aff1, False),
        ("broken bivector x {u,v}=v", "kb-homology", bad_pi, False),
        ("broken bivector x {u,v}=v", "poisson-cohomology", bad_pi, False),
        ("x^2 d/dx x tangent line", "cohomology", raising, False),
        ("x^2 d/dx x tangent line", "homology", raising, False),
    ]


@pytest.mark.parametrize("name, kind, structure, force_capped", unsplit_cases())
def test_a_table_off_the_split_agrees_with_the_whole_rows(
    name, kind, structure, force_capped
):
    """Mixed shifts across the factors (a capped table), a factor whose
    square is nonzero and a factor that raises weight give exactly the
    table or exception text of ``betti_table`` on the product's rows with
    no split; so do the two capped tables of one shift, read off the split
    homogeneous table."""
    for w in range(4):
        split, whole = map(outcome, split_and_whole(kind, structure, w, force_capped))
        assert split == whole, (name, kind, w)
    if name.startswith("broken"):
        assert whole[1].startswith("operator does not square to zero")


def test_a_factor_whose_square_is_nonzero_is_refused_with_the_product_witness(
    monkeypatch,
):
    """The split checks each factor's square on the slices it ranks and
    stops at the first nonzero one; sl2 with an extra e1 in [e1, e2] fails,
    aff1 is never reached, and the witness is read again on the product's
    rows, so the table raises the text of the table without the split."""
    import albv.homology

    seen = []
    check = albv.homology._Operator.square_witness

    def spy(self, top):
        seen.append((self.rank, check(self, top)))
        return seen[-1][1]

    monkeypatch.setattr(albv.homology._Operator, "square_witness", spy)
    broken = unsplit_cases()[4][2]
    with pytest.raises(ValueError) as exc:
        cohomology_betti(broken, 0)
    witness = "its square sends 1 [3] to -2 [1,2,3]"
    assert seen == [(3, witness), (5, witness)]
    assert str(exc.value) == "operator does not square to zero: " + witness


def test_a_product_above_the_block_limit_is_refused_before_any_rank(monkeypatch):
    """Tangent 3-space splits into three lines, whose blocks are single
    monomials, but the limit is read on the product's blocks: at 30 the
    slice past weight 3 has C(3, 1) C(6, 4) = 45 monomials in degree 1, and
    the table is refused with the whole table's message, nothing ranked."""
    import albv.homology
    from albv.homology import TableTooLarge

    ranked = []
    monkeypatch.setattr(albv.homology, "matrix_rank", ranked.append)
    monkeypatch.setattr(albv.homology, "MAX_BLOCK_SIZE", 30)
    t3 = tangent_algebroid(("x", "y", "z"))
    message = (
        "table too large: a block of degree 1 and weight at most 4 has 45 basis "
        "monomials, above the limit of 30"
    )
    for make in (
        lambda: cohomology_betti(t3, 3),
        lambda: betti_table(t3.variables, 3, differential_rows(t3), 1, 3),
        lambda: boundary_betti(TopConnection(t3), 3),
    ):
        with pytest.raises(TableTooLarge) as exc:
            make()
        assert str(exc.value) == message
    assert ranked == []


def spy_on_ranks(monkeypatch):
    """Record the (rows, columns) of every matrix a table ranks."""
    import albv.homology

    seen = []
    rank = albv.homology.matrix_rank

    def spy(rows, pivots=None):
        seen.append((len(rows), len(rows[0])))
        return rank(rows, pivots)

    monkeypatch.setattr(albv.homology, "matrix_rank", spy)
    return seen


def test_the_split_is_taken_on_tangent_3_space(monkeypatch):
    """Tangent 3-space is the product of three lines, whose slices are one
    monomial each: its cohomology and trivial boundary tables at weight 6
    rank no matrix larger than 1 x 1.  A table ranks afresh on every call:
    nothing but the split is kept between calls."""
    seen = spy_on_ranks(monkeypatch)
    t3 = tangent_algebroid(("x", "y", "z"))
    for make in (lambda: cohomology_betti(t3, 6), lambda: boundary_betti(TopConnection(t3), 6)):
        seen.clear()
        make()
        first = list(seen)
        assert first and set(first) == {(1, 1)}
        seen.clear()
        make()
        assert seen == first


def test_unsplit_tables_rank_the_blocks_of_the_whole_engine(monkeypatch):
    """so(3)* is one factor, capped or not: these rank exactly the blocks
    ``betti_table`` ranks on the same rows."""
    seen = spy_on_ranks(monkeypatch)
    so3 = PoissonStructure(("x", "y", "z"), SO3_TERMS)
    cot = TopConnection(so3.cotangent())
    cases = [
        ("kb-homology", so3, False),
        ("poisson-cohomology", so3, False),
        ("homology", cot, False),
        ("homology", cot, True),
    ]
    for kind, structure, capped in cases:
        split, whole = split_and_whole(kind, structure, 3, capped)
        seen.clear()
        split()
        from_split = list(seen)
        seen.clear()
        whole()
        assert from_split == seen and seen, (kind, capped)


def test_a_capped_table_reads_the_split(monkeypatch):
    """A capped table of one shift comes from the homogeneous table, which
    a product convolves from its factors: the capped boundary table of
    tangent 3-space reads the split kept on its connection, and ranks the
    1 x 1 blocks of the three lines."""
    from albv.rows import boundary_split

    conn = TopConnection(tangent_algebroid(("x", "y", "z")))
    seen = spy_on_ranks(monkeypatch)
    boundary_betti(conn, 2, force_capped=True)
    kept = conn.kept("split", lambda: pytest.fail("split not kept"))
    assert kept == (((0,), (0,)), ((1,), (1,)), ((2,), (2,)))
    assert boundary_split(conn) is kept
    assert seen and set(seen) == {(1, 1)}


def test_a_split_table_counts_the_product_once_before_any_rank(monkeypatch):
    """``Complex.count`` runs once per table, on the product's shape, with the
    union of the factors' shifts, and before any block is ranked.  Over x
    and y with anchor d/dx on e1 and none on e2, the factors are the line
    {e1, x}, the frame e2 and the variable y; the last two have no nonzero
    row and add no shift, so the union is {-1}, as the whole rows read."""
    import albv.homology
    from albv.algebroid import custom_algebroid
    from albv.homology import Complex
    from albv.rows import differential_split

    events = []
    count = Complex.count

    def count_spy(self, shifts, capped=False):
        events.append(("count", self.variables, self.rank, self.max_weight, set(shifts)))
        return count(self, shifts, capped)

    monkeypatch.setattr(Complex, "count", count_spy)
    monkeypatch.setattr(
        albv.homology, "matrix_rank", lambda rows, pivots=None: events.append("rank") or 1
    )
    lonely = custom_algebroid(XY, 2, [[1, 0], [0, 0]], {})
    assert differential_split(lonely) == (((0,), (0,)), ((1,), ()), ((), (1,)))
    t3 = tangent_algebroid(("x", "y", "z"))
    for a, shape in [(lonely, (XY, 2, 3)), (t3, (("x", "y", "z"), 3, 3))]:
        for table in (
            lambda: cohomology_betti(a, 3),
            lambda: boundary_betti(TopConnection(a), 3),
        ):
            events.clear()
            assert table().shift == -1
            assert events[0] == ("count", *shape, {-1})
            assert set(events[1:]) == {"rank"}


def test_the_split_is_kept_on_its_structure_and_ordered_by_position():
    """The split is read once per structure and kept in its memo.  Its
    factors come in the order of their first frame, then variable, by
    position, so the variable names and the string hash do not move them."""
    from albv.rows import boundary_split, differential_split

    cot = product_structures()["{v,z}=v x {u,y}=1"].cotangent()
    assert differential_split(cot) is differential_split(cot)
    assert differential_split(cot) == (
        ((0, 2), (0, 2)), ((1,), (3,)), ((3,), (1,)), ((4,), ()), ((), (4,))
    )
    so3_uv = product_structures()["so(3)* x {u,v}=v"].cotangent()
    assert differential_split(so3_uv) == (((0, 1, 2), (0, 1, 2)), ((3, 4), (3, 4)))
    plane = tangent_algebroid(XY)
    # a connection form joins its frame with the variables of its coefficient
    twisted = TopConnection(plane, plane.poly("y") * plane.coframe(0))
    assert boundary_split(twisted) == (((0, 1), (0, 1)),)
    assert boundary_split(TopConnection(plane)) == (((0,), (0,)), ((1,), (1,)))


def test_both_poisson_tables_read_the_cotangent_split(monkeypatch):
    """The Koszul-Brylinski and Lichnerowicz tables of a bivector hand
    ``betti_table`` one split, the very object kept on its cotangent
    algebroid.  The operator vanishes on 1 and on every generator x_mu and
    dx_mu, the premise of reading that split."""
    import albv.homology
    from albv.rows import differential_split

    read = []
    table = albv.homology.betti_table

    def spy(*args, _split=(), **kwargs):
        read.append(_split)
        return table(*args, _split=_split, **kwargs)

    monkeypatch.setattr(albv.homology, "betti_table", spy)
    for name in ("so(3)* x {u,v}=v", "{v,z}=v x {u,y}=1"):
        pi = product_structures()[name]
        read.clear()
        assert kb_betti(pi, 1).operator_tag == "kb-homology"
        assert lichnerowicz_betti(pi, 1).operator_tag == "poisson-cohomology"
        split = differential_split(pi.cotangent())
        assert len(read) == 2 and all(s is split for s in read), name
        m = pi.base_dim
        zero = (0,) * m
        row = kb_rows(pi)
        generators = [((), zero)]
        generators += [((), zero[:mu] + (1,) + zero[mu + 1 :]) for mu in range(m)]
        generators += [((mu,), zero) for mu in range(m)]
        assert all(row(*mono) == {} for mono in generators), name


def square_vanishes_on_every_slice(variables, rank, row, k_step, top):
    """Whether the square of ``row``'s operator vanishes on every basis
    monomial of weight at most ``top``, each key of an image asked of
    ``row`` again: the walk over every ranked slice that the weight-2 check
    replaced, kept as its oracle.  An image key of a degree other than the
    next one counts as a nonzero square; the check raises there, and no
    case below has one."""
    from itertools import combinations, product

    for k in range(rank + 1):
        for idx in combinations(range(rank), k):
            for expo in product(range(top + 1), repeat=len(variables)):
                if sum(expo) > top:
                    continue
                square = {}
                for key, c in row(idx, expo).items():
                    if len(key[0]) != k + k_step:
                        return False
                    for key2, c2 in row(*key).items():
                        square[key2] = square.get(key2, 0) + c * c2
                if any(square.values()):
                    return False
    return True


def square_cases():
    """(name, variables, rank, row, k_step, split) of the tables on the
    benchmark structures, on ``product_structures()`` and on every
    ``unsplit_cases()`` fixture, broken ones included."""
    from albv.rows import boundary_split, differential_split

    shared = shared_structures()
    structures = [
        ("so(3)*", "kb-homology", shared["so3"]),
        ("so(3)*", "poisson-cohomology", shared["so3"]),
        ("tangent 3-space", "cohomology", shared["t3"]),
        ("cotangent so(3)*", "homology", shared["cot"]),
        ("tangent 3-space", "homology", shared["t3 trivial"]),
    ]
    for name, structure in product_structures().items():
        if isinstance(structure, PoissonStructure):
            kinds = ("kb-homology", "poisson-cohomology")
        else:
            kinds = ("cohomology", "homology")
        structures += [(name, kind, structure) for kind in kinds]
    structures += [(name, kind, structure) for name, kind, structure, _ in unsplit_cases()]
    cases = []
    for name, kind, structure in structures:
        if kind == "cohomology":
            a = structure
            case = (a.variables, a.rank, differential_rows(a), 1, differential_split(a))
        elif kind == "homology":
            conn = structure if isinstance(structure, TopConnection) else TopConnection(structure)
            a = conn.algebroid
            case = (a.variables, a.rank, boundary_rows(conn), -1, boundary_split(conn))
        elif kind == "kb-homology":
            case = (
                structure.variables, structure.base_dim, kb_rows(structure), -1,
                differential_split(structure.cotangent()),
            )
        else:
            cot = structure.cotangent()
            case = (
                structure.variables, structure.base_dim, differential_rows(cot), 1,
                differential_split(cot),
            )
        cases.append(("%s %s" % (name, kind),) + case)
    return cases


def square_at_weight_2(idx, expo):
    """A first-order operator of k_step +1 and shift -1 on the line with
    frames eps1 and eps2 whose square is nonzero on weight 2 alone:
    D f = f' eps1, D (f eps1) = f' eps1 ^ eps2 and D (f eps2) = 0, so
    D^2 f = f'' eps1 ^ eps2, zero on 1 and x but not on x^2."""
    (b,) = expo
    if not b or idx not in ((), (0,)):
        return {}
    return {(idx + (1,) if idx else (0,), (b - 1,)): b}


def test_a_square_that_shows_at_weight_2_alone_is_refused():
    """The weight-2 check reads the square of ``square_at_weight_2`` as
    nonzero on x^2, so a table that ranks weight 2 is refused.  Cleared, the
    row of x^v eps1, a pivot of the map from x^(v + 1), would be left out of
    the rank out of (1, v), and H(2, w) would read 1 where the operator
    ranked whole gives 0.  The table at weight 0 ranks the slices up to
    weight 1 alone, where the square vanishes: H(0, 0) = 1 (the constants),
    H(1, 0) = 1 (eps2; eps1 is the image of x) and H(2, 0) = 0 (eps1 ^ eps2
    is the image of x eps1)."""
    from albv.homology import _Operator

    witness = "its square sends x^2 [] to 2 [1,2]"
    assert _Operator(("x",), 2, square_at_weight_2, 1).square_witness(3) == witness
    assert _Operator(("x",), 2, square_at_weight_2, 1).square_witness(1) is None
    for w in (1, 3):
        with pytest.raises(ValueError, match="^operator does not square to zero: "):
            betti_table(("x",), 2, square_at_weight_2, 1, w)
    table = betti_table(("x",), 2, square_at_weight_2, 1, 0)
    assert table.shift == -1 and tuple_of(table) == (1, 1, 0)


def test_the_square_check_agrees_with_every_slice():
    """``_Operator.square_witness`` reads the square on weights up to 2
    only: a table operator is first order in the coefficient, so its square
    has order at most 2 and vanishes if and only if it vanishes on the
    monomials of weight at most 2.  On every table of the benchmark
    structures, the products and the unsplit fixtures, for the whole rows
    and each factor's, and on ``square_at_weight_2``, at every highest
    ranked weight up to 4 (3 over five or more variables), it agrees with
    the walk over every slice; the broken fixtures fail it and the rest
    pass."""
    from albv.homology import _Operator
    from albv.rows import factor_rows

    verdicts = {}
    for name, variables, rank, row, k_step, split in square_cases():
        parts = [(variables, rank, row)] + [
            (
                [variables[mu] for mu in factor_variables],
                len(frames),
                factor_rows(row, frames, factor_variables, len(variables)),
            )
            for frames, factor_variables in split
            if len(split) > 1
        ]
        for part_variables, part_rank, part_row in parts:
            for top in range(5 if len(variables) < 5 else 4):
                op = _Operator(part_variables, part_rank, part_row, k_step)
                expected = square_vanishes_on_every_slice(
                    part_variables, part_rank, part_row, k_step, top
                )
                verdict = op.square_witness(top) is None
                assert verdict == expected, (name, part_variables, top)
        verdicts[name] = _Operator(variables, rank, row, k_step).square_witness(2) is None
    for top in range(5):
        op = _Operator(("x",), 2, square_at_weight_2, 1)
        expected = square_vanishes_on_every_slice(("x",), 2, square_at_weight_2, 1, top)
        assert (op.square_witness(top) is None) == expected == (top < 2), top
    broken = {name for name in verdicts if name.startswith("broken")}
    assert broken and not any(verdicts[name] for name in broken)
    assert all(verdict for name, verdict in verdicts.items() if name not in broken)


def test_twisted_aff1_known_answers():
    """aff1, [e1, e2] = e2, with its differential twisted by alpha = c eps1,
    closed since d eps1 = 0; derived by hand.  d eps2 = -eps1 ^ eps2, so
    d_alpha 1 = c eps1, d_alpha eps1 = c eps1 ^ eps1 = 0,
    d_alpha eps2 = (c - 1) eps1 ^ eps2, and d_alpha is zero on degree 2.
    The ranks out of degrees 0 and 1 are [c != 0] and [c != 1]:
    c = 0 gives (1, 1, 0), the untwisted table; c = 1 gives (0, 1, 1);
    c = -1 gives (0, 0, 0).  The twist by tr ad = eps1 (c = 1) makes the
    rows non-unimodular, and the rank out of degree 1 is taken after the
    rank out of degree 0, without the row of its pivot eps1."""
    a = aff1()
    for c, expected in [(0, (1, 1, 0)), (1, (0, 1, 1)), (-1, (0, 0, 0))]:
        table = betti_table((), 2, differential_rows(a, c * a.coframe(0)), 1, 0)
        assert tuple_of(table) == expected, c


def test_a_table_leaves_no_cyclic_garbage():
    """A table keeps its memos in plain dicts on its operators and nests
    no function, so it leaves no reference cycle behind: with the collector
    off, ``gc.collect()`` finds nothing after each of the six benchmark
    tables, after a capped table of a product (split) and after a table
    that raises "does not square to zero"."""
    import gc

    shared = shared_structures()
    product = TopConnection(product_structures()["x d/dx x aff1"])
    broken = unsplit_cases()[4][2]
    makes = [lambda table=table: table(shared) for table in list(SHARED_TABLES.values())[:6]]
    makes.append(lambda: boundary_betti(product, 3, force_capped=True))
    makes.append(lambda: cohomology_betti(broken, 0))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        raised = 0
        for make in makes:
            try:
                make()
            except ValueError as exc:
                assert str(exc).startswith("operator does not square to zero")
                raised += 1
            assert gc.collect() == 0
        assert raised == 1
    finally:
        if enabled:
            gc.enable()
