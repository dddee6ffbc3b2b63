"""Differential calculus attached to an algebroid structure.

Three operators, all exact:

* ``differential``: the degree +1 operator on side A* elements built from the
  anchor and the structure functions; it squares to zero exactly when the
  structure checks pass.
* ``schouten``: the degree -1 graded bracket on side A elements, by a closed
  Leibniz formula on monomials (signs in its docstring).  It extends the
  section bracket and the anchor, [u, v] = -(-1)^((a-1)(b-1)) [v, u] in
  degrees a and b, and [u, -] is a wedge derivation of degree a - 1.
* ``schouten_oracle``: the same bracket computed along an independent route,
  by pairing against basis coframe monomials and using only ``differential``,
  contraction and wedge.  Kept separate on purpose so the two routes can be
  compared term by term.

Every operator here accumulates: each summand of an output coefficient is
added with ``merge_terms`` into one plain term dict per index tuple, and the
result is built once at the end (``elem_from_terms``, or one ``Poly``).  No
operator keeps a running sum of Poly or GradedElem objects.
"""

from __future__ import annotations

from .algebroid import LieAlgebroid
from .exterior import (
    A_SIDE,
    DUAL_SIDE,
    GradedElem,
    as_side,
    basis_tuples,
    contract_or_zero,
    elem_from_terms,
    pairing,
    sort_with_sign,
    wedge,
)
from .poly import Poly, merge_terms

__all__ = [
    "differential",
    "schouten",
    "schouten_oracle",
    "lichnerowicz",
    "dual_differential",
    "bialgebroid_check",
]


def differential(a: LieAlgebroid, omega: GradedElem) -> GradedElem:
    """Degree +1 differential on side A* elements.

    On a degree-k element the coefficient at an increasing tuple J of length
    k + 1 collects one anchor-derivative term per dropped position, with
    alternating sign, and one structure term per dropped pair, with the
    bracket index sorted back in.
    """
    if omega.side != DUAL_SIDE:
        raise ValueError("differential acts on side A* elements")
    if omega.rank != a.rank or omega.variables != a.variables:
        raise ValueError("element does not live on this structure")
    k = omega.degree
    n = a.rank
    pairs = []  # a bracket-free structure, such as the tangent one, has no pair terms
    if a.structure:
        pairs = [(p, q) for p in range(k + 1) for q in range(p + 1, k + 1)]
    acc = {}
    for target in basis_tuples(n, k + 1):
        terms = acc[target] = {}
        for p in range(k + 1):
            rest = target[:p] + target[p + 1 :]
            coeff = omega.components.get(rest)
            if coeff is not None:
                a.anchor_terms(terms, target[p], coeff, -1 if p % 2 else 1)
        for p, q in pairs:
            _, row = a.structure_row(target[p], target[q])  # increasing: sign 1
            rest = target[:p] + target[p + 1 : q] + target[q + 1 :]
            pair_sign = -1 if (p + q) % 2 else 1
            for r, c in enumerate(row):
                if not c:
                    continue
                sorted_idx, s = sort_with_sign((r,) + rest)
                if s == 0:
                    continue
                comp = omega.components.get(sorted_idx)
                if comp is not None:
                    merge_terms(terms, c, pair_sign * s, comp)
    return elem_from_terms(DUAL_SIDE, k + 1, n, a.variables, acc)


def schouten(a: LieAlgebroid, u: GradedElem, v: GradedElem) -> GradedElem:
    """Graded bracket of two side A elements, degree u + v - 1.

    On monomials, with du = |I|, dv = |J| and 0-based positions s, t::

        [p e_I, q e_J] = pq [e_I, e_J] + p [e_I, q] ^ e_J
                         + (-1)^(du(dv-1)+dv) q [e_J, p] ^ e_I
        [e_I, e_J] = sum_{s,t} (-1)^(s+t) c_{I_s J_t}^k e_k ^ e_{I-s} ^ e_{J-t}
        [e_I, f] = sum_s (-1)^(du-1-s) rho(e_{I_s})(f) e_{I-s}

    Each term is sorted by ``sort_with_sign`` and merged into the term dict
    of its index tuple.
    """
    if u.side != A_SIDE or v.side != A_SIDE:
        raise ValueError("schouten acts on side A elements")
    if u.rank != a.rank or u.variables != a.variables:
        raise ValueError("element does not live on this structure")
    acc = {}

    def add(raw, parity, f, g):
        """Merge (-1)^parity f g into the sorted ``raw``, unless it repeats."""
        key, sign = sort_with_sign(raw)
        if sign:
            merge_terms(acc.setdefault(key, {}), f, -sign if parity % 2 else sign, g)

    for idx_u, p in u.components.items():
        for idx_v, q in v.components.items():
            du, dv = len(idx_u), len(idx_v)
            pq = p * q if a.structure else None
            for s, i in enumerate(idx_u):
                rest_u = idx_u[:s] + idx_u[s + 1 :]
                add(rest_u + idx_v, du - 1 - s, p, a.anchor_frame(i, q))
                if not a.structure:
                    continue  # bracket-free: no c_ij^k terms
                for t, j in enumerate(idx_v):
                    rest_v = idx_v[:t] + idx_v[t + 1 :]
                    sign, row = a.structure_row(i, j)
                    for k, c in enumerate(row):
                        if c:
                            add((k,) + rest_u + rest_v, s + t + (sign < 0), pq, c)
            for t, j in enumerate(idx_v):
                rest_v = idx_v[:t] + idx_v[t + 1 :]
                parity = du * (dv - 1) + dv + dv - 1 - t
                add(rest_v + idx_u, parity, q, a.anchor_frame(j, p))
    return elem_from_terms(A_SIDE, u.degree + v.degree - 1, a.rank, a.variables, acc)


def schouten_oracle(a: LieAlgebroid, u: GradedElem, v: GradedElem) -> GradedElem:
    """Independent route to the graded bracket, via coframe pairings.

    The coefficient at an increasing tuple K is assembled from three full
    contractions against the basis coframe monomial on K: each argument
    contracted into the differential of the other's contraction, and the
    wedge of both contracted into the differential of the monomial itself.
    Overflowing contractions contribute zero.
    """
    if u.side != A_SIDE or v.side != A_SIDE:
        raise ValueError("schouten_oracle acts on side A elements")
    du, dv = u.degree, v.degree
    deg = du + dv - 1
    n = a.rank
    sign1 = -1 if ((du - 1) * (dv - 1)) % 2 else 1
    sign3 = -1 if (du + 1) % 2 else 1
    uv = wedge(u, v)
    comps = {}
    for target in basis_tuples(n, deg):
        eps = GradedElem(
            DUAL_SIDE, deg, n, a.variables, {target: Poly.constant(1, a.variables)}
        )
        t1 = pairing(differential(a, contract_or_zero(v, eps)), u)
        t2 = pairing(differential(a, contract_or_zero(u, eps)), v)
        t3 = pairing(differential(a, eps), uv)
        terms = merge_terms({}, t1, sign1)
        merge_terms(terms, t2, -1)
        merge_terms(terms, t3, -sign3)
        comps[target] = Poly(a.variables, terms)
    return GradedElem(A_SIDE, deg, n, a.variables, comps)


def lichnerowicz(pi, u: GradedElem) -> GradedElem:
    """Bracket with a self-commuting bivector: a square-zero degree +1 map."""
    return schouten(pi.tangent(), pi.as_elem(), u)


def dual_differential(a_star: LieAlgebroid, u: GradedElem) -> GradedElem:
    """Differential of a dual structure, acting on side A elements.

    Side tags are relative to a structure: multivectors of the original
    bundle are the forms of its dual, so the element is re-tagged, pushed
    through the dual differential, and tagged back.
    """
    if u.side != A_SIDE:
        raise ValueError("dual_differential acts on side A elements")
    return as_side(differential(a_star, as_side(u, DUAL_SIDE)), A_SIDE)


def bialgebroid_check(a: LieAlgebroid, a_star: LieAlgebroid, pairs=None):
    """Check that the dual differential is a derivation of the bracket.

    Runs over all frame section pairs plus any supplied extra pairs of
    degree-1 sections, comparing the dual differential of the bracket with
    the bracketed dual differentials.  Returns a dict with ``ok`` and a list
    of residual witnesses.
    """
    failures = []
    candidates = []
    for i in range(a.rank):
        for j in range(i + 1, a.rank):
            candidates.append(("frame (%d, %d)" % (i + 1, j + 1), a.frame(i), a.frame(j)))
    for pos, (x, y) in enumerate(pairs or []):
        candidates.append(("sample %d" % (pos + 1), x, y))
    for label, x, y in candidates:
        lhs = dual_differential(a_star, a.bracket_sections(x, y))
        rhs = schouten(a, dual_differential(a_star, x), y) + schouten(
            a, x, dual_differential(a_star, y)
        )
        residual = lhs - rhs
        if not residual.is_zero:
            failures.append({"pair": label, "residual": str(residual)})
    return {"ok": not failures, "failures": failures}
