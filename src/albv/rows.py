"""Sparse rows of the operators behind the Betti tables, from generator data.

A row function ``row(idx, expo)`` returns the image of the basis monomial
x^expo e_idx (or eps_idx) as a sparse dict
``{(index tuple, exponent tuple): coefficient}`` with no zero coefficients,
the input ``homology.betti_table`` takes.  No ``Poly`` or ``GradedElem`` is
built per monomial: the generator data is read into plain tuples once.

``differential_rows`` applies the Leibniz rule to the images of the
coordinates and coframe sections, the data ``algebroid_from_differential``
reads; it serves the cohomology table, and the Lichnerowicz table as the
differential of the cotangent algebroid.  ``boundary_rows`` conjugates it,
twisted by a connection form, with the star, a signed relabelling of
monomials whose complements and signs it reads from the star's own
``exterior._complement``; ``kb_rows`` composes it with the contraction by the
bivector.
The operators of ``calculus``, ``bv`` and ``homology`` (``differential``,
``lichnerowicz``, ``boundary``, ``koszul_brylinski``) are the oracle of
these rows in the tests.

All three operators are first order in the polynomial coefficient: the
commutator [D, f] with a function f is itself linear over functions, so
[[D, f], g] = 0.  For d + alpha^ it is df^ (alpha^ commutes with f); the
star is linear over functions, so the boundary -star (d + alpha^) star_inv
has the commutator -star df^ star_inv; and for i_pi d - d i_pi it is
i_pi df^ - df^ i_pi, as i_pi is linear over functions.  That is the
generating property behind the BV algebra of the paper.  Then [D, x^b] is
sum_mu b_mu x^(b - 1_mu) [D, x_mu], and

    D(x^b w) = x^b D(w) + sum_mu b_mu x^(b - 1_mu) T_mu(w),
    T_mu(w) = D(x_mu w) - x_mu D(w),

so the row of every monomial x^b e_I follows from the rows of e_I and of
x_mu e_I.  ``_first_order`` compiles those once per index tuple, and the
Leibniz code below is only asked at weights 0 and 1.

A row function, with the rows it has compiled, is kept under this module's
keys in the memo of the structure that fixes it, ``kept``, like
``PoissonStructure.cotangent``: the differential's on its ``LieAlgebroid``,
the boundary's on its ``TopConnection`` and the Koszul-Brylinski operator's
on its ``PoissonStructure``.  Every table on one structure shares them, and
they go when the structure goes.  A nonzero twist alpha is not fixed by the
algebroid, so ``differential_rows(a, alpha)`` builds fresh rows; the
boundary reaches a twist only through its own connection, which keeps them.

The split of a structure into factors on disjoint frames and base variables
is kept next to its rows, under the key "split": ``differential_split``,
``boundary_split`` and ``kb_split`` each run one union-find over the frames
and the variables, joining what each generator image, connection term or
bivector component connects, with the variables of its coefficient.  Each
operator sends the unit of the other factors to zero, so a factor's rows
are the product's rows asked on the factor's monomials and relabelled,
``factor_rows``; ``homology`` convolves the factor tables.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from operator import add, sub

from .algebroid import LieAlgebroid, PoissonStructure, tangent_algebroid
from .bv import TopConnection
from .exterior import GradedElem, _complement, shuffle_sign, sort_with_sign

__all__ = [
    "differential_rows",
    "boundary_rows",
    "kb_rows",
    "differential_split",
    "boundary_split",
    "kb_split",
    "factor_rows",
]


def _collect(terms):
    """Merge ``(key, coefficient)`` pairs into a sparse row without zeros."""
    out = {}
    for key, c in terms:
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


def _apply(row, vector, scale=1):
    """The pairs of ``scale * row`` extended linearly to a sparse vector."""
    for (idx, expo), c in vector.items():
        for key, image in row(idx, expo).items():
            yield key, scale * c * image


def _flat(components):
    """(key, exponent tuple, coefficient) of every term of a dict of Polys."""
    return [
        (key, e, c) for key, poly in components.items() for e, c in poly.terms.items()
    ]


def _first_order(raw, m):
    """Rows of a first-order operator on m variables, from ``raw`` at weights 0
    and 1.

    For each index tuple I the rows of e_I and of x_mu e_I are read once
    and merged into one linear form per output key: the coefficient of
    (J, b + off) in the row of x^b e_I is c0 + sum_mu s_mu b_mu.  The row
    of e_I gives c0 at off = e; the term c x^e of T_mu gives s_mu = c at
    off = e - 1_mu.  An offset with -1 at mu has only a slope at mu, so its
    coefficient vanishes whenever b_mu = 0 and no negative exponent is
    emitted.
    """
    zero = (0,) * m
    units = [zero[:mu] + (1,) + zero[mu + 1 :] for mu in range(m)]

    @cache
    def compiled(idx):
        forms = {}  # (J, off) -> [c0, slope per variable]

        def form(key):
            return forms.setdefault(key, [0, [0] * m])

        base = raw(idx, zero)
        for key, c in base.items():
            form(key)[0] += c
        for mu, unit in enumerate(units):
            for (target, e), c in raw(idx, unit).items():
                form((target, tuple(map(sub, e, unit))))[1][mu] += c
            for key, c in base.items():
                form(key)[1][mu] -= c
        return [
            (target, off, c0, [(mu, s) for mu, s in enumerate(slopes) if s])
            for (target, off), (c0, slopes) in forms.items()
            if c0 or any(slopes)
        ]

    def row(idx, expo):
        out = {}
        for target, off, c, slopes in compiled(idx):
            for mu, s in slopes:
                c += s * expo[mu]
            if c:
                out[(target, tuple(map(add, expo, off)))] = c
        return out

    return row


def differential_rows(a: LieAlgebroid, alpha: GradedElem | None = None):
    """Rows of the differential of ``a`` on side A* monomials, plus ``alpha ^``.

    Without a twist, or with a zero one, the rows are kept on ``a``.

    By the Leibniz rule, d(x^b eps_I) = d(x^b) ^ eps_I + x^b d(eps_I), with
    d(x^b) = sum_mu b_mu x^(b - 1_mu) d x_mu, and d(eps_I) the sum over
    positions s of (-1)^s times eps_I with d eps_{I_s} in place.  The
    generator images are read once from the frame data, as
    ``algebroid_from_differential`` reads them back:
    d x_mu = sum_i a_i^mu eps_i and d eps_k = -sum_{i<j} c_ij^k eps_i ^ eps_j.
    The Leibniz rule is applied at weights 0 and 1 only; ``_first_order``
    extends it to every weight.
    """
    if alpha:
        return _leibniz_rows(a, alpha)
    return a.kept("differential rows", lambda: _leibniz_rows(a, None))


def _leibniz_rows(a: LieAlgebroid, alpha):
    """Rows of d + alpha^ on ``a``, compiled afresh; ``alpha`` may be None."""
    d_coord = [
        _flat({(i,): a.anchor[i][mu] for i in range(a.rank)})
        for mu in range(a.base_dim)
    ]
    brackets = a.structure.items()
    d_coframe = [
        [(pair, e, -c) for pair, e, c in _flat({p: cs[k] for p, cs in brackets})]
        for k in range(a.rank)
    ]
    twist = [] if alpha is None else _flat(alpha.components)

    def terms(idx, expo):
        """Each Leibniz term as (unsorted index tuple, exponents, coefficient)."""
        for mu, b in enumerate(expo):
            if b:
                lowered = expo[:mu] + (b - 1,) + expo[mu + 1 :]
                for front, e, c in d_coord[mu]:
                    yield front + idx, tuple(map(add, lowered, e)), b * c
        for front, e, c in twist:
            yield front + idx, tuple(map(add, expo, e)), c
        for s, k in enumerate(idx):
            for pair, e, c in d_coframe[k]:
                raw = idx[:s] + pair + idx[s + 1 :]
                yield raw, tuple(map(add, expo, e)), -c if s % 2 else c

    def row(idx, expo):
        out = []
        for raw, e, c in terms(idx, expo):
            key, sign = sort_with_sign(raw)
            if sign:
                out.append(((key, e), sign * c))
        return _collect(out)

    return _first_order(row, a.base_dim)


def _contraction_rows(theta: GradedElem):
    """Rows of the contraction by ``theta`` on monomials of the other side."""
    pieces = _flat(theta.components)

    def row(idx, expo):
        out = []
        for it, e, c in pieces:
            if set(it) <= set(idx):
                rest = tuple(i for i in idx if i not in it)
                key = (rest, tuple(map(add, expo, e)))
                out.append((key, shuffle_sign(it, rest) * c))
        return _collect(out)

    return row


def boundary_rows(conn: TopConnection):
    """Rows of ``-star((d + alpha^) star_inv(u))`` on side A monomials, kept
    on ``conn``.

    With the unit reference volume, ``star_inv`` sends e_I to the signed
    coframe monomial on the complement and ``star`` sends eps_J back to the
    signed frame monomial on its complement: both are signed relabellings,
    linear over functions, so the conjugate is first order like d + alpha^
    and is asked only at weights 0 and 1.
    """
    return conn.kept("boundary rows", lambda: _boundary_rows(conn))


def _boundary_rows(conn: TopConnection):
    n = conn.algebroid.rank
    d = differential_rows(conn.algebroid, conn.alpha)

    def row(idx, expo):
        pre, sign = _complement(n, idx, True)
        out = {}
        for (target, e), c in d(pre, expo).items():
            rest, inner = _complement(n, target, False)
            out[(rest, e)] = -sign * inner * c
        return out

    return _first_order(row, conn.algebroid.base_dim)


def kb_rows(pi: PoissonStructure):
    """Rows of the Koszul-Brylinski operator i_pi d - d i_pi on base forms,
    kept on ``pi``.

    The composite is asked only at weights 0 and 1; its d factor is itself
    extended from weights 0 and 1 of the tangent differential.
    """
    return pi.kept("kb rows", lambda: _kb_rows(pi))


def _kb_rows(pi: PoissonStructure):
    d = differential_rows(tangent_algebroid(pi.variables))
    i_pi = _contraction_rows(pi.as_elem())

    def row(idx, expo):
        return _collect(
            chain(_apply(i_pi, d(idx, expo)), _apply(d, i_pi(idx, expo), -1))
        )

    return _first_order(row, pi.base_dim)


# -- the split of a product structure ----------------------------------------


def _components(n, m, links):
    """The factors of a structure with frames 0..n-1 and variables 0..m-1.

    One union-find over the frames (nodes 0..n-1) and the variables (nodes
    n..n+m-1) joins the nodes of each set in ``links``.  Each factor is
    ``(frames, variables)``, both sorted, and the factors come in the order
    of their first node, so the split depends on positions alone.
    """
    parent = list(range(n + m))

    def find(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for first, *rest in links:
        for node in rest:
            parent[find(node)] = find(first)
    groups = {}
    for node in range(n + m):
        groups.setdefault(find(node), []).append(node)
    return tuple(
        (tuple(v for v in nodes if v < n), tuple(v - n for v in nodes if v >= n))
        for nodes in groups.values()
    )


def _variable_nodes(poly, n):
    """The nodes of the variables a coefficient depends on."""
    return {n + mu for expo in poly.terms for mu, e in enumerate(expo) if e}


def _algebroid_links(a: LieAlgebroid):
    """What the image of each generator under d joins: d x_mu joins x_mu with
    every frame i whose anchor entry a_i^mu is nonzero, and d eps_k joins k
    with i and j for each nonzero c_ij^k, each with the variables of its
    coefficient."""
    n = a.rank
    for i, row in enumerate(a.anchor):
        for mu, c in enumerate(row):
            if c:
                yield [i, n + mu, *_variable_nodes(c, n)]
    for (i, j), row in a.structure.items():
        for k, c in enumerate(row):
            if c:
                yield [i, j, k, *_variable_nodes(c, n)]


def differential_split(a: LieAlgebroid):
    """The factors of ``a``, kept on ``a``.  The differential of a product
    is d1 + d2, a derivation whose generator images stay in their factor, so
    it sends the unit of the other factors to zero."""
    return a.kept("split", lambda: _components(a.rank, a.base_dim, _algebroid_links(a)))


def boundary_split(conn: TopConnection):
    """The factors of ``conn``'s algebroid that its connection form also
    splits along, kept on ``conn``: each term alpha_i eps_i joins frame i
    with the variables of alpha_i.  The star is a signed relabelling that
    splits with the frames, and the boundary of a degree-0 element is 0."""
    a = conn.algebroid

    def links():
        yield from _algebroid_links(a)
        for (i,), c in conn.alpha.components.items():
            yield [i, *_variable_nodes(c, a.rank)]

    return conn.kept("split", lambda: _components(a.rank, a.base_dim, links()))


def kb_split(pi: PoissonStructure):
    """The factors of ``pi`` on base forms, kept on ``pi``: frame mu is dx_mu,
    joined with x_mu, and a component pi^(mu nu) joins mu and nu with the
    variables of its coefficient.  On forms in disjoint variables the
    operator of pi1 + pi2 is the sum of the two, each zero on the other's
    forms and on constants."""
    m = pi.base_dim

    def links():
        for mu in range(m):
            yield [mu, m + mu]
        for (mu, nu), c in pi.components.items():
            yield [mu, nu, *_variable_nodes(c, m)]

    return pi.kept("split", lambda: _components(m, m, links()))


def factor_rows(row, frames, variables, m):
    """``row`` asked on the monomials of one factor and relabelled: frame
    ``frames[i]`` becomes i and variable ``variables[j]`` becomes j.  An
    operator that sends the unit of the other factors to zero maps these
    monomials into the factor's own."""
    position = {f: i for i, f in enumerate(frames)}
    zero = (0,) * m

    def restricted(idx, expo):
        full = list(zero)
        for mu, e in zip(variables, expo):
            full[mu] = e
        image = row(tuple(frames[i] for i in idx), tuple(full))
        return {
            (tuple(position[i] for i in target), tuple(e[mu] for mu in variables)): c
            for (target, e), c in image.items()
        }

    return restricted
