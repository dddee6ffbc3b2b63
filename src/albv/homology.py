"""Weight-graded chain complexes, Betti tables, and the Poisson operators.

The weight of a monomial section is the total degree of its polynomial
coefficient.  Table entry (k, w) is the homology at a weight window of
exterior degree k.  The window is ``(w,)`` when the operator is
weight-homogeneous of a single shift s, and ``range(w + 1)`` when the table is
capped: an operator whose weight shifts are mixed but all nonpositive still
preserves the finite subcomplex of weight at most w, and any table may be
capped on request.  The operator maps the window of (k, w) into the window of
(k + k_step, w + lift), where the lift is s, or 0 when capped; each window's
rank is computed once, with exact rational arithmetic.  Operators that raise
weight admit no finite truncation and are refused.

Also here: the star-conjugation check of the boundary (defined in ``bv``
and re-exported here), the Koszul-Brylinski operator on base forms, the
modular vector field and the modular relation with its recorded global sign,
the homology-versus-cohomology duality checks, the anticommutator defect
experiment, and the connection-homotopy comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebroid import (
    LieAlgebroid,
    PoissonStructure,
    cotangent_algebroid,
    tangent_algebroid,
)
from .bv import (
    AConnectionOnA,
    TopConnection,
    boundary,
    generating_operator,
    torsion_free_generator,
)
from .calculus import differential, lichnerowicz, schouten
from .exterior import (
    A_SIDE,
    DUAL_SIDE,
    GradedElem,
    Volume,
    as_side,
    basis_tuples,
    contract,
    contract_or_zero,
    pairing,
    star,
    star_inv,
    top_elem,
)
from .linalg import rank as matrix_rank
from .poly import Poly

__all__ = [
    "boundary",
    "BettiTable",
    "WeightedComplex",
    "betti_table",
    "cohomology_betti",
    "boundary_betti",
    "kb_betti",
    "lichnerowicz_betti",
    "duality_check",
    "star_conjugation_check",
    "koszul_brylinski",
    "lie_algebra_boundary",
    "modular_vector_field",
    "modular_relation_check",
    "unimodular_duality_check",
    "anticommutator_defect_check",
    "homotopy_invariance_check",
    "monomial_basis_elems",
]


def lie_algebra_boundary(a: LieAlgebroid, u: GradedElem) -> GradedElem:
    """Classical chain boundary of a Lie algebra, as the pairing adjoint of d.

    Only defined over an empty base, where the pairing is scalar-valued and
    the adjoint is again a local operator.
    """
    if a.base_dim != 0:
        raise ValueError("chain boundary adjoint needs an empty base")
    if u.side != A_SIDE:
        raise ValueError("chain boundary acts on side A elements")
    deg = u.degree - 1
    comps = {}
    for target in basis_tuples(a.rank, deg):
        eps = GradedElem(
            DUAL_SIDE, deg, a.rank, a.variables, {target: Poly.constant(1, a.variables)}
        )
        val = pairing(differential(a, eps), u)
        if not val.is_zero:
            comps[target] = val
    return GradedElem(A_SIDE, deg, a.rank, a.variables, comps)


# -- weight-graded complexes ----------------------------------------------


def _exponents(m, w):
    if w < 0:
        return []
    if m == 0:
        return [()] if w == 0 else []
    if m == 1:
        return [(w,)]
    out = []
    for first in range(w + 1):
        for rest in _exponents(m - 1, w - first):
            out.append((first,) + rest)
    return out


def monomial_basis_elems(variables, rank, side, degree, weight):
    """All basis monomials x^beta e_I (or eps_I) of one degree and weight."""
    out = []
    for idx in basis_tuples(rank, degree):
        for expo in _exponents(len(variables), weight):
            coeff = Poly(variables, {expo: Fraction(1)})
            out.append(GradedElem(side, degree, rank, variables, {idx: coeff}))
    return out


@dataclass
class BettiTable:
    """Homology dimensions per (exterior degree k, weight w), exact."""

    entries: dict
    rank: int
    max_weight: int
    capped: bool
    shift: int | None
    operator_tag: str = ""

    @property
    def homogeneous(self) -> bool:
        return not self.capped

    def entry(self, k, w=0) -> int:
        return self.entries.get((k, w), 0)

    def to_text(self) -> str:
        lines = []
        mode = (
            "homogeneous, shift %d" % self.shift
            if self.homogeneous
            else "capped at weight %d" % self.max_weight
        )
        lines.append("%s (%s)" % (self.operator_tag or "betti", mode))
        header = "      " + "".join("w=%-5d" % w for w in range(self.max_weight + 1))
        lines.append(header)
        for k in range(self.rank + 1):
            row = "k=%-3d " % k
            row += "".join("%-7d" % self.entry(k, w) for w in range(self.max_weight + 1))
            lines.append(row)
        return "\n".join(lines)

    def to_json(self):
        records = []
        for k in range(self.rank + 1):
            for w in range(self.max_weight + 1):
                records.append({"k": k, "w": w, "dim": self.entry(k, w)})
        return {
            "operator": self.operator_tag,
            "homogeneous": self.homogeneous,
            "capped": self.capped,
            "shift": self.shift,
            "max_weight": self.max_weight,
            "records": records,
        }


class WeightedComplex:
    """Weight windows and their memoised ranks for one operator of fixed
    exterior-degree step (the window rule is in the module docstring)."""

    def __init__(
        self,
        variables,
        rank,
        side,
        op,
        k_step,
        max_weight,
        operator_tag="",
        force_capped=False,
    ):
        if k_step not in (1, -1):
            raise ValueError("k_step must be +1 or -1")
        self.variables = tuple(variables)
        self.rank = rank
        self.side = side
        self.op = op
        self.k_step = k_step
        self.max_weight = 0 if not self.variables else max_weight
        self.operator_tag = operator_tag
        self._basis_cache = {}
        self._image_cache = {}
        self._rank_cache = {}
        shifts = {
            w_out - w
            for k in range(rank + 1)
            for w in range(self.max_weight + 1)
            for img in self._images(k, w)
            for w_out in img.weight_parts()
        }
        if shifts and max(shifts) > 0:
            raise ValueError(
                "operator raises weight by %d; no finite truncation exists"
                % max(shifts)
            )
        homogeneous = len(shifts) <= 1
        self.shift = min(shifts, default=0) if homogeneous else None
        self.capped = force_capped or not homogeneous
        self.lift = 0 if self.capped else self.shift

    def _window(self, w):
        return range(w + 1) if self.capped else (w,)

    def _basis(self, k, w):
        key = (k, w)
        if key not in self._basis_cache:
            self._basis_cache[key] = [
                (idx, expo)
                for idx in basis_tuples(self.rank, k)
                for expo in _exponents(len(self.variables), w)
            ]
        return self._basis_cache[key]

    def _images(self, k, w):
        key = (k, w)
        if key not in self._image_cache:
            self._image_cache[key] = [
                self.op(elem)
                for elem in monomial_basis_elems(
                    self.variables, self.rank, self.side, k, w
                )
            ]
        return self._image_cache[key]

    def _rank(self, k, w):
        """Rank of the operator out of the window of (k, w)."""
        key = (k, w)
        if key not in self._rank_cache:
            dst = [
                mono
                for wp in self._window(w + self.lift)
                for mono in self._basis(k + self.k_step, wp)
            ]
            index_map = {mono: pos for pos, mono in enumerate(dst)}
            rows = []
            for wp in self._window(w):
                for img in self._images(k, wp):
                    row = [Fraction(0)] * len(dst)
                    for idx, poly in img.components.items():
                        for expo, c in poly.terms.items():
                            pos = index_map.get((idx, expo))
                            if pos is None:
                                raise ValueError(
                                    "operator image leaves the expected slice"
                                )
                            row[pos] = row[pos] + c
                    rows.append(row)
            self._rank_cache[key] = matrix_rank(rows) if rows and dst else 0
        return self._rank_cache[key]

    def table(self) -> BettiTable:
        entries = {}
        for k in range(self.rank + 1):
            for w in range(self.max_weight + 1):
                dim = sum(len(self._basis(k, wp)) for wp in self._window(w))
                rank_out = self._rank(k, w)
                rank_in = self._rank(k - self.k_step, w - self.lift)
                entries[(k, w)] = dim - rank_out - rank_in
        return BettiTable(
            entries=entries,
            rank=self.rank,
            max_weight=self.max_weight,
            capped=self.capped,
            shift=None if self.capped else self.shift,
            operator_tag=self.operator_tag,
        )


def betti_table(
    variables, rank, side, op, k_step, max_weight, operator_tag="", force_capped=False
) -> BettiTable:
    wc = WeightedComplex(
        variables, rank, side, op, k_step, max_weight, operator_tag, force_capped
    )
    return wc.table()


def cohomology_betti(a: LieAlgebroid, max_weight=4) -> BettiTable:
    return betti_table(
        a.variables,
        a.rank,
        DUAL_SIDE,
        lambda u: differential(a, u),
        1,
        max_weight,
        "cohomology",
    )


def boundary_betti(conn: TopConnection, max_weight=4, force_capped=False) -> BettiTable:
    a = conn.algebroid
    return betti_table(
        a.variables,
        a.rank,
        A_SIDE,
        lambda u: boundary(conn, u),
        -1,
        max_weight,
        "homology",
        force_capped,
    )


def kb_betti(pi: PoissonStructure, max_weight=4) -> BettiTable:
    return betti_table(
        pi.variables,
        pi.base_dim,
        DUAL_SIDE,
        lambda u: koszul_brylinski(pi, u),
        -1,
        max_weight,
        "kb-homology",
    )


def lichnerowicz_betti(pi: PoissonStructure, max_weight=4) -> BettiTable:
    return betti_table(
        pi.variables,
        pi.base_dim,
        A_SIDE,
        lambda u: lichnerowicz(pi, u),
        1,
        max_weight,
        "poisson-cohomology",
    )


def _mismatches(left, right, left_key, right_key, reverse=False, top_w=None):
    """Slots (k, w) where two tables differ, as records keyed k, w and the names.

    ``right`` is read at degree rank - k when ``reverse`` is set.  Weights run
    up to ``top_w``, by default up to the cap of ``left``.
    """
    top_w = left.max_weight if top_w is None else top_w
    out = []
    for k in range(left.rank + 1):
        for w in range(top_w + 1):
            mine = left.entry(k, w)
            theirs = right.entry(left.rank - k if reverse else k, w)
            if mine != theirs:
                out.append({"k": k, "w": w, left_key: mine, right_key: theirs})
    return out


def duality_check(a: LieAlgebroid, max_weight=4):
    """Compare homology of the trivial flat connection with reversed cohomology."""
    conn0 = TopConnection(a)
    hom = boundary_betti(conn0, max_weight)
    coh = cohomology_betti(a, max_weight)
    mismatches = _mismatches(hom, coh, "homology", "cohomology", reverse=True)
    return {"ok": not mismatches, "homology": hom, "cohomology": coh, "mismatches": mismatches}


# -- star conjugation ------------------------------------------------------


def star_conjugation_check(a: LieAlgebroid, vol: Volume, probes=None, max_weight=2):
    """Check the boundary of the trivial connection against star conjugation.

    The claim: on every element, the boundary equals minus the star of the
    differential of the inverse star.  The boundary side is computed without
    stars, frame-wise: the torsion-free connection with Christoffel data half
    the structure coefficients has the operator ``torsion_free_generator``;
    adding the contraction by its trace form moves that operator to the
    trivial top connection, and the sign of the complementary degree turns
    it into the boundary.  Runs on the supplied probes plus the full monomial
    basis up to the given weight in every degree.
    """
    n = a.rank
    half = [
        [[a.structure_coeff(i, j, k) / 2 for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    nabla = AConnectionOnA(a, half)
    tau = nabla.induced_top_connection().alpha
    todo = list(probes or [])
    top_w = 0 if a.base_dim == 0 else max_weight
    for k in range(n + 1):
        for w in range(top_w + 1):
            todo.extend(monomial_basis_elems(a.variables, n, A_SIDE, k, w))
    failures = []
    for pos, u in enumerate(todo):
        lhs = torsion_free_generator(nabla, u) + contract_or_zero(tau, u)
        if (n - u.degree) % 2:
            lhs = -lhs
        if u.degree == 0:
            # the conjugated route vanishes identically here: the inverse
            # star of a coefficient is top degree, and its differential has
            # no degree n + 1 target
            residual = lhs
        else:
            rhs = -star(differential(a, star_inv(u, vol)), vol)
            residual = lhs - rhs
        if not residual.is_zero:
            failures.append({"probe": pos + 1, "residual": str(residual)})
    return {"ok": not failures, "count": len(todo), "failures": failures}


# -- Poisson operators -----------------------------------------------------


def koszul_brylinski(pi: PoissonStructure, omega: GradedElem) -> GradedElem:
    """Degree -1 operator on base forms: commutator of bivector contraction with d."""
    if omega.side != DUAL_SIDE:
        raise ValueError("operator acts on side A* base forms")
    t = tangent_algebroid(pi.variables)
    pi_elem = pi.as_elem()
    return contract_or_zero(pi_elem, differential(t, omega)) - differential(
        t, contract_or_zero(pi_elem, omega)
    )


def modular_vector_field(pi: PoissonStructure, vol_coeff=1) -> GradedElem:
    """Vector field measuring how Hamiltonian flows distort the volume form.

    The coefficient on the mu-th coordinate field is the top-form ratio of
    the derivative of the volume along the Hamiltonian field of the mu-th
    coordinate.  Constant volume rescalings cancel.
    """
    c = Fraction(vol_coeff)
    if c == 0:
        raise ValueError("volume coefficient must be nonzero")
    m = pi.base_dim
    t = tangent_algebroid(pi.variables)
    omega = top_elem(m, pi.variables, DUAL_SIDE, c)
    full = tuple(range(m))
    comps = {}
    for mu in range(m):
        ham = contract(t.coframe(mu), pi.as_elem())
        lie = differential(t, contract_or_zero(ham, omega))
        val = lie.coefficient(full) / c
        if not val.is_zero:
            comps[(mu,)] = val
    return GradedElem(A_SIDE, 1, m, pi.variables, comps)


def _default_form_probes(pi: PoissonStructure, max_weight=2):
    out = []
    for k in range(pi.base_dim + 1):
        for w in range(max_weight + 1):
            out.extend(
                monomial_basis_elems(pi.variables, pi.base_dim, DUAL_SIDE, k, w)
            )
    return out


def modular_relation_check(pi: PoissonStructure, probes=None, vol_coeff=1):
    """Compare the Koszul-Brylinski operator with the flat-volume boundary.

    The difference should be contraction by the modular vector field up to a
    single global sign; the sign must be the same on every probe.  A zero
    modular field leaves the sign undetermined and requires the difference to
    vanish identically.
    """
    cot = cotangent_algebroid(pi)
    conn0 = TopConnection(cot)
    nu = modular_vector_field(pi, vol_coeff)
    todo = list(probes) if probes is not None else _default_form_probes(pi)
    sign = None
    failures = []
    for pos, omega in enumerate(todo):
        kb = koszul_brylinski(pi, omega)
        d0 = as_side(generating_operator(conn0, as_side(omega, A_SIDE)), DUAL_SIDE)
        delta = kb - d0
        hook = contract_or_zero(nu, omega)
        if hook.is_zero:
            if not delta.is_zero:
                failures.append(
                    {"probe": pos + 1, "reason": "difference not of contraction form",
                     "residual": str(delta)}
                )
            continue
        if delta == hook:
            found = 1
        elif delta == -hook:
            found = -1
        else:
            failures.append(
                {"probe": pos + 1, "reason": "difference not proportional to the hook",
                 "residual": str(delta)}
            )
            continue
        if sign is None:
            sign = found
        elif sign != found:
            failures.append(
                {"probe": pos + 1, "reason": "sign flips across probes",
                 "residual": str(delta)}
            )
    return {
        "ok": not failures,
        "sign": sign,
        "modular_field": str(nu),
        "count": len(todo),
        "failures": failures,
    }


def unimodular_duality_check(pi: PoissonStructure, max_weight=4):
    """Compare Poisson homology with reverse-degree Poisson cohomology.

    Only meaningful when the modular field vanishes; otherwise the check is
    skipped and the modular field reported.
    """
    nu = modular_vector_field(pi)
    if not nu.is_zero:
        return {
            "ok": True,
            "skipped": True,
            "modular_field": str(nu),
            "mismatches": [],
        }
    hom = kb_betti(pi, max_weight)
    coh = lichnerowicz_betti(pi, max_weight)
    mismatches = _mismatches(hom, coh, "homology", "cohomology", reverse=True)
    return {
        "ok": not mismatches,
        "skipped": False,
        "modular_field": str(nu),
        "homology": hom,
        "cohomology": coh,
        "mismatches": mismatches,
    }


def anticommutator_defect_check(pi: PoissonStructure, probes, modular_sign=None):
    """Measure the anticommutator of the flat-volume operator with the
    bivector bracket differential against the modular derivative.

    Three comparisons per probe: against the derivation oracle (bracket with
    the operator image of the bivector), against the modular derivative with
    a sign determined uniformly from the probes themselves, and, when
    ``modular_sign`` is supplied, against the modular derivative scaled by
    that externally recorded sign.
    """
    t = tangent_algebroid(pi.variables)
    conn0 = TopConnection(t)
    nu = modular_vector_field(pi)
    d0_pi = generating_operator(conn0, pi.as_elem())
    oracle_failures = []
    own_sign = None
    own_failures = []
    literal_failures = []
    for pos, u in enumerate(probes):
        first = lichnerowicz(pi, generating_operator(conn0, u))
        second = generating_operator(conn0, lichnerowicz(pi, u))
        defect = first + second
        oracle = schouten(t, d0_pi, u)
        if defect != oracle:
            oracle_failures.append({"probe": pos + 1, "residual": str(defect - oracle)})
        lie_nu = schouten(t, nu, u)
        if lie_nu.is_zero:
            if not defect.is_zero:
                own_failures.append(
                    {"probe": pos + 1, "reason": "defect nonzero where the modular "
                     "derivative vanishes", "residual": str(defect)}
                )
        else:
            if defect == lie_nu:
                found = 1
            elif defect == -lie_nu:
                found = -1
            else:
                own_failures.append(
                    {"probe": pos + 1, "reason": "defect not proportional to the "
                     "modular derivative", "residual": str(defect)}
                )
                found = None
            if found is not None:
                if own_sign is None:
                    own_sign = found
                elif own_sign != found:
                    own_failures.append(
                        {"probe": pos + 1, "reason": "sign flips across probes",
                         "residual": str(defect)}
                    )
        if modular_sign is not None:
            scaled = lie_nu if modular_sign == 1 else -lie_nu
            if defect != scaled:
                literal_failures.append(
                    {"probe": pos + 1, "residual": str(defect - scaled)}
                )
    return {
        "oracle_ok": not oracle_failures,
        "own_sign": own_sign,
        "own_ok": not own_failures,
        "literal_ok": modular_sign is not None and not literal_failures,
        "modular_field": str(nu),
        "operator_of_bivector": str(d0_pi),
        "oracle_failures": oracle_failures,
        "own_failures": own_failures,
        "literal_failures": literal_failures,
    }


def homotopy_invariance_check(a: LieAlgebroid, alpha1: GradedElem, alpha2: GradedElem, max_weight=4):
    """Compare capped homology tables of two flat connection forms.

    The forms must both be flat; their difference plays the role of an exact
    perturbation of degree one more than its coefficients.  Tables are
    compared in the stable window, weights up to the cap minus that degree.
    """
    r1 = differential(a, alpha1)
    r2 = differential(a, alpha2)
    if not r1.is_zero or not r2.is_zero:
        return {
            "ok": False,
            "inconclusive": True,
            "reason": "a connection form is not flat",
            "mismatches": [],
        }
    delta = alpha2 - alpha1
    deg_g = delta.max_coeff_degree() + 1 if not delta.is_zero else 0
    window = (0 if a.base_dim == 0 else max_weight) - deg_g
    if window < 0:
        return {
            "ok": False,
            "inconclusive": True,
            "reason": "cap too small for the perturbation degree",
            "mismatches": [],
        }
    try:
        t1 = boundary_betti(TopConnection(a, alpha1), max_weight, force_capped=True)
        t2 = boundary_betti(TopConnection(a, alpha2), max_weight, force_capped=True)
    except ValueError as exc:
        return {
            "ok": False,
            "inconclusive": True,
            "reason": str(exc),
            "mismatches": [],
        }
    mismatches = _mismatches(t1, t2, "first", "second", top_w=min(window, t1.max_weight))
    return {
        "ok": not mismatches,
        "inconclusive": False,
        "window": window,
        "first": t1,
        "second": t2,
        "mismatches": mismatches,
    }
