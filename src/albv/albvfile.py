"""Reader for the .albv problem file format.

A file is line oriented.  Blank lines and lines whose first nonblank
character is ``#`` are skipped.  A line ``[name]`` opens a section; the
sections are ``algebroid``, ``poisson``, ``connection`` and ``volume``.
Every other line is ``key = value`` with the value in JSON syntax: lists are
bracketed, polynomials are double-quoted strings, integers are bare.  Frame
and coordinate indices in structure and bivector entries are 1-based.

Each literal is read once, by ``poly.parse_poly``, into the value a
``Document`` keeps: a ``Poly``, or for the volume coefficient the exact
number, a constant over no variables.  So every number in a file is spelled
in the one literal grammar: ``p/q`` rationals, no decimals or exponents.

Syntax and shape problems raise DocumentError with the offending line
number; so do a rank or a number of base variables above ``MAX_RANK``, a
JSON boolean where an integer is expected (JSON's ``true`` would read as 1),
and a JSON value the reader cannot read (an integer above the interpreter's
digit limit, nesting deeper than its recursion limit); ``load`` raises it,
with no line, for a file that is not UTF-8 text.  Mathematical
validity (Jacobi, anchor compatibility, bivector self-commutation) is
checked by the build methods, which raise ValueError, so a caller can load a
broken structure on purpose and inspect it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebroid import LieAlgebroid, PoissonStructure, custom_algebroid, tangent_algebroid
from .bv import TopConnection
from .exterior import DUAL_SIDE, GradedElem, Volume
from .poly import PolyParseError, parse_poly

__all__ = ["Document", "DocumentError", "MAX_RANK"]

# the largest rank and number of base variables a file may declare: the
# structure gate checks C(rank, 3) Jacobi triples, 9,880 at rank 40
MAX_RANK = 40


class DocumentError(Exception):
    """Problem with the text of an .albv file; carries a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


_SECTION_KEYS = {
    "algebroid": ("kind", "base_vars", "rank", "anchor", "structure"),
    "poisson": ("terms",),
    "connection": ("alpha",),
    "volume": ("coeff",),
}

_KINDS = ("tangent", "lie_algebra", "custom")


@dataclass
class Document:
    """Parsed .albv content: the values the file's literals denote, each
    read once.  ``anchor`` is ``rank`` rows of Polys, ``structure`` holds
    1-based ``(i, j, k, Poly)`` entries and ``poisson`` ``(i, j, Poly)``
    ones, ``alpha`` is ``rank`` Polys, and ``volume`` the exact coefficient,
    an int or a Fraction."""

    kind: str
    base_vars: tuple = ()
    rank: int = 0
    anchor: tuple | None = None
    structure: tuple = ()
    poisson: tuple | None = None
    alpha: tuple | None = None
    volume: object = None

    # -- reading -----------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Document":
        sections = {}
        current = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if name not in _SECTION_KEYS:
                    raise DocumentError("unknown section %r" % name, lineno)
                if name in sections:
                    raise DocumentError("duplicate section %r" % name, lineno)
                sections[name] = {}
                current = name
                continue
            if "=" not in line:
                raise DocumentError("expected 'key = value' or a section header", lineno)
            if current is None:
                raise DocumentError("entry before any section header", lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _SECTION_KEYS[current]:
                raise DocumentError(
                    "unknown key %r in section %r" % (key, current), lineno
                )
            if key in sections[current]:
                raise DocumentError("duplicate key %r" % key, lineno)
            try:
                parsed = json.loads(value.strip())
            except (ValueError, RecursionError) as exc:
                # a JSONDecodeError, an integer above the interpreter's digit
                # limit, or nesting deeper than its recursion limit
                raise DocumentError(
                    "bad value for %r: %s" % (key, exc), lineno
                ) from exc
            sections[current][key] = (parsed, lineno)
        return cls._from_sections(sections)

    @classmethod
    def load(cls, path) -> "Document":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise DocumentError("not UTF-8 text: %s" % exc) from exc
        return cls.parse(text)

    @classmethod
    def _from_sections(cls, sections) -> "Document":
        if "algebroid" not in sections:
            raise DocumentError("missing [algebroid] section")
        alg = sections["algebroid"]

        def take(section, key, default=None):
            return section.get(key, (default, None))

        kind, kind_line = take(alg, "kind")
        if kind not in _KINDS:
            raise DocumentError(
                "kind must be one of %s" % ", ".join(_KINDS), kind_line
            )
        base_vars, bv_line = take(alg, "base_vars", [])
        if not isinstance(base_vars, list) or not all(
            isinstance(v, str) and v for v in base_vars
        ):
            raise DocumentError("base_vars must be a list of names", bv_line)
        if len(set(base_vars)) != len(base_vars):
            raise DocumentError("base_vars has a repeated name", bv_line)
        base_vars = tuple(base_vars)
        m = len(base_vars)
        if m > MAX_RANK:
            raise DocumentError(
                "base_vars has %d names, above the limit of %d" % (m, MAX_RANK), bv_line
            )

        rank_val, rank_line = take(alg, "rank")
        if kind == "tangent":
            if not base_vars:
                raise DocumentError("tangent kind needs base_vars", kind_line)
            if rank_val is not None and (not _is_int(rank_val) or rank_val != m):
                raise DocumentError(
                    "tangent rank is the number of base_vars", rank_line
                )
            rank = m
        else:
            if not _is_int(rank_val) or rank_val < 1:
                raise DocumentError("rank must be a positive integer", rank_line)
            if rank_val > MAX_RANK:
                raise DocumentError(
                    "rank %d is above the limit of %d" % (rank_val, MAX_RANK), rank_line
                )
            rank = rank_val
        if kind == "lie_algebra" and base_vars:
            raise DocumentError("lie_algebra kind has an empty base", bv_line)

        anchor_val, anchor_line = take(alg, "anchor")
        if kind == "custom":
            if anchor_val is None:
                raise DocumentError("custom kind needs an anchor matrix", kind_line)
            if (
                not isinstance(anchor_val, list)
                or len(anchor_val) != rank
                or any(
                    not isinstance(row, list) or len(row) != m for row in anchor_val
                )
            ):
                raise DocumentError(
                    "anchor must be a %d x %d matrix of polynomial strings"
                    % (rank, m),
                    anchor_line,
                )
            anchor = tuple(
                tuple(_check_poly_string(entry, base_vars, anchor_line) for entry in row)
                for row in anchor_val
            )
        elif anchor_val is not None:
            raise DocumentError(
                "%s kind derives its anchor; drop the anchor key" % kind, anchor_line
            )
        else:
            anchor = None

        structure_val, structure_line = take(alg, "structure", [])
        if kind == "tangent" and structure_val:
            raise DocumentError(
                "tangent kind has no structure entries", structure_line
            )
        structure = _read_indexed(
            structure_val, structure_line, ("i", "j", "k", "c"), rank, base_vars, "structure"
        )

        poisson = None
        if "poisson" in sections:
            terms_val, terms_line = take(sections["poisson"], "terms", [])
            if not base_vars:
                raise DocumentError(
                    "[poisson] needs base coordinates", terms_line
                )
            poisson = _read_indexed(
                terms_val, terms_line, ("i", "j", "c"), m, base_vars, "bivector"
            )

        alpha = None
        if "connection" in sections:
            alpha_val, alpha_line = take(sections["connection"], "alpha")
            if not isinstance(alpha_val, list) or len(alpha_val) != rank:
                raise DocumentError(
                    "alpha must list %d polynomial strings" % rank, alpha_line
                )
            alpha = tuple(
                _check_poly_string(entry, base_vars, alpha_line) for entry in alpha_val
            )

        volume = None
        if "volume" in sections:
            coeff_val, coeff_line = take(sections["volume"], "coeff")
            if _is_int(coeff_val):
                coeff_val = str(coeff_val)
            if not isinstance(coeff_val, str):
                raise DocumentError(
                    "coeff must be a rational in a string", coeff_line
                )
            try:
                volume = parse_poly(coeff_val, ()).constant_value()
            except PolyParseError as exc:
                raise DocumentError(
                    "coeff is not a rational: %s" % exc, coeff_line
                ) from exc
            if volume == 0:
                raise DocumentError("volume coefficient must be nonzero", coeff_line)

        return cls(
            kind=kind,
            base_vars=base_vars,
            rank=rank,
            anchor=anchor,
            structure=structure,
            poisson=poisson,
            alpha=alpha,
            volume=volume,
        )

    # -- building ----------------------------------------------------------

    def build_algebroid(self, check=True) -> LieAlgebroid:
        """The file's structure; a ``lie_algebra`` is the custom kind over
        an empty base, with one empty anchor row per frame section."""
        if self.kind == "tangent":
            a = tangent_algebroid(self.base_vars)
        else:
            structure = {}
            for i, j, k, c in self.structure:
                structure.setdefault((i - 1, j - 1), {})[k - 1] = c
            anchor = self.anchor or [()] * self.rank
            a = custom_algebroid(self.base_vars, self.rank, anchor, structure, check=False)
        if check:
            a.validate().raise_if_failed("structure checks failed")
        return a

    def build_poisson(self, check=True) -> PoissonStructure | None:
        if self.poisson is None:
            return None
        comps = {(i - 1, j - 1): c for i, j, c in self.poisson}
        return PoissonStructure(self.base_vars, comps, check=check)

    def build_connection(self, a: LieAlgebroid) -> TopConnection:
        if self.alpha is None:
            return TopConnection(a)
        comps = {(pos,): c for pos, c in enumerate(self.alpha)}
        form = GradedElem(DUAL_SIDE, 1, a.rank, a.variables, comps)
        return TopConnection(a, form)

    def build_volume(self, a: LieAlgebroid) -> Volume:
        return a.volume(1 if self.volume is None else self.volume)


_EXCERPT = 30  # characters quoted on each side of the error in a long entry


def _is_int(value):
    """A JSON integer; ``true`` and ``false`` parse to ``bool``, an ``int``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_poly_string(entry, variables, line):
    """The Poly that the JSON string ``entry`` denotes over ``variables``."""
    if not isinstance(entry, str):
        raise DocumentError("polynomials must be quoted strings", line)
    try:
        return parse_poly(entry, variables)
    except PolyParseError as exc:
        shown = repr(entry)
        if len(entry) > 2 * _EXCERPT:
            lo, hi = max(exc.position - _EXCERPT, 0), exc.position + _EXCERPT
            shown = "%s%r%s" % ("..." * (lo > 0), entry[lo:hi], "..." * (hi < len(entry)))
        raise DocumentError("bad polynomial %s: %s" % (shown, exc), line) from exc


def _read_indexed(value, line, keys, bound, variables, what):
    """Entries like {"i": 1, "j": 2, "k": 2, "c": "1"}; indices 1-based."""
    if value is None:
        value = []
    if not isinstance(value, list):
        raise DocumentError("%s entries must form a list" % what, line)
    out = []
    seen = set()
    for entry in value:
        if not isinstance(entry, dict) or set(entry) != set(keys):
            raise DocumentError(
                "each %s entry needs exactly the keys %s"
                % (what, ", ".join(keys)),
                line,
            )
        idxs = []
        for key in keys[:-1]:
            idx = entry[key]
            if not _is_int(idx) or not 1 <= idx <= bound:
                raise DocumentError(
                    "%s index %r out of range 1..%d" % (what, idx, bound), line
                )
            idxs.append(idx)
        if idxs[1] <= idxs[0]:
            raise DocumentError("indices must satisfy i<j", line)
        c = _check_poly_string(entry[keys[-1]], variables, line)
        ident = tuple(idxs)
        if ident in seen:
            raise DocumentError("duplicate %s entry for %s" % (what, ident), line)
        seen.add(ident)
        out.append(ident + (c,))
    return tuple(out)
