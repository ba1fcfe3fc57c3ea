"""Plain-text file formats.

One item per line; ``#`` starts a comment; blank lines are ignored.

* ``v <id>`` declares a vertex; declaration order is the vertex order.
* ``s <id> <id> ...`` declares a maximal simplex (its faces are implied).
* ``c <id> <num/den> ...`` assigns rational coordinates to a vertex.
* ``t <id> <id>`` declares an involution pair (fixed vertices: ``t a a``);
  a vertex may appear in one pair only, which may be repeated.
* ``m <src-id> <dst-id>`` maps a source vertex to a target vertex.
* ``g <id> <num/den> ...`` assigns lift values to a vertex.
* ``w <pair-id> <num/den> ...`` assigns witness values to a vertex pair,
  where a pair id is the two vertex tokens joined by a comma.

A map file holds three sections introduced by the bare lines ``source``,
``target`` and ``map``; the two complex sections accept v/s/c/t lines and
the map section accepts m lines.  A star-boundary file holds ``s`` lines
naming simplices of the source complex and ``g`` lines with boundary lift
values.  All rationals are written ``numerator/denominator``; both ``3/4``
and ``3`` parse.  Vertex ids are whitespace-free tokens without commas;
generated composite ids (from subdivisions and pair constructions) are
flattened with ``+``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .complexes import SimplicialComplex
from .errors import ParseError
from .maps import SemiLinearMap, SimplicialMap


_NOT_IN_TOKEN = re.compile(r"[\s,]")  # \s matches exactly the str.isspace characters


def id_token(v) -> str:
    """Printable token for a vertex id; composite ids flatten with ``+``."""
    if isinstance(v, str):
        tok = v
    elif isinstance(v, (tuple, list)):
        tok = "+".join(id_token(x) for x in v)
    else:
        tok = str(v)
    if not tok or _NOT_IN_TOKEN.search(tok):
        raise ParseError(f"vertex id {v!r} does not form a valid token")
    return tok


def pair_token(u, v) -> str:
    return f"{id_token(u)},{id_token(v)}"


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(tok: str, where: str) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad rational {tok!r}") from exc


def _parse_vector(tokens: Sequence[str], dim: Optional[int], where: str) -> Tuple[tuple, int]:
    """The rationals of one vector line, checked against the dimension ``dim``
    of the lines before it (``None`` for the first), and its dimension."""
    vec = tuple(parse_fraction(t, where) for t in tokens)
    if dim is not None and len(vec) != dim:
        raise ParseError(f"{where}: expected {dim} coordinates, got {len(vec)}")
    return vec, len(vec)


@dataclass
class ComplexDocument:
    """A parsed complex with optional coordinates and involution table."""

    complex: SimplicialComplex
    coordinates: Optional[Dict] = None
    involution: Optional[Dict] = None


@dataclass
class MapDocument:
    source: ComplexDocument
    target: ComplexDocument
    map: SimplicialMap


def _logical_lines(text: str) -> List[Tuple[int, List[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((lineno, body.split()))
    return out


class _ComplexAccumulator:
    def __init__(self, section: str):
        self.section = section
        self.vertices: List[str] = []
        self.seen: set = set()
        self.simplices: List[Tuple[str, ...]] = []
        self.coords: Dict[str, tuple] = {}
        self.involution: Dict[str, str] = {}

    def feed(self, lineno: int, parts: List[str]) -> None:
        kind, args = parts[0], parts[1:]
        where = f"line {lineno} ({self.section})"
        if kind == "v":
            if len(args) != 1:
                raise ParseError(f"{where}: v takes exactly one id")
            if args[0] in self.seen:
                raise ParseError(f"{where}: vertex {args[0]!r} declared twice")
            self.seen.add(args[0])
            self.vertices.append(args[0])
        elif kind == "s":
            if not args:
                raise ParseError(f"{where}: s needs at least one id")
            self._known(args, where)
            self.simplices.append(tuple(args))
        elif kind == "c":
            if len(args) < 2:
                raise ParseError(f"{where}: c needs an id and coordinates")
            self._known(args[:1], where)
            self.coords[args[0]] = tuple(parse_fraction(t, where) for t in args[1:])
        elif kind == "t":
            if len(args) != 2:
                raise ParseError(f"{where}: t takes exactly two ids")
            self._known(args, where)
            for v, w in (args, args[::-1]):
                if self.involution.setdefault(v, w) != w:
                    raise ParseError(
                        f"{where}: t pairs {v!r} with {w!r}, but an earlier t line"
                        f" pairs it with {self.involution[v]!r}")
        else:
            raise ParseError(f"{where}: unknown line kind {kind!r}")

    def _known(self, ids: Sequence[str], where: str) -> None:
        for v in ids:
            if v not in self.seen:
                raise ParseError(f"{where}: vertex {v!r} used before its v line")

    def document(self) -> ComplexDocument:
        if not self.vertices:
            raise ParseError(f"{self.section}: no vertices declared")
        c = SimplicialComplex.from_maximal(self.vertices, self.simplices)
        coords = None
        if self.coords:
            missing = [v for v in self.vertices if v not in self.coords]
            if missing:
                raise ParseError(
                    f"{self.section}: coordinates missing for {missing[:3]}"
                )
            coords = self.coords
        invol = None
        if self.involution:
            invol = {v: self.involution.get(v, v) for v in self.vertices}
        return ComplexDocument(complex=c, coordinates=coords, involution=invol)


def parse_complex(text: str, section: str = "complex") -> ComplexDocument:
    acc = _ComplexAccumulator(section)
    for lineno, parts in _logical_lines(text):
        acc.feed(lineno, parts)
    return acc.document()


def parse_map(text: str) -> MapDocument:
    sections: Dict[str, _ComplexAccumulator] = {}
    vertex_map: Dict[str, str] = {}
    current: Optional[str] = None
    for lineno, parts in _logical_lines(text):
        if parts[0] in ("source", "target", "map") and len(parts) == 1:
            current = parts[0]
            if current != "map":
                if current in sections:
                    raise ParseError(f"line {lineno}: duplicate section {current!r}")
                sections[current] = _ComplexAccumulator(current)
            continue
        if current is None:
            raise ParseError(f"line {lineno}: content before any section header")
        if current == "map":
            if parts[0] != "m" or len(parts) != 3:
                raise ParseError(f"line {lineno} (map): expected `m <src> <dst>`")
            if parts[1] in vertex_map:
                raise ParseError(f"line {lineno} (map): vertex {parts[1]!r} mapped twice")
            vertex_map[parts[1]] = parts[2]
        else:
            sections[current].feed(lineno, parts)
    for name in ("source", "target"):
        if name not in sections:
            raise ParseError(f"missing section {name!r}")
    if not vertex_map:
        raise ParseError("missing section 'map' or it is empty")
    src = sections["source"].document()
    tgt = sections["target"].document()
    missing = [v for v in src.complex.vertices if v not in vertex_map]
    if missing:
        raise ParseError(f"map does not cover source vertices {missing[:3]}")
    extra = [v for v in vertex_map if v not in src.complex.rank]
    if extra:
        raise ParseError(f"map lines for unknown source vertices {extra[:3]}")
    try:
        f = SimplicialMap(src.complex, tgt.complex, vertex_map)
    except Exception as exc:
        raise ParseError(f"map is not simplicial: {exc}") from exc
    return MapDocument(source=src, target=tgt, map=f)


def parse_lift(text: str, source: SimplicialComplex) -> SemiLinearMap:
    values: Dict[str, tuple] = {}
    dim = None
    for lineno, parts in _logical_lines(text):
        where = f"line {lineno} (lift)"
        if parts[0] != "g" or len(parts) < 3:
            raise ParseError(f"{where}: expected `g <vertex> <num/den> ...`")
        v = parts[1]
        if v not in source.rank:
            raise ParseError(f"{where}: unknown source vertex {v!r}")
        if v in values:
            raise ParseError(f"{where}: vertex {v!r} assigned twice")
        vec, dim = _parse_vector(parts[2:], dim, where)
        values[v] = vec
    missing = [v for v in source.vertices if v not in values]
    if missing:
        raise ParseError(f"lift values missing for vertices {missing[:3]}")
    return SemiLinearMap(source, values, out_dim=dim)


def parse_witness(text: str) -> Dict[Tuple[str, str], tuple]:
    """Witness values keyed by vertex pairs (tokens split at the comma)."""
    values: Dict[Tuple[str, str], tuple] = {}
    dim = None
    for lineno, parts in _logical_lines(text):
        where = f"line {lineno} (witness)"
        if parts[0] != "w" or len(parts) < 3:
            raise ParseError(f"{where}: expected `w <pair-id> <num/den> ...`")
        if parts[1].count(",") != 1:
            raise ParseError(f"{where}: pair id must be `<u>,<v>`")
        u, v = parts[1].split(",")
        if not u or not v:
            raise ParseError(f"{where}: pair id must be `<u>,<v>`")
        if (u, v) in values:
            raise ParseError(f"{where}: pair {parts[1]!r} assigned twice")
        vec, dim = _parse_vector(parts[2:], dim, where)
        values[(u, v)] = vec
    return values


@dataclass
class StarBoundaryDocument:
    simplices: List[tuple]
    values: Dict[str, tuple]


def parse_star_boundary(text: str, source: SimplicialComplex) -> StarBoundaryDocument:
    simplices: List[tuple] = []
    values: Dict[str, tuple] = {}
    dim = None
    for lineno, parts in _logical_lines(text):
        where = f"line {lineno} (star boundary)"
        if parts[0] == "s":
            ids = parts[1:]
            if not ids:
                raise ParseError(f"{where}: s needs at least one id")
            for v in ids:
                if v not in source.rank:
                    raise ParseError(f"{where}: unknown source vertex {v!r}")
            simplices.append(tuple(ids))
        elif parts[0] == "g":
            if len(parts) < 3:
                raise ParseError(f"{where}: expected `g <vertex> <num/den> ...`")
            v = parts[1]
            if v not in source.rank:
                raise ParseError(f"{where}: unknown source vertex {v!r}")
            if v in values:
                raise ParseError(f"{where}: vertex {v!r} assigned twice")
            vec, dim = _parse_vector(parts[2:], dim, where)
            values[v] = vec
        else:
            raise ParseError(f"{where}: unknown line kind {parts[0]!r}")
    return StarBoundaryDocument(simplices=simplices, values=values)


# -- writers ---------------------------------------------------------------------


def token_table(c: SimplicialComplex) -> Dict:
    """Each vertex of ``c`` mapped to its token, one :func:`id_token` call per
    vertex.  Two vertices that print as one token would be one vertex when
    read back, so they are rejected, naming both ids."""
    table = {v: id_token(v) for v in c.vertices}
    if len(set(table.values())) < len(table):
        first: Dict = {}
        for v, tok in table.items():
            u = first.setdefault(tok, v)
            if u is not v:
                raise ParseError(f"vertex ids {u!r} and {v!r} both print as {tok!r}")
    return table


def _complex_text(doc: ComplexDocument, tok: Dict) -> str:
    c = doc.complex
    lines = [f"v {tok[v]}" for v in c.vertices]
    lines.extend("s " + " ".join(map(tok.__getitem__, s)) for s in c.maximal_simplices())
    if doc.coordinates is not None:
        for v in c.vertices:
            nums = " ".join(format_fraction(x) for x in doc.coordinates[v])
            lines.append(f"c {tok[v]} {nums}")
    if doc.involution is not None:
        done = set()
        for v in c.vertices:
            w = doc.involution[v]
            if v in done or w in done:
                continue
            done.update((v, w))
            lines.append(f"t {tok[v]} {tok[w]}")
    return "\n".join(lines) + "\n"


def write_complex(doc: ComplexDocument) -> str:
    return _complex_text(doc, token_table(doc.complex))


def write_map(
    f: SimplicialMap,
    source: Optional[ComplexDocument] = None,
    target: Optional[ComplexDocument] = None,
) -> str:
    source = source or ComplexDocument(f.source)
    target = target or ComplexDocument(f.target)
    src_tok = token_table(source.complex)
    tgt_tok = token_table(target.complex)
    parts = [
        "source",
        _complex_text(source, src_tok).rstrip("\n"),
        "target",
        _complex_text(target, tgt_tok).rstrip("\n"),
        "map",
    ]
    vm = f.vertex_map
    parts.extend(f"m {src_tok[v]} {tgt_tok[vm[v]]}" for v in f.source.vertices)
    return "\n".join(parts) + "\n"


def write_lift(g: SemiLinearMap) -> str:
    lines = []
    for v in g.source.vertices:
        nums = " ".join(format_fraction(x) for x in g.values[v])
        lines.append(f"g {id_token(v)} {nums}")
    return "\n".join(lines) + "\n"


def write_witness(values: Dict) -> str:
    keys = sorted(values, key=lambda p: (id_token(p[0]), id_token(p[1])))
    lines = []
    for u, v in keys:
        nums = " ".join(format_fraction(x) for x in values[(u, v)])
        lines.append(f"w {pair_token(u, v)} {nums}")
    return "\n".join(lines) + "\n"
