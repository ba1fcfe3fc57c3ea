"""Command-line surface.

Subcommands: ``delta`` (pair complex), ``yang`` (index and quotient homology),
``obstruct`` (equivariant verdict for one k), ``report-thm3`` (full verdict
report at k = source dimension), ``lift`` (certified lift construction),
``verify`` (embedding certificate for a given lift), ``plify`` (subdivision
cascade converting a lift to a PL one), ``stability`` (stable-to-line report),
and ``gen`` (example files).

Exit codes: 0 success; parse failures 64; precondition failures 65, among
them ``lift`` on a map that the equivariant obstruction rules out; internal
contract violations 70; an ``-o FILE`` that cannot be written 73.
``obstruct`` and ``report-thm3`` exit 0 for a positive verdict, 1 for a
negative one and 2 when inconclusive; ``verify`` exits 1 when the
certificate fails.

Each subcommand returns its exit code and its document: the text of its
report, or under ``--json`` (and always for ``stability``, where ``--json``
changes only how errors print) a dict of its own fields.  :func:`main`
writes every document, once, to stdout or to ``-o FILE``; it writes a dict
as sorted, indented JSON, with the schema version and the subcommand's name
added.  Under ``--json`` an error becomes one JSON object on stderr,
``{"schema": 1, "error": {"type", "message", "exit_code"}}``, with the same
exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from . import formats, gf2, mod2
from .complexes import SimplicialComplex
from .double_points import double_point_model
from .errors import OutputError, ParseError, PreconditionError, PremError
from .generators import (
    antipodal_sphere_covering,
    cross_polytope_boundary,
    cycle_cover,
    figure_eight_map,
    fold_path_map,
    lens_covering,
)
from .lift import StarBoundary, construct_lift_3ptfree
from .obstruction import (
    EXISTS,
    NOT_EXISTS,
    equivariant_map_exists,
    prem_report,
    require_positive_k,
)
from .plify import plify as run_plify
from .stability import stable_to_line_report
from .verify import VerificationResult, verify_embedding

SCHEMA = 1

Document = Union[str, Dict]  # a report's text, or its JSON fields


class _Parser(argparse.ArgumentParser):
    """Argument errors are parse errors (exit 64), not argparse's exit 2."""

    def error(self, message):
        raise ParseError(message)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _vec(xs) -> List[str]:
    return [formats.format_fraction(x) for x in xs]


def _verification_payload(res: VerificationResult) -> Dict:
    return {
        "ok": res.ok,
        "simplices_checked": res.simplices_checked,
        "pairs_checked": res.pairs_checked,
        "evidence_kinds": res.kind_counts(),
        "violations": [
            {
                "simplex_x": [formats.id_token(v) for v in w.simplex_x],
                "simplex_y": [formats.id_token(v) for v in w.simplex_y],
                "value": _vec(w.g_value),
            }
            for w in res.violations
        ],
    }


def _verification_lines(res: VerificationResult) -> List[str]:
    kinds = ", ".join(f"{k} {v}" for k, v in sorted(res.kind_counts().items()))
    lines = [
        f"embedding certificate: {'ok' if res.ok else 'FAILED'}",
        f"simplices checked: {res.simplices_checked}",
        f"pairs checked: {res.pairs_checked}",
        f"evidence kinds: {kinds if kinds else 'none'}",
    ]
    for w in res.violations[:5]:
        sx = " ".join(formats.id_token(v) for v in w.simplex_x)
        sy = " ".join(formats.id_token(v) for v in w.simplex_y)
        lines.append(
            f"violation: simplices [{sx}] and [{sy}] share value"
            f" ({' '.join(_vec(w.g_value))})"
        )
    return lines


# -- subcommands -----------------------------------------------------------------


def _cmd_delta(args) -> Tuple[int, Document]:
    doc = formats.parse_map(_read(args.map_file))
    model = double_point_model(doc.map)
    components = len(model.components)
    invariant = sum(model.invariant_flags)
    fvec = model.complex.f_vector()
    if args.json:
        tok = formats.token_table(model.complex)
        return 0, {
            "cells_by_dimension": list(fvec),
            "components": components,
            "invariant_components": invariant,
            "subdivision_rounds": model.subdivision_rounds,
            "vertices": [tok[v] for v in model.complex.vertices],
            "maximal_simplices": [
                [tok[v] for v in s] for s in model.complex.maximal_simplices()
            ],
            "involution": sorted(
                [tok[a], tok[b]]
                for a, b in model.involution.items()
                if model.complex.rank[a] <= model.complex.rank[b]
            ),
        }
    head = [
        f"# pair cells by dimension: {' '.join(map(str, fvec))}",
        f"# components: {components}",
        f"# invariant components: {invariant}",
        f"# subdivision rounds: {model.subdivision_rounds}",
    ]
    body = formats.write_complex(
        formats.ComplexDocument(model.complex, involution=model.involution)
    )
    return 0, "\n".join(head) + "\n" + body


def _cmd_yang(args) -> Tuple[int, Document]:
    doc = formats.parse_map(_read(args.map_file))
    model = double_point_model(doc.map)
    quotient, w1 = model.swap_quotient
    y = mod2.yang_index(quotient, w1)
    fvec = quotient.f_vector()
    betti = gf2.betti_mod2(quotient)
    if args.json:
        return 0, {
            "yang_index": y,
            "quotient_cells_by_dimension": list(fvec),
            "quotient_mod2_betti": list(betti),
        }
    lines = [
        f"yang index: {y}",
        f"quotient cells by dimension: {' '.join(map(str, fvec))}",
        f"quotient mod-2 betti: {' '.join(map(str, betti))}",
    ]
    return 0, "\n".join(lines) + "\n"


def _verdict_exit(answer: str) -> int:
    if answer == EXISTS:
        return 0
    if answer == NOT_EXISTS:
        return 1
    return 2


def _cmd_obstruct(args) -> Tuple[int, Document]:
    require_positive_k(args.k)
    doc = formats.parse_map(_read(args.map_file))
    model = double_point_model(doc.map)
    verdict = equivariant_map_exists(model, args.k)
    code = _verdict_exit(verdict.answer)
    if args.json:
        return code, {
            "k": args.k,
            "verdict": verdict.answer,
            "reason": verdict.reason,
            "pair_complex_dim": verdict.dim,
            "yang_index": verdict.yang,
            "quotient_cells_by_dimension": (
                list(verdict.quotient_f_vector)
                if verdict.quotient_f_vector is not None
                else None
            ),
        }
    lines = [f"verdict: {verdict.answer}", f"reason: {verdict.reason}"]
    if verdict.yang is not None:
        lines.append(f"yang index: {verdict.yang}")
    return code, "\n".join(lines) + "\n"


def _conclusion_text(report) -> str:
    if report.conclusion == "k-prem":
        return f"{report.k}-prem"
    if report.conclusion == "not-k-prem":
        return f"not a {report.k}-prem"
    return "inconclusive"


def _cmd_report_thm3(args) -> Tuple[int, Document]:
    doc = formats.parse_map(_read(args.map_file))
    report = prem_report(doc.map, doc.map.source.dim)
    code = _verdict_exit(report.verdict.answer)
    if args.json:
        return code, {
            "k": report.k,
            "source_dim": report.source_dim,
            "target_dim": report.target_dim,
            "verdict": report.verdict.answer,
            "reason": report.verdict.reason,
            "yang_index": report.verdict.yang,
            "components": report.components,
            "invariant_components": report.invariant_components,
            "invariant_projection_parities": report.invariant_parities,
            "parity_reading": report.parity_reading,
            "codimension_hypothesis": report.hyp_codim,
            "dimension_inequality": report.hyp_metastable,
            "conclusion": report.conclusion,
            "conclusion_text": _conclusion_text(report),
            "subdivision_rounds": report.subdivision_rounds,
            "notes": report.notes,
        }
    parities = (
        " ".join(map(str, report.invariant_parities))
        if report.invariant_parities
        else ("none" if report.invariant_parities == [] else "unavailable")
    )
    lines = [
        f"k: {report.k}",
        f"source dimension: {report.source_dim}",
        f"target dimension: {report.target_dim}",
        f"verdict: {report.verdict.answer}",
        f"reason: {report.verdict.reason}",
        f"yang index: {report.verdict.yang}",
        f"components: {report.components}",
        f"invariant components: {report.invariant_components}",
        f"invariant projection parities: {parities}",
        f"parity reading supported: {report.parity_reading}",
        f"codimension hypothesis (m >= n): {'holds' if report.hyp_codim else 'fails'}",
        "dimension inequality 2(m+k) >= 3(n+1): "
        + ("holds" if report.hyp_metastable else "fails"),
        f"conclusion: {_conclusion_text(report)}",
    ]
    lines += [f"note: {note}" for note in report.notes]
    return code, "\n".join(lines) + "\n"


def _cmd_lift(args) -> Tuple[int, Document]:
    require_positive_k(args.k)
    doc = formats.parse_map(_read(args.map_file))
    alpha = None
    if args.alpha:
        alpha = formats.parse_witness(_read(args.alpha))
    star = None
    if args.star:
        simplices: List[tuple] = []
        values: Dict = {}
        for path in args.star:
            sdoc = formats.parse_star_boundary(_read(path), doc.map.source)
            simplices.extend(sdoc.simplices)
            for v, vec in sdoc.values.items():
                if v in values and values[v] != vec:
                    raise ParseError(
                        f"conflicting star boundary values for vertex {v!r}"
                    )
                values[v] = vec
        order = [v for v in doc.map.source.vertices]
        used = {v for s in simplices for v in s}
        star = StarBoundary(
            subcomplex=SimplicialComplex.from_maximal(
                [v for v in order if v in used], simplices
            ),
            values=values,
        )
    result = construct_lift_3ptfree(doc.map, args.k, alpha=alpha, star=star)
    if args.json:
        return 0, {
            "k": result.k,
            "values": {
                formats.id_token(v): _vec(result.lift.values[v])
                for v in result.lift.source.vertices
            },
            "verification": _verification_payload(result.verification),
            "homotopy_certified": (
                result.homotopy_certified if args.alpha else None
            ),
            "notes": result.notes,
        }
    head = [f"# k: {result.k}"]
    head += [f"# {line}" for line in _verification_lines(result.verification)]
    if args.alpha:
        head.append(
            "# homotopy certificate against supplied witness: "
            + ("ok" if result.homotopy_certified else "FAILED")
        )
    head += [f"# note: {note}" for note in result.notes]
    return 0, "\n".join(head) + "\n" + formats.write_lift(result.lift)


def _cmd_verify(args) -> Tuple[int, Document]:
    doc = formats.parse_map(_read(args.map_file))
    g = formats.parse_lift(_read(args.lift_file), doc.map.source)
    res = verify_embedding(doc.map, g)
    code = 0 if res.ok else 1
    if args.json:
        return code, _verification_payload(res)
    return code, "\n".join(_verification_lines(res)) + "\n"


def _stage_payload(t) -> Dict:
    opt = lambda x: None if x is None else formats.format_fraction(x)  # noqa: E731
    return {
        "stage": t.stage,
        "pairs": t.pair_count,
        "max_diameter_sq": opt(t.d_max_sq),
        "separation_sq": opt(t.separation_sq),
        "lambda_sq": opt(t.lambda_sq),
        "r_nominal_sq": opt(t.r_nominal_sq),
        "r_applied_sq": opt(t.r_applied_sq),
        "cuts_added": t.cuts_added,
        "refined_cells": t.w_simplices,
        "base_cells": t.b_simplices,
    }


def _stage_line(t) -> str:
    opt = lambda x: "-" if x is None else formats.format_fraction(x)  # noqa: E731
    return (
        f"stage {t.stage}: pairs {t.pair_count}, d_max^2 {opt(t.d_max_sq)}, "
        f"separation^2 {opt(t.separation_sq)}, lambda^2 {opt(t.lambda_sq)}, "
        f"r_nominal^2 {opt(t.r_nominal_sq)}, r_applied^2 {opt(t.r_applied_sq)}, "
        f"cuts {t.cuts_added}, cells {t.w_simplices}/{t.b_simplices}"
    )


def _cmd_plify(args) -> Tuple[int, Document]:
    doc = formats.parse_map(_read(args.map_file))
    g = formats.parse_lift(_read(args.lift_file), doc.map.source)
    result = run_plify(doc.map, g)
    if args.json:
        derived = result.derived_complex
        tok = formats.token_table(derived)
        payload = {
            "ok": result.ok,
            "vertex_agreement": result.vertex_agreement,
            "derived_star_hulls_disjoint": result.hulls_disjoint,
            "verification": _verification_payload(result.verification),
            "refined_cells_by_dimension": list(result.refined_map.source.f_vector()),
            "derived_cells_by_dimension": list(derived.f_vector()),
            "derived_vertices": [tok[v] for v in derived.vertices],
            "derived_maximal_simplices": [
                [tok[v] for v in s] for s in derived.maximal_simplices()
            ],
            "derived_lift": {
                tok[v]: _vec(result.derived_lift.values[v]) for v in derived.vertices
            },
        }
        if args.trace:
            payload["stages"] = [_stage_payload(t) for t in result.stages]
        return 0, payload
    head = [
        f"# result: {'ok' if result.ok else 'FAILED'}",
        f"# vertex agreement: {'ok' if result.vertex_agreement else 'FAILED'}",
        "# derived star hulls disjoint: "
        + ("ok" if result.hulls_disjoint else "FAILED"),
    ]
    head += [f"# {line}" for line in _verification_lines(result.verification)]
    head.append(
        "# refined cells by dimension: "
        + " ".join(map(str, result.refined_map.source.f_vector()))
    )
    head.append(
        "# derived cells by dimension: "
        + " ".join(map(str, result.derived_complex.f_vector()))
    )
    if args.trace:
        head += [f"# {_stage_line(t)}" for t in result.stages]
    body = formats.write_complex(formats.ComplexDocument(result.derived_complex))
    lift_text = formats.write_lift(result.derived_lift)
    return 0, "\n".join(head) + "\n" + body + lift_text


def _cmd_stability(args) -> Tuple[int, Document]:
    doc = formats.parse_complex(_read(args.complex_file))
    g = formats.parse_lift(_read(args.values_file), doc.complex)
    report = stable_to_line_report(doc.complex, g.values)
    return 0, {
        "verdict": report.verdict,
        "stable": report.stable,
        "embeds_all_edges": report.embeds_all_edges,
        "degenerate_edges": [
            [formats.id_token(u), formats.id_token(v)]
            for u, v in report.degenerate_edges
        ],
        "critical_vertices": [
            formats.id_token(v) for v in report.critical_vertices
        ],
        "undecided_vertices": [
            formats.id_token(v) for v in report.undecided_vertices
        ],
        "critical_values_injective": report.critical_values_injective,
        "caveats": report.caveats,
    }


_GEN_PARAMS = {
    "cycle-cover": 2,
    "cross-polytope": 1,
    "join-lens": 2,
    "figure-eight": 0,
    "fold-path": 0,
}

_FIGURE_EIGHT_PLANE = {
    "w": (Fraction(0), Fraction(0)),
    "p1": (Fraction(1), Fraction(1)),
    "p2": (Fraction(3), Fraction(0)),
    "p3": (Fraction(1), Fraction(-1)),
    "q1": (Fraction(-1), Fraction(1)),
    "q2": (Fraction(-3), Fraction(0)),
    "q3": (Fraction(-1), Fraction(-1)),
}


def _cmd_gen(args) -> Tuple[int, Document]:
    name = args.name
    if name not in _GEN_PARAMS:
        raise ParseError(
            f"unknown generator {name!r}; choose from {sorted(_GEN_PARAMS)}"
        )
    want = _GEN_PARAMS[name]
    if len(args.params) != want:
        raise ParseError(f"generator {name} takes {want} integer parameter(s)")
    params = []
    for tok in args.params:
        try:
            params.append(int(tok))
        except ValueError as exc:
            raise ParseError(f"generator parameter {tok!r} is not an integer") from exc
    if name == "cycle-cover":
        p, q = params
        text = formats.write_map(cycle_cover(p, q))
    elif name == "cross-polytope":
        (m,) = params
        c, swap = cross_polytope_boundary(m)
        text = formats.write_complex(formats.ComplexDocument(c, involution=swap))
    elif name == "join-lens":
        p, q = params
        if p < 2:
            raise PreconditionError(
                "join-lens needs p = 2 with q = 1, or p >= 3 with q a unit modulo p")
        if p == 2:
            # L(2, 1) is real projective 3-space, the antipodal quotient.
            if q != 1:
                raise PreconditionError("the rotation parameter must be a unit modulo p")
            projection, _rounds = antipodal_sphere_covering(3)
        else:
            projection, _rounds = lens_covering(p, q)
        text = formats.write_map(projection)
    elif name == "figure-eight":
        f = figure_eight_map()
        text = formats.write_map(
            f,
            target=formats.ComplexDocument(f.target, coordinates=_FIGURE_EIGHT_PLANE),
        )
    else:  # fold-path
        text = formats.write_map(fold_path_map())
    return 0, text


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("-o", "--out", help="write the report to a file")

    p = sub.add_parser("delta", help="pair complex of a simplicial map")
    p.add_argument("map_file")
    common(p)
    p.set_defaults(fn=_cmd_delta)

    p = sub.add_parser("yang", help="yang index and quotient homology")
    p.add_argument("map_file")
    common(p)
    p.set_defaults(fn=_cmd_yang)

    p = sub.add_parser("obstruct", help="equivariant sphere-map verdict")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("map_file")
    common(p)
    p.set_defaults(fn=_cmd_obstruct)

    p = sub.add_parser("report-thm3", help="full verdict report at k = source dim")
    p.add_argument("map_file")
    common(p)
    p.set_defaults(fn=_cmd_report_thm3)

    p = sub.add_parser("lift", help="construct a certified lift")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("map_file")
    p.add_argument("--alpha", help="witness file to certify homotopy against")
    p.add_argument(
        "--star", action="append", help="star boundary file (repeatable)"
    )
    common(p)
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("verify", help="embedding certificate for a lift")
    p.add_argument("map_file")
    p.add_argument("lift_file")
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("plify", help="convert a lift to a certified PL lift")
    p.add_argument("map_file")
    p.add_argument("lift_file")
    p.add_argument("--trace", action="store_true", help="per-stage numbers")
    common(p)
    p.set_defaults(fn=_cmd_plify)

    p = sub.add_parser("stability", help="stable-to-line JSON report")
    p.add_argument("complex_file")
    p.add_argument("values_file")
    common(p)
    p.set_defaults(fn=_cmd_stability)

    p = sub.add_parser("gen", help="generate example files")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--out", help="write to a file instead of stdout")
    p.set_defaults(fn=_cmd_gen)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        code, document = args.fn(args)
        if isinstance(document, dict):
            document = json.dumps(
                {"schema": SCHEMA, "command": args.command, **document},
                sort_keys=True, indent=2,
            ) + "\n"
        if args.out is None:
            sys.stdout.write(document)
        else:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(document)
            except OSError as exc:
                raise OutputError(f"cannot write {args.out}: {exc}") from exc
        return code
    except PremError as exc:
        # A parse error leaves no ``args``: then ``--json`` anywhere asks for JSON.
        as_json = "--json" in argv if args is None else getattr(args, "json", False)
        if as_json:
            error = {
                "type": type(exc).__name__,
                "message": str(exc),
                "exit_code": exc.exit_code,
            }
            doc = {"schema": SCHEMA, "error": error}
            print(json.dumps(doc, sort_keys=True), file=sys.stderr)
        else:
            print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
