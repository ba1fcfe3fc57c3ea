"""Command-line surface.

Subcommands: ``delta`` (pair complex), ``yang`` (index and quotient homology),
``obstruct`` (equivariant verdict for one k), ``report-thm3`` (full verdict
report at k = source dimension), ``lift`` (certified lift construction),
``verify`` (embedding certificate for a given lift), ``plify`` (subdivision
cascade converting a lift to a PL one), ``stability`` (stable-to-line report),
and ``gen`` (example files).

Exit codes: 0 success; parse failures 64; precondition failures 65, among
them ``lift`` on a map that the equivariant obstruction rules out; internal
contract violations 70.  ``obstruct`` and ``report-thm3`` exit 0 for a
positive verdict, 1 for a negative one and 2 when inconclusive; ``verify``
exits 1 when the certificate fails.  ``--json`` renders every report as a
versioned JSON document, written to ``-o FILE`` when given, and turns an
error into one JSON object on stderr, ``{"schema": 1, "error": {"type",
"message", "exit_code"}}``, with the same exit code; ``--jobs`` (or the
PREM_JOBS environment variable) sets the worker process count, at least 1
and clamped to the CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from . import formats, gf2, mod2
from .complexes import SimplicialComplex
from .double_points import double_point_model
from .errors import ParseError, PreconditionError, PremError
from .generators import (
    antipodal_sphere_covering,
    cross_polytope_boundary,
    cycle_cover,
    figure_eight_map,
    fold_path_map,
    lens_covering,
)
from .lift import StarBoundary, construct_lift_3ptfree
from .obstruction import EXISTS, NOT_EXISTS, equivariant_map_exists, prem_report
from .plify import plify as run_plify
from .stability import stable_to_line_report
from .verify import VerificationResult, verify_embedding

SCHEMA = 1


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


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _positive_jobs(value, source: str) -> int:
    try:
        jobs = int(value)
    except ValueError as exc:
        raise ParseError(f"{source} must be an integer, got {value!r}") from exc
    if jobs < 1:
        raise ParseError(f"{source} must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _jobs(args) -> int:
    """Worker process count: ``--jobs``, else PREM_JOBS, else 1; values below
    1 are parse errors and values above the CPU count are clamped to it."""
    if getattr(args, "jobs", None) is not None:
        return _positive_jobs(args.jobs, "--jobs")
    env = os.environ.get("PREM_JOBS")
    if env:
        return _positive_jobs(env, "PREM_JOBS")
    return 1


def _print_json(payload: Dict, out: Optional[str]) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


def _frac(x) -> str:
    return formats.format_fraction(x)


def _vec(xs) -> List[str]:
    return [_frac(x) for x in xs]


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


def _cmd_delta(args) -> int:
    doc = formats.parse_map(_read(args.map_file))
    model = double_point_model(doc.map)
    comp = mod2.component_report(model.pair_complex)
    fvec = model.complex.f_vector()
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "delta",
                "cells_by_dimension": list(fvec),
                "components": len(comp.components),
                "invariant_components": comp.invariant_count,
                "subdivision_rounds": model.subdivision_rounds,
                "vertices": [formats.id_token(v) for v in model.complex.vertices],
                "maximal_simplices": [
                    [formats.id_token(v) for v in s]
                    for s in sorted(
                        model.complex.maximal_simplices(), key=model.complex.sort_key
                    )
                ],
                "involution": sorted(
                    [formats.id_token(a), formats.id_token(b)]
                    for a, b in model.involution.items()
                    if model.complex.rank[a] <= model.complex.rank[b]
                ),
            },
            args.out,
        )
        return 0
    head = [
        f"# pair cells by dimension: {' '.join(map(str, fvec))}",
        f"# components: {len(comp.components)}",
        f"# invariant components: {comp.invariant_count}",
        f"# subdivision rounds: {model.subdivision_rounds}",
    ]
    body = formats.write_complex(
        formats.ComplexDocument(model.complex, involution=model.involution)
    )
    _emit("\n".join(head) + "\n" + body, args.out)
    return 0


def _cmd_yang(args) -> int:
    doc = formats.parse_map(_read(args.map_file))
    model = double_point_model(doc.map)
    qr = mod2.quotient_by_free_involution(model.pair_complex)
    y = mod2.yang_index(qr.quotient, mod2.w1_cocycle(qr))
    fvec = qr.quotient.f_vector()
    betti = gf2.betti_mod2(qr.quotient)
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "yang",
                "yang_index": y,
                "quotient_cells_by_dimension": list(fvec),
                "quotient_mod2_betti": list(betti),
            },
            args.out,
        )
        return 0
    _emit(
        "\n".join(
            [
                f"yang index: {y}",
                f"quotient cells by dimension: {' '.join(map(str, fvec))}",
                f"quotient mod-2 betti: {' '.join(map(str, betti))}",
            ]
        )
        + "\n",
        args.out,
    )
    return 0


def _verdict_exit(answer: str) -> int:
    if answer == EXISTS:
        return 0
    if answer == NOT_EXISTS:
        return 1
    return 2


def _cmd_obstruct(args) -> int:
    if args.k < 1:
        raise PreconditionError("k must be a positive integer")
    doc = formats.parse_map(_read(args.map_file))
    model = double_point_model(doc.map)
    verdict = equivariant_map_exists(model.pair_complex, args.k)
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "obstruct",
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
            },
            args.out,
        )
    else:
        lines = [f"verdict: {verdict.answer}", f"reason: {verdict.reason}"]
        if verdict.yang is not None:
            lines.append(f"yang index: {verdict.yang}")
        _emit("\n".join(lines) + "\n", args.out)
    return _verdict_exit(verdict.answer)


def _conclusion_text(report) -> str:
    if report.conclusion == "k-prem":
        return f"{report.k}-prem"
    if report.conclusion == "not-k-prem":
        return f"not a {report.k}-prem"
    return "inconclusive"


def _cmd_report_thm3(args) -> int:
    doc = formats.parse_map(_read(args.map_file))
    model = double_point_model(doc.map)
    k = doc.map.source.dim
    report = prem_report(doc.map, k, model=model)
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "report-thm3",
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
            },
            args.out,
        )
        return _verdict_exit(report.verdict.answer)
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
    _emit("\n".join(lines) + "\n", args.out)
    return _verdict_exit(report.verdict.answer)


def _cmd_lift(args) -> int:
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
    result = construct_lift_3ptfree(
        doc.map, args.k, alpha=alpha, star=star, jobs=_jobs(args)
    )
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "lift",
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
            },
            args.out,
        )
        return 0
    head = [f"# k: {result.k}"]
    head += [f"# {line}" for line in _verification_lines(result.verification)]
    if args.alpha:
        head.append(
            "# homotopy certificate against supplied witness: "
            + ("ok" if result.homotopy_certified else "FAILED")
        )
    head += [f"# note: {note}" for note in result.notes]
    _emit("\n".join(head) + "\n" + formats.write_lift(result.lift), args.out)
    return 0


def _cmd_verify(args) -> int:
    doc = formats.parse_map(_read(args.map_file))
    g = formats.parse_lift(_read(args.lift_file), doc.map.source)
    res = verify_embedding(doc.map, g, jobs=_jobs(args))
    if args.json:
        _print_json(
            {
                "schema": SCHEMA,
                "command": "verify",
                **_verification_payload(res),
            },
            args.out,
        )
    else:
        _emit("\n".join(_verification_lines(res)) + "\n", args.out)
    return 0 if res.ok else 1


def _stage_payload(t) -> Dict:
    opt = lambda x: None if x is None else _frac(x)  # noqa: E731
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
    opt = lambda x: "-" if x is None else _frac(x)  # noqa: E731
    return (
        f"stage {t.stage}: pairs {t.pair_count}, d_max^2 {opt(t.d_max_sq)}, "
        f"separation^2 {opt(t.separation_sq)}, lambda^2 {opt(t.lambda_sq)}, "
        f"r_nominal^2 {opt(t.r_nominal_sq)}, r_applied^2 {opt(t.r_applied_sq)}, "
        f"cuts {t.cuts_added}, cells {t.w_simplices}/{t.b_simplices}"
    )


def _cmd_plify(args) -> int:
    doc = formats.parse_map(_read(args.map_file))
    g = formats.parse_lift(_read(args.lift_file), doc.map.source)
    result = run_plify(doc.map, g, jobs=_jobs(args))
    if args.json:
        payload = {
            "schema": SCHEMA,
            "command": "plify",
            "ok": result.ok,
            "vertex_agreement": result.vertex_agreement,
            "derived_star_hulls_disjoint": result.hulls_disjoint,
            "verification": _verification_payload(result.verification),
            "refined_cells_by_dimension": list(result.refined_map.source.f_vector()),
            "derived_cells_by_dimension": list(result.derived_complex.f_vector()),
            "derived_vertices": [
                formats.id_token(v) for v in result.derived_complex.vertices
            ],
            "derived_maximal_simplices": [
                [formats.id_token(v) for v in s]
                for s in sorted(
                    result.derived_complex.maximal_simplices(),
                    key=result.derived_complex.sort_key,
                )
            ],
            "derived_lift": {
                formats.id_token(v): _vec(result.derived_lift.values[v])
                for v in result.derived_complex.vertices
            },
        }
        if args.trace:
            payload["stages"] = [_stage_payload(t) for t in result.stages]
        _print_json(payload, args.out)
        return 0
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
    _emit("\n".join(head) + "\n" + body + lift_text, args.out)
    return 0


def _cmd_stability(args) -> int:
    doc = formats.parse_complex(_read(args.complex_file))
    g = formats.parse_lift(_read(args.values_file), doc.complex)
    report = stable_to_line_report(doc.complex, g.values)
    _print_json(
        {
            "schema": SCHEMA,
            "command": "stability",
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
        },
        args.out,
    )
    return 0


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


def _cmd_gen(args) -> int:
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
        ic = cross_polytope_boundary(m)
        text = formats.write_complex(
            formats.ComplexDocument(ic.complex, involution=ic.involution)
        )
    elif name == "join-lens":
        p, q = params
        if p == 2:
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
    _emit(text, args.out)
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="prem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def common(p, jobs=False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("-o", "--out", help="write the report to a file")
        if jobs:
            p.add_argument("--jobs", type=int, help="worker process cap")

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
    common(p, jobs=True)
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("verify", help="embedding certificate for a lift")
    p.add_argument("map_file")
    p.add_argument("lift_file")
    common(p, jobs=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("plify", help="convert a lift to a certified PL lift")
    p.add_argument("map_file")
    p.add_argument("lift_file")
    p.add_argument("--trace", action="store_true", help="per-stage numbers")
    common(p, jobs=True)
    p.set_defaults(fn=_cmd_plify)

    p = sub.add_parser("stability", help="stable-to-line JSON report")
    p.add_argument("complex_file")
    p.add_argument("values_file")
    p.add_argument("-o", "--out", help="write the report to a file")
    p.set_defaults(fn=_cmd_stability)

    p = sub.add_parser("gen", help="generate example files")
    p.add_argument("name")
    p.add_argument("params", nargs="*")
    p.add_argument("-o", "--out", help="write to a file instead of stdout")
    p.set_defaults(fn=_cmd_gen)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
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
