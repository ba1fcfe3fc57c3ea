"""Span tracing of the ``prem`` layers from outside the library.

``Tracer.install`` wraps every public module-level function of the traced
modules and rebinds each wrapper wherever a ``prem`` module holds the original
object, so by-name imports such as ``prem.cli.prem_report`` or
``prem.lift.verify_embedding`` are traced too.  Methods of ``complexes`` and
``maps`` are called about a million times per job and are not wrapped; their
cost shows as the self time of their callers.  Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List

TRACED_MODULES = (
    "formats",
    "double_points",
    "mod2",
    "gf2",
    "obstruction",
    "verify",
    "lp",
    "linalg",
    "lift",
    "plify",
    "subdivision",
    "generators",
)

# Per-token and per-vector helpers: wrapping them would cost more than the
# work they do.  Their time lands in their callers' self time.
SKIPPED = {
    "formats.id_token",
    "formats.pair_token",
    "formats.format_fraction",
    "formats.parse_fraction",
    "linalg.vec",
    "linalg.vec_add",
    "linalg.vec_sub",
    "linalg.vec_scale",
}

# Metric name -> span-name patterns.  The inclusive time sums the outermost
# matching spans; the ``.self`` time sums the self time of every match.
TIMED_GROUPS = {
    "cli.report_thm3_s": ("cli.report_thm3",),
    "cli.lift_s": ("cli.lift",),
    "cli.verify_s": ("cli.verify",),
    "cli.plify_s": ("cli.plify",),
    "formats.parse_s": ("formats.parse_*",),
    "formats.write_s": ("formats.write_*",),
    "double_points.model_s": ("double_points.double_point_model",),
    "mod2.quotient_s": ("mod2.quotient_by_free_involution",),
    "mod2.w1_s": ("mod2.w1_cocycle",),
    "mod2.yang_s": ("mod2.yang_index",),
    "mod2.components_s": ("mod2.component_report",),
    "gf2.solve_s": ("gf2.solve_gf2",),
    "gf2.betti_s": ("gf2.betti_mod2",),
    "obstruction.verdict_s": ("obstruction.equivariant_map_exists",),
    "obstruction.manifold_s": ("obstruction.quotient_is_homology_manifold",),
    "obstruction.parity_s": ("obstruction.projection_degree_parity",),
    "obstruction.report_s": ("obstruction.prem_report",),
    "verify.verify_s": ("verify.verify_embedding",),
    "lp.solve_s": ("lp.*",),
    "linalg.s": ("linalg.*",),
    "lift.construct_s": ("lift.construct_lift_3ptfree",),
    "lift.closure_s": ("lift.build_closure_model",),
    "lift.witness_s": ("lift.closure_witness", "lift.certify_witness_on_closure"),
    "lift.isovariant_s": ("lift.isovariant_pl_approximation",),
    "plify.plify_s": ("plify.plify",),
    "subdivision.s": ("subdivision.*",),
    "generators.s": ("generators.*",),
}

# Metric name -> span-name patterns whose calls it counts.
CALL_COUNTS = {
    "gf2.solve_calls": ("gf2.solve_gf2",),
    "gf2.betti_calls": ("gf2.betti_mod2",),
    "lp.solves": ("lp.lp_solve",),
    "linalg.calls": ("linalg.*",),
    "lift.witness_draws": ("lift.certify_witness_on_closure",),
    "subdivision.calls": ("subdivision.*",),
}

# Counts read from return values, keyed by the traced function.
RESULT_COUNTS = (
    "double_points.pair_cells",
    "mod2.quotient_cells",
    "verify.pairs",
    "verify.pairs_lp",
    "plify.cuts",
    "plify.derived_cells",
)

# Layers that the jobs do not reach at this commit: input generation and the
# barycentric subdivision it uses.  Their metrics add the traced set-up.
SETUP_LAYERS = ("generators", "subdivision")

# Modules whose summed self time is reported for every job.  Together with
# the set-up layers they account for the whole traced wall time.
MODULE_SELF_TIMES = ("cli",) + tuple(m for m in TRACED_MODULES if m not in SETUP_LAYERS)

_PREFILTERED_KINDS = ("disjoint-images", "same-carrier")


def _count_model(counts: Dict[str, int], model) -> None:
    counts["double_points.pair_cells"] += len(model.complex.simplices)


def _count_quotient(counts: Dict[str, int], qr) -> None:
    counts["mod2.quotient_cells"] += len(qr.quotient.simplices)


def _count_verification(counts: Dict[str, int], res) -> None:
    kinds = res.kind_counts()
    prefiltered = sum(kinds.get(k, 0) for k in _PREFILTERED_KINDS)
    counts["verify.pairs"] += res.pairs_checked
    counts["verify.pairs_lp"] += res.pairs_checked - prefiltered


def _count_plify(counts: Dict[str, int], res) -> None:
    counts["plify.cuts"] += sum(t.cuts_added for t in res.stages)
    counts["plify.derived_cells"] += len(res.derived_complex.simplices)


RESULT_HOOKS: Dict[str, Callable] = {
    "double_points.double_point_model": _count_model,
    "mod2.quotient_by_free_involution": _count_quotient,
    "verify.verify_embedding": _count_verification,
    "plify.plify": _count_plify,
}


class Tracer:
    """Records spans ``[name, parent, start, end]`` of the wrapped calls.

    ``parent`` is the index of the enclosing span in the same list, or -1.
    ``begin_request`` starts a new span list, one per benchmark job.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def begin_request(self) -> None:
        self.spans = []
        self.counts = {name: 0 for name in RESULT_COUNTS}
        self._stack = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = RESULT_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if hook is not None:
                hook(self.counts, result)
            return result

        return traced

    def span(self, name: str, fn: Callable, *args):
        """Call ``fn(*args)`` inside a span named ``name``."""
        return self._wrap(name, fn)(*args)

    def install(self) -> None:
        """Wrap the public functions of ``TRACED_MODULES`` in ``prem``."""
        originals = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"prem.{short}")
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIPPED
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                originals[id(obj)] = (obj, self._wrap(name, obj))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "prem" or mod_name.startswith("prem.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched = []


def _members(name: str, table: Dict[str, tuple]) -> frozenset:
    return frozenset(
        metric
        for metric, patterns in table.items()
        if any(fnmatch.fnmatchcase(name, p) for p in patterns)
    )


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


def summarize(spans: List[list], counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one job's spans and result counts.

    Spans are listed in call order, so a parent precedes its children and
    the groups open above a span are known when the span is reached.
    """
    own = self_times(spans)
    timed = {name: _members(name, TIMED_GROUPS) for name in {s[0] for s in spans}}
    called = {name: _members(name, CALL_COUNTS) for name in timed}
    out: Dict[str, float] = {}
    for metric in TIMED_GROUPS:
        out[metric] = 0.0
        out[metric + ".self"] = 0.0
    for metric in CALL_COUNTS:
        out[metric] = 0
    for short in MODULE_SELF_TIMES:
        out[f"self.{short}_s"] = 0.0
    open_above: List[frozenset] = []
    for i, (name, parent, start, end) in enumerate(spans):
        above = frozenset() if parent < 0 else open_above[parent] | timed[spans[parent][0]]
        open_above.append(above)
        for metric in timed[name]:
            out[metric + ".self"] += own[i]
            if metric not in above:
                out[metric] += end - start
        for metric in called[name]:
            out[metric] += 1
        module = f"self.{name.split('.', 1)[0]}_s"
        if module in out:
            out[module] += own[i]
    out.update(counts)
    return out


def attributed_s(spans: List[list]) -> float:
    """Time inside any span: the summed durations of the root spans, which
    equals the summed self times of all spans."""
    return sum(end - start for _, parent, start, end in spans if parent < 0)
