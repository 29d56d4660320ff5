"""Span recording around the package's public functions, from outside.

``Tracer.install`` replaces a fixed list of functions with wrappers,
setting them on the module objects (and on ``SimplicialComplex`` for
its methods).  Modules resolve globals and attributes at call time, so
calls between layers and within a layer both pass through the wrappers.
Hot helpers (``cover_order``, ``divides``, ``lcm``, ``canon_key``,
``from_support``, ``face_mask``) stay unwrapped: their call counts are
large enough that a span each would distort the self times.

Each span records its name, start, end, parent span and question id in
flat arrays that stay in memory until ``write``.  A span's self time is
its duration minus the durations of its child spans.  Hooks read the
arguments and results of some calls to count work and to tell which
silent threshold of the package each call crossed; the thresholds below
mirror the package's constants at the time the benchmark was defined.
"""
from __future__ import annotations

import functools
import time
from array import array

import numpy as np

WRAPPED = {
    "complexes": ["from_json", "from_text", "SimplicialComplex.__init__", "SimplicialComplex.skeleton"],
    "ideals": ["minimal_transversals", "intersect", "intersect_many", "multiply", "minimalize",
               "sum_ideals", "squarefree_power", "alexander_dual"],
    "covers": ["cover_candidates", "decompose_cover", "minimal_vertex_covers", "jk", "lk", "lk_sq",
               "indecomposable_covers", "is_standard_graded_a", "is_standard_graded_b", "equals_ab",
               "verify_duality", "partition_into_vertex_covers"],
    "borel": ["expand", "dual_gens", "cover_gens_principal", "level_sets", "decompose_principal",
              "skeleton_gens", "squarefree_borel_spec"],
    "posets": ["delta_r", "proof_cover_set", "decompose_poset_cover", "verify_standard_graded_delta_r"],
    "classify": ["simple_cycles", "special_odd_cycles", "no_odd_verdict", "graph_equality_ab",
                 "cover_ideal_verdict", "str_intersec_verdict"],
    "cli": ["main"],
}

ENUM_LIMIT = 20_000_000  # covers._ENUM_LIMIT: largest enumerated box
JK_ENUM_BOX = 2_000_000  # covers.jk enumerates when (k+1)^n is at most this
LK_SQ_DIRECT_N = 20  # covers.lk_sq runs its direct scan when n is at most this
INTERSECT_NUMPY_PAIRS = 4000  # ideals.intersect uses numpy above this many lcms
NO_ODD_SWEEP_FACETS = 12  # classify.no_odd_verdict sweeps subcomplexes up to this

# Extra counters, and the unit of each, besides <layer>.<fn>.calls/self_s.
EXTRA = {
    "ideals.minimal_transversals.out_sets": "count",
    "ideals.intersect.kept_ratio": "ratio",
    "ideals.intersect.numpy_route_calls": "count",
    "ideals.multiply.kept_ratio": "ratio",
    "covers.cover_candidates.box_vectors": "count",
    "covers.cover_candidates.kept": "count",
    "covers.decompose_cover.indecomposable_ratio": "ratio",
    "covers.jk.enum_route_calls": "count",
    "covers.lk_sq.direct_check_calls": "count",
    "covers.enum_limit_headroom": "ratio",
    "borel.expand.members": "count",
    "borel.level_sets_per_decompose": "ratio",
    "posets.box_vectors": "count",
    "posets.covers_swept": "count",
    "posets.scalar_samples": "count",
    "posets.cross_checks": "count",
    "classify.special_odd_cycles.found": "count",
    "classify.no_odd_verdict.subcomplexes": "count",
    "classify.no_odd_verdict.subcomplex_sweeps": "count",
    "classify.engine_share": "ratio",
    "cli.stdout_bytes": "count",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = {}
    for layer, fns in WRAPPED.items():
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = "count"
            out[f"{layer}.{fn}.self_s"] = "s"
    out.update(EXTRA)
    return out


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("l")
        self.parent = array("l")
        self.qid = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.question = -1
        self.counts = dict.fromkeys(
            ["transversal_sets", "intersect_pairs", "intersect_kept", "multiply_pairs",
             "multiply_kept", "intersect_numpy", "box_vectors", "candidates_kept",
             "indecomposable", "jk_enum", "lk_sq_direct", "max_box", "expand_members",
             "poset_box", "poset_swept", "poset_samples", "poset_cross", "cycles_found",
             "subcomplexes", "subcomplex_sweeps", "stdout_bytes"], 0)

    # ---------------------------------------------------------- recording

    def _wrap(self, name, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        stack, start, end = self.stack, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.qid.append(self.question)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self, pkg):
        """Wrap every function in WRAPPED on the package's modules."""
        for layer, fns in WRAPPED.items():
            module = getattr(pkg, layer)
            for fn in fns:
                owner = module
                attr = fn
                if "." in fn:
                    cls, attr = fn.split(".")
                    owner = getattr(module, cls)
                name = f"{layer}.{fn}"
                hook = getattr(self, "_on_" + name.replace(".", "_"), None)
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), hook))

    # ------------------------------- hooks: _on_<span name, dots as _>

    def _on_ideals_minimal_transversals(self, args, kwargs, result):
        self.counts["transversal_sets"] += len(result)

    def _on_ideals_intersect(self, args, kwargs, result):
        I, J = args[0], args[1]
        if I.gens and J.gens:
            pairs = len(I.gens) * len(J.gens)
            self.counts["intersect_pairs"] += pairs
            self.counts["intersect_kept"] += len(result.gens)
            self.counts["intersect_numpy"] += pairs > INTERSECT_NUMPY_PAIRS

    def _on_ideals_multiply(self, args, kwargs, result):
        I, J = args[0], args[1]
        if I.gens and J.gens:
            self.counts["multiply_pairs"] += len(I.gens) * len(J.gens)
            self.counts["multiply_kept"] += len(result.gens)

    def _on_covers_cover_candidates(self, args, kwargs, result):
        box = (_arg(args, kwargs, 1, "k") + 1) ** _arg(args, kwargs, 0, "sc").n
        self.counts["box_vectors"] += box
        self.counts["candidates_kept"] += len(result)
        self.counts["max_box"] = max(self.counts["max_box"], box)

    def _on_covers_decompose_cover(self, args, kwargs, result):
        self.counts["indecomposable"] += result is None

    def _on_covers_jk(self, args, kwargs, result):
        box = (_arg(args, kwargs, 1, "k") + 1) ** _arg(args, kwargs, 0, "sc").n
        if box <= JK_ENUM_BOX:
            self.counts["jk_enum"] += 1
            self.counts["max_box"] = max(self.counts["max_box"], box)

    def _on_covers_lk_sq(self, args, kwargs, result):
        sc, k = _arg(args, kwargs, 0, "sc"), _arg(args, kwargs, 1, "k")
        if k <= min(len(f) for f in sc.facets) and sc.n <= LK_SQ_DIRECT_N:
            self.counts["lk_sq_direct"] += 1

    def _on_borel_expand(self, args, kwargs, result):
        self.counts["expand_members"] += len(result)

    def _on_posets_verify_standard_graded_delta_r(self, args, kwargs, result):
        cells = result.m * result.r
        self.counts["poset_box"] += sum((k + 1) ** cells for k in range(2, result.max_degree + 1))
        self.counts["poset_swept"] += result.total
        self.counts["poset_samples"] += result.scalar_samples
        self.counts["poset_cross"] += result.cross_checked

    def _on_classify_special_odd_cycles(self, args, kwargs, result):
        self.counts["cycles_found"] += len(result)

    def _on_classify_no_odd_verdict(self, args, kwargs, result):
        sc = _arg(args, kwargs, 0, "sc")
        cap = _arg(args, kwargs, 1, "max_len")
        nf = len(sc.facets)
        cap = nf if cap is None else cap
        self.counts["subcomplexes"] += result.subcomplexes_checked
        if not result.cycles and cap >= nf and nf <= NO_ODD_SWEEP_FACETS:
            self.counts["subcomplex_sweeps"] += 1

    # ------------------------------------------------------------ results

    def _arrays(self):
        return (np.array(self.name_id, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def metrics(self, overhead_frac):
        """Per-layer metrics: calls and self time of every wrapped function,
        the counters and ratios in EXTRA, and the tracing overhead."""
        name_id, parent, start, end = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=self_time, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
        in_classify = np.array([n.startswith("classify.") for n in self.names])[name_id]
        in_covers = np.array([n.startswith("covers.") for n in self.names])[name_id]
        parent_classify = np.zeros(len(dur), dtype=bool)
        parent_classify[has_parent] = in_classify[parent[has_parent]]
        top_classify = in_classify & ~parent_classify
        covers_under = in_covers & parent_classify
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        classify_time = float(dur[top_classify].sum())
        out.update({
            "ideals.minimal_transversals.out_sets": c["transversal_sets"],
            "ideals.intersect.kept_ratio": ratio(c["intersect_kept"], c["intersect_pairs"]),
            "ideals.intersect.numpy_route_calls": c["intersect_numpy"],
            "ideals.multiply.kept_ratio": ratio(c["multiply_kept"], c["multiply_pairs"]),
            "covers.cover_candidates.box_vectors": c["box_vectors"],
            "covers.cover_candidates.kept": c["candidates_kept"],
            "covers.decompose_cover.indecomposable_ratio": ratio(c["indecomposable"], out["covers.decompose_cover.calls"]),
            "covers.jk.enum_route_calls": c["jk_enum"],
            "covers.lk_sq.direct_check_calls": c["lk_sq_direct"],
            "covers.enum_limit_headroom": c["max_box"] / ENUM_LIMIT,
            "borel.expand.members": c["expand_members"],
            "borel.level_sets_per_decompose": ratio(out["borel.level_sets.calls"], out["borel.decompose_principal.calls"]),
            "posets.box_vectors": c["poset_box"],
            "posets.covers_swept": c["poset_swept"],
            "posets.scalar_samples": c["poset_samples"],
            "posets.cross_checks": c["poset_cross"],
            "classify.special_odd_cycles.found": c["cycles_found"],
            "classify.no_odd_verdict.subcomplexes": c["subcomplexes"],
            "classify.no_odd_verdict.subcomplex_sweeps": c["subcomplex_sweeps"],
            "classify.engine_share": ratio(float(dur[covers_under].sum()), classify_time),
            "cli.stdout_bytes": c["stdout_bytes"],
            "trace.overhead_frac": overhead_frac,
            "trace.spans": len(dur),
        })
        return out

    def write(self, path):
        """Save every span: names, name ids, parents, question ids, times."""
        name_id, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 qid=np.array(self.qid, dtype=np.int64), start=start, end=end)
