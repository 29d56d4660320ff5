"""Graphs, special odd cycles, and structure-driven gradedness verdicts.

Three families of results are mechanized here: for graphs, standard
gradedness of the cover algebra is bipartiteness and equality of the
two algebras is an odd-cycle domination condition; for arbitrary
complexes, the absence of special odd cycles forces standard
gradedness; and for complexes whose facets meet pairwise in at most a
point, the facet intersection graph decides equality of the algebras.
Every structural verdict is cross-validated against the generic cover
engine, so a disagreement raises instead of returning quietly.
"""
from __future__ import annotations

import itertools as it
import json
from dataclasses import dataclass
from functools import cached_property

from . import covers, ideals
from .complexes import SimplicialComplex
from .errors import InputError, InternalCheckError, listed, strict_int


class Graph:
    """Simple undirected graph on {1..n}."""

    def __init__(self, n, edges):
        n = strict_int(n, "vertex count")
        if n < 1:
            raise InputError("a graph needs at least one vertex")
        es = set()
        for e in listed(edges, "edges"):
            e = listed(e, "edge")
            if len(e) != 2:
                raise InputError(f"edge {e} must have two vertices")
            u, v = (strict_int(x, "vertex") for x in e)
            if u == v:
                raise InputError(f"loop at {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError(f"edge ({u},{v}) out of range 1..{n}")
            es.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = tuple(sorted(es))

    def __eq__(self, other):
        return isinstance(other, Graph) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges)})"

    @cached_property
    def adj(self):
        out = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            out[u].add(v)
            out[v].add(u)
        return out

    def isolated_vertices(self):
        return tuple(v for v in range(1, self.n + 1) if not self.adj[v])


def graph_from_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON: {exc}") from None
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise InputError('graph JSON needs keys "n" and "edges"')
    return Graph(data["n"], data["edges"])


def complex_from_graph(g):
    if not g.edges:
        raise InputError("graph has no edges, so no facet complex")
    return SimplicialComplex(g.n, g.edges)


def graph_from_complex(sc):
    if sc.dimension > 1:
        raise InputError("complex has a facet with more than two vertices")
    edges = [f for f in sc.facets if len(f) == 2]
    return Graph(sc.n, edges)


def is_bipartite(g):
    """(True, None) or (False, odd cycle as a vertex tuple)."""
    color = {}
    parent = {}
    for root in range(1, g.n + 1):
        if root in color:
            continue
        color[root] = 0
        parent[root] = None
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v in sorted(g.adj[u]):
                if v not in color:
                    color[v] = 1 - color[u]
                    parent[v] = u
                    queue.append(v)
                elif color[v] == color[u]:
                    pu = _root_path(parent, u)
                    pv = _root_path(parent, v)
                    common = set(pu) & set(pv)
                    iu = next(i for i, x in enumerate(pu) if x in common)
                    iv = next(i for i, x in enumerate(pv) if x in common)
                    cycle = pu[: iu + 1] + pv[:iv][::-1]
                    return False, tuple(cycle)
    return True, None


def _root_path(parent, v):
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def simple_cycles(g, max_len=None):
    """All simple cycles, each once: start at its least vertex, second
    neighbour smaller than last, ascending DFS.  Sorted by length."""
    cap = max_len if max_len is not None else g.n
    out = []

    def extend(start, path, seen):
        if len(path) > cap:
            return
        u = path[-1]
        for v in sorted(g.adj[u]):
            if v == start and len(path) >= 3 and path[1] < path[-1]:
                out.append(tuple(path))
            elif v > start and v not in seen:
                seen.add(v)
                path.append(v)
                extend(start, path, seen)
                path.pop()
                seen.remove(v)

    for start in range(1, g.n + 1):
        extend(start, [start], {start})
    return sorted(out, key=lambda c: (len(c), c))


@dataclass(frozen=True, slots=True)
class SpecialCycle:
    """Alternating cycle v_1, F_1, v_2, ..., v_s, F_s back to v_1 with s
    odd, where F_i joins v_i to v_{i+1} and contains no other cycle
    vertex.  Facets are indices into the complex's facet list."""

    vertices: tuple
    facets: tuple

    @property
    def length(self):
        return len(self.vertices)

    def to_dict(self):
        return {"vertices": list(self.vertices), "facets": list(self.facets)}


def _cycle_cap(max_len, default):
    """The cycle length cap, or default when it is None."""
    if max_len is None:
        return default
    if max_len < 1:
        raise InputError(f"cycle length cap must be >= 1, got {max_len}")
    return max_len


def special_odd_cycles(sc, max_len=None):
    """All special odd cycles up to the length cap, canonically ordered."""
    cap = _cycle_cap(max_len, len(sc.facets))
    fsets = [set(f) for f in sc.facets]
    found = {}

    def close(vpath, fpath):
        vs = set(vpath)
        if any(len(fsets[fi] & vs) != 2 for fi in fpath):
            return
        forward = (tuple(vpath), tuple(fpath))
        back = (
            (vpath[0],) + tuple(reversed(vpath[1:])),
            tuple(reversed(fpath)),
        )
        canon = min(forward, back)
        found.setdefault(canon, SpecialCycle(*canon))

    def extend(start, vpath, fpath):
        u = vpath[-1]
        for fi, f in enumerate(fsets):
            if fi in fpath or u not in f:
                continue
            if start in f and len(vpath) >= 3 and len(vpath) % 2 == 1:
                close(vpath, fpath + [fi])
            if len(vpath) < cap:
                for v in sorted(f):
                    if v > start and v not in vpath:
                        extend(start, vpath + [v], fpath + [fi])

    for start in range(1, sc.n + 1):
        extend(start, [start], [])
    return sorted(found.values(), key=lambda c: (c.length, c.vertices, c.facets))


@dataclass(frozen=True, slots=True)
class NoOddReport:
    cycles: tuple
    cycle_cap: int
    gamma_facets: tuple | None
    failing_two_cover: tuple | None
    subcomplexes_checked: int
    max_degree: int | None

    @property
    def predicts_standard_graded(self):
        return not self.cycles

    def to_dict(self):
        return {
            "special_odd_cycles": [c.to_dict() for c in self.cycles],
            "cycle_cap": self.cycle_cap,
            "predicts_standard_graded": self.predicts_standard_graded,
            "gamma_facets": (
                None if self.gamma_facets is None else [list(f) for f in self.gamma_facets]
            ),
            "failing_two_cover": (
                None if self.failing_two_cover is None else list(self.failing_two_cover)
            ),
            "subcomplexes_checked": self.subcomplexes_checked,
            "max_degree": self.max_degree,
        }


def no_odd_verdict(sc, max_len=None, max_degree=None):
    """No special odd cycles forces a standard graded cover algebra.

    With a cycle present, exhibits the subcomplex of its facets and its
    vertex set as a squarefree 2-cover admitting no partition into two
    covers.  Without one (and the cap at full length), verifies
    standard gradedness of every facet-subset subcomplex when there are
    at most 12 facets.
    """
    cap = _cycle_cap(max_len, len(sc.facets))
    cycles = special_odd_cycles(sc, cap)
    if cycles:
        first = cycles[0]
        gamma = SimplicialComplex(sc.n, [sc.facets[i] for i in first.facets])
        cset = first.vertices
        ind = ideals.from_support(cset, sc.n)
        if covers.cover_order(gamma, ind) < 2:
            raise InternalCheckError(f"cycle vertices {cset} are not a 2-cover")
        if covers.partition_into_vertex_covers(gamma, cset, 2) is not None:
            raise InternalCheckError(
                f"cycle vertices {cset} split into two covers, cycle not special"
            )
        return NoOddReport(
            cycles=tuple(cycles),
            cycle_cap=cap,
            gamma_facets=gamma.facets,
            failing_two_cover=cset,
            subcomplexes_checked=0,
            max_degree=None,
        )
    checked = 0
    bound = None
    if cap >= len(sc.facets) and len(sc.facets) <= 12:
        for size in range(1, len(sc.facets) + 1):
            for sub in it.combinations(sc.facets, size):
                gamma = SimplicialComplex(sc.n, sub)
                sub_bound = (
                    max_degree if max_degree is not None else covers.default_max_degree(gamma)
                )
                bound = sub_bound if bound is None else max(bound, sub_bound)
                bv = covers.is_standard_graded_b(gamma)
                av = covers.is_standard_graded_a(gamma, sub_bound)
                if not (bv.holds and av.holds):
                    raise InternalCheckError(
                        f"no special odd cycle, yet {gamma!r} is not standard graded"
                    )
                checked += 1
    return NoOddReport(
        cycles=(),
        cycle_cap=cap,
        gamma_facets=None,
        failing_two_cover=None,
        subcomplexes_checked=checked,
        max_degree=bound,
    )


def graph_equality_ab(g, cross_check=True):
    """Whether the two cover algebras of a graph coincide.

    True exactly when every vertex with an edge is adjacent to some
    vertex of every odd cycle.  (Isolated vertices never matter: their
    unit covers split off with order zero.)  Cross-checked against the
    generic engine in degrees up to 3, which suffices for graphs.
    """
    odd = [c for c in simple_cycles(g) if len(c) % 2 == 1]
    active = [v for v in range(1, g.n + 1) if g.adj[v]]
    result = all(
        any(u in g.adj[v] for u in cyc) for cyc in odd for v in active
    )
    if cross_check and g.edges:
        verdict = covers.equals_ab(complex_from_graph(g), 3)
        if verdict.holds != result:
            raise InternalCheckError(
                f"odd-cycle domination disagrees with the cover engine on {g!r}"
            )
    return result


def cover_ideal_complex(g):
    """Complex whose facets are the minimal vertex covers of g."""
    if not g.edges:
        raise InputError("graph has no edges")
    if g.isolated_vertices():
        raise InputError(f"isolated vertices {g.isolated_vertices()} not allowed here")
    trans = ideals.minimal_transversals(g.n, [ideals.face_mask(e) for e in g.edges])
    facets = [ideals.mask_face(t) for t in trans]
    return SimplicialComplex(g.n, facets)


@dataclass(frozen=True, slots=True)
class CoverIdealReport:
    bipartite: bool
    odd_cycle: tuple | None
    b_verdict: covers.GradedVerdict
    a_verdict: covers.GradedVerdict

    def to_dict(self):
        return {
            "bipartite": self.bipartite,
            "odd_cycle": None if self.odd_cycle is None else list(self.odd_cycle),
            "b": self.b_verdict.to_dict(),
            "a": self.a_verdict.to_dict(),
        }


def cover_ideal_verdict(g, max_degree=3):
    """Standard gradedness of the cover algebra of the minimal-cover
    complex is bipartiteness of the graph.

    The degree-one check is exact and must match bipartiteness; the
    A-side search is bounded, so a miss there is only tolerated in the
    non-bipartite case when the bound was too small to see a witness.
    """
    delta = cover_ideal_complex(g)
    bip, odd = is_bipartite(g)
    bv = covers.is_standard_graded_b(delta)
    if bv.holds != bip:
        raise InternalCheckError(
            f"degree-one check disagrees with bipartiteness on {g!r}"
        )
    av = covers.is_standard_graded_a(delta, max_degree)
    if not av.holds and bip:
        raise InternalCheckError(
            f"indecomposable cover {av.witness} on a bipartite graph {g!r}"
        )
    return CoverIdealReport(bipartite=bip, odd_cycle=odd, b_verdict=bv, a_verdict=av)


def strict_intersection(sc):
    """Facets meet pairwise in at most one vertex, triples not at all."""
    fsets = [set(f) for f in sc.facets]
    for a, b in it.combinations(fsets, 2):
        if len(a & b) > 1:
            return False
    for a, b, c in it.combinations(fsets, 3):
        if a & b & c:
            return False
    return True


def intersection_graph(sc):
    """Graph on facet indices 1..m, joined when two facets meet."""
    if not strict_intersection(sc):
        raise InputError("facets do not intersect strictly")
    fsets = [set(f) for f in sc.facets]
    m = len(fsets)
    edges = [
        (i + 1, j + 1)
        for i, j in it.combinations(range(m), 2)
        if fsets[i] & fsets[j]
    ]
    return Graph(m, edges)


def _component_vertices(g):
    seen = set()
    comps = []
    for root in range(1, g.n + 1):
        if root in seen:
            continue
        comp = {root}
        stack = [root]
        while stack:
            u = stack.pop()
            for v in g.adj[u]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return comps


def _component_kind(g, comp):
    sub_edges = [e for e in g.edges if e[0] in comp and e[1] in comp]
    if not sub_edges or is_bipartite(Graph(g.n, sub_edges))[0]:
        return "bipartite"
    degs = {v: len([e for e in sub_edges if v in e]) for v in comp}
    if len(sub_edges) == len(comp) and all(d == 2 for d in degs.values()) and len(comp) % 2 == 1:
        return "odd-cycle"
    return "other"


@dataclass(frozen=True, slots=True)
class StrIntersecReport:
    hypothesis_holds: bool | None
    cycle_cap: int
    components: tuple
    predicted_equal: bool | None
    engine: covers.GradedVerdict

    def to_dict(self):
        return {
            "hypothesis_holds": self.hypothesis_holds,
            "cycle_cap": self.cycle_cap,
            "components": list(self.components),
            "predicted_equal": self.predicted_equal,
            "engine": self.engine.to_dict(),
        }


def str_intersec_verdict(sc, max_degree=None, max_cycle_len=None):
    """Equality of the cover algebras from the facet intersection graph.

    For strictly intersecting facets whose intersection graph has no
    two cycles sharing exactly two edges, the algebras agree exactly
    when every component is bipartite or the whole graph is one odd
    cycle.  An odd-cycle component living next to any other component
    breaks the equality: doubling a vertex of a facet in the other
    component and laying the cycle indicator over the odd cycle gives
    a 2-cover that no squarefree cover can split off (the cycle side
    needs two disjoint covers inside an odd set, the doubled side is
    stuck below its facet).  The hypothesis is checked up to the cycle
    length cap (None means all of them); the prediction, when made, is
    enforced against the generic engine.
    """
    G = intersection_graph(sc)
    cap = _cycle_cap(max_cycle_len, G.n)
    cycles = simple_cycles(G, cap)
    hypothesis = True
    for c1, c2 in it.combinations(cycles, 2):
        if len(_cycle_edges(c1) & _cycle_edges(c2)) == 2:
            hypothesis = False
            break
    exhaustive = cap >= G.n
    bound = max_degree if max_degree is not None else covers.default_max_degree(sc)
    engine = covers.equals_ab(sc, bound)
    if not (hypothesis and exhaustive):
        return StrIntersecReport(
            hypothesis_holds=hypothesis if exhaustive else None,
            cycle_cap=cap,
            components=(),
            predicted_equal=None,
            engine=engine,
        )
    kinds = tuple(_component_kind(G, comp) for comp in _component_vertices(G))
    predicted = all(k == "bipartite" for k in kinds) or kinds == ("odd-cycle",)
    if engine.holds != predicted:
        raise InternalCheckError(
            f"intersection-graph prediction {predicted} disagrees with the engine on {sc!r}"
        )
    return StrIntersecReport(
        hypothesis_holds=True,
        cycle_cap=cap,
        components=kinds,
        predicted_equal=predicted,
        engine=engine,
    )


def _cycle_edges(cycle):
    out = set()
    for i, u in enumerate(cycle):
        v = cycle[(i + 1) % len(cycle)]
        out.add((min(u, v), max(u, v)))
    return out
