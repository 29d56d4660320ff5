"""Independent answer checks for the benchmark.

Everything here recomputes from first principles with the standard
library only: cover orders, subset scans, graph searches and Borel
expansions.  None of it imports coveralg, so a wrong answer from the
package cannot also fool its check.  The scans are exponential and only
run where the docstrings say they are cheap.
"""
from __future__ import annotations

import hashlib
import itertools as it
import json


def digest(canon):
    """Eight hex digits of the SHA-256 of a JSON-able canonical answer."""
    text = canon if isinstance(canon, str) else json.dumps(canon, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def order(facets, c):
    """Largest k with sum(c over F) >= k for every facet F."""
    return min(sum(c[v - 1] for v in f) for f in facets)


def parse_vector(text):
    return tuple(int(x) for x in text.split(","))


def subset_scan(n, facets, k):
    """Minimal vertex sets meeting every facet in at least k vertices,
    as sorted tuples, smallest first.  k = 1 gives the minimal
    transversals.  Cost 2^n * |facets|; the benchmark calls it for n <= 10."""
    fmasks = [sum(1 << (v - 1) for v in f) for f in facets]
    good = [
        mask
        for mask in range(1, 1 << n)
        if all(bin(mask & f).count("1") >= k for f in fmasks)
    ]
    good_set = set(good)
    minimal = []
    for mask in good:
        bits = [mask & ~(1 << i) for i in range(n) if mask >> i & 1]
        if not any(b in good_set for b in bits):
            minimal.append(tuple(i + 1 for i in range(n) if mask >> i & 1))
    return sorted(minimal, key=lambda t: (len(t), t))


def support(m):
    return tuple(i + 1 for i, e in enumerate(m) if e)


def adjacency(n, edges):
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_bipartite(n, edges):
    adj = adjacency(n, edges)
    color = {}
    for root in range(1, n + 1):
        if root in color:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def odd_cycle_vertex_sets(n, edges):
    """Vertex sets of all odd simple cycles, by depth-first search."""
    adj = adjacency(n, edges)
    found = set()

    def walk(start, path):
        for v in adj[path[-1]]:
            if v == start and len(path) >= 3 and len(path) % 2 == 1:
                found.add(frozenset(path))
            elif v > start and v not in path:
                walk(start, path + [v])

    for start in range(1, n + 1):
        walk(start, [start])
    return found


def odd_cycle_domination(n, edges):
    """Every vertex with an edge is adjacent to some vertex of every odd cycle."""
    adj = adjacency(n, edges)
    active = [v for v in adj if adj[v]]
    return all(
        any(u in adj[v] for u in cyc)
        for cyc in odd_cycle_vertex_sets(n, edges)
        for v in active
    )


def minimal_vertex_covers(n, edges):
    """Facets of the cover-ideal complex of a graph, by subset scan."""
    return subset_scan(n, [tuple(e) for e in edges], 1)


def borel_members(face):
    """All faces of the same size preceding ``face`` componentwise."""
    top = face[-1]
    return [
        h
        for h in it.combinations(range(1, top + 1), len(face))
        if all(a <= b for a, b in zip(h, face))
    ]


def borel_facets(face):
    """Facets of the complex of the principal Borel set B(face)."""
    return borel_members(tuple(sorted(face)))


def is_exchange_closed(n, supports):
    """Whether a set of supports is closed under swapping a vertex for a
    smaller absent one, up to containment of some support."""
    sets = [frozenset(s) for s in supports]
    for s in sets:
        for j in s:
            for i in range(1, j):
                if i in s:
                    continue
                moved = (s - {j}) | {i}
                if not any(t <= moved for t in sets):
                    return False
    return True


def count_poset_covers(chains, cells, k):
    """Vectors with entries <= k whose every chain sums to at least k.
    Cost (k+1)^cells * |chains|; the benchmark calls it for cells <= 6."""
    return sum(
        1
        for c in it.product(range(k + 1), repeat=cells)
        if all(sum(c[i] for i in ch) >= k for ch in chains)
    )


def has_special_odd_cycle(facets):
    """Whether some odd s >= 3 distinct facets F_1..F_s and distinct
    vertices v_1..v_s have v_i, v_{i+1} in F_i (indices mod s) and no
    other v_j in F_i.  Tries every cyclic facet sequence; the benchmark
    calls it for at most five facets."""
    fsets = [set(f) for f in facets]
    for s in range(3, len(fsets) + 1, 2):
        for seq in it.permutations(range(len(fsets)), s):
            if seq[0] != min(seq):
                continue
            # v_i lies in F_{i-1} and F_i
            choices = [fsets[seq[i - 1]] & fsets[seq[i]] for i in range(s)]
            for vs in it.product(*choices):
                vset = set(vs)
                if len(vset) == s and all(len(fsets[f] & vset) == 2 for f in seq):
                    return True
    return False
