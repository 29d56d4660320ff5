"""Brute-force oracles and instance generators for the test suite.

Everything here recomputes answers from first principles — full subset
scans, explicit split enumeration, definition-chasing — with no help
from the package internals, so the fast implementations have something
independent to disagree with.  All of it is exponential and meant for
the small instances the tests use.
"""
import itertools as it

import numpy as np


def order(facets, c):
    return min(sum(c[v - 1] for v in f) for f in facets)


def transversals(n, supports):
    """Minimal hitting sets of the supports, by full subset scan."""
    hits = []
    for mask in range(1, 1 << n):
        s = {i + 1 for i in range(n) if mask >> i & 1}
        if all(s & set(f) for f in supports):
            hits.append(frozenset(s))
    return sorted(
        (tuple(sorted(h)) for h in hits if not any(g < h for g in hits)),
        key=lambda t: (len(t), t),
    )


def squarefree_covers(facets, n, k):
    """Minimal supports meeting every facet in at least k vertices."""
    good = []
    for mask in range(1, 1 << n):
        s = {i + 1 for i in range(n) if mask >> i & 1}
        if all(len(s & set(f)) >= k for f in facets):
            good.append(frozenset(s))
    return sorted(
        (tuple(sorted(h)) for h in good if not any(g < h for g in good)),
        key=lambda t: (len(t), t),
    )


def splits(c):
    """All (a, b) with a + b = c and both parts nonzero."""
    for a in it.product(*(range(x + 1) for x in c)):
        if any(a) and a != tuple(c):
            yield a, tuple(x - y for x, y in zip(c, a))


def decomposable(facets, c, k):
    """The splitting condition, checked over every split of c."""
    return any(order(facets, a) + order(facets, b) >= k for a, b in splits(c))


def first_split(facets, n, c, k):
    """The split ``covers.decompose_cover(sc, c, k)`` returns for k >= 1,
    by its former pure-Python route: a minimal vertex cover indicator as
    the first summand when one leaves a (k-1)-cover, else the first a in
    ``it.product`` order with ord(a) + ord(c - a) >= k, or None."""
    c = tuple(c)
    for t in transversals(n, facets):
        a = tuple(1 if v in t else 0 for v in range(1, n + 1))
        if a != c and all(x <= y for x, y in zip(a, c)):
            b = tuple(x - y for x, y in zip(c, a))
            if 1 + order(facets, b) >= k:
                return a, 1, b, k - 1
    for a, b in splits(c):
        oa, ob = order(facets, a), order(facets, b)
        if oa + ob >= k:
            i = min(oa, k)
            return a, i, b, k - i
    return None


def cover_box(facets, n, k):
    """Every vector with entries at most k and order exactly k, in
    ascending lex order."""
    return [c for c in it.product(range(k + 1), repeat=n) if order(facets, c) == k]


def minimal_rows(rows):
    """Minimal exponent tuples under divisibility, in canon_key order, by
    the package's former three routes: subset tests on bitmasks for
    squarefree rows, a numpy sweep above 200 rows, else one pairwise
    componentwise comparison per kept row."""
    uniq = sorted(set(rows), key=canon_key)
    if not uniq:
        return []
    if all(e <= 1 for r in uniq for e in r):
        kept = []
        for r in uniq:
            rm = sum(1 << i for i, e in enumerate(r) if e)
            if not any(km & rm == km for km, _ in kept):
                kept.append((rm, r))
        return [r for _, r in kept]
    if len(uniq) > 200:
        arr = np.array(uniq, dtype=np.int64)
        buf = np.empty_like(arr)
        kept_idx = []
        for i in range(len(uniq)):
            if not kept_idx or not (buf[: len(kept_idx)] <= arr[i]).all(axis=1).any():
                buf[len(kept_idx)] = arr[i]
                kept_idx.append(i)
        return [uniq[i] for i in kept_idx]
    kept = []
    for r in uniq:
        if not any(all(x <= y for x, y in zip(g, r)) for g in kept):
            kept.append(r)
    return kept


def lk(sc, k):
    """``covers.lk(sc, k)`` by the package's former per-degree route: all
    lk_sq(j) for j <= min(k, r) first, then the levels 2..k by one-step
    recursion, every level through ``ideals.sum_ideals``."""
    from coveralg import covers, ideals

    r = min(len(f) for f in sc.facets)
    sq = {j: covers.lk_sq(sc, j) for j in range(1, min(k, r) + 1)}
    level = {1: sq[1]}
    for kk in range(2, k + 1):
        parts = [sq[kk]] if kk <= r else []
        for j in range(max(1, kk - r), kk):
            parts.append(ideals.multiply(level[j], sq[kk - j]))
        level[kk] = ideals.sum_ideals(*parts)
    return level[k]


def equals_ab_dict(sc, max_degree):
    """``equals_ab(sc, max_degree).to_dict()`` by one ``L.contains`` call
    per generator of J, the package's former witness search, over the
    per-degree ``lk`` above."""
    from coveralg import covers

    for k in range(1, max_degree + 1):
        J, L = covers.jk(sc, k), lk(sc, k)
        assert all(J.contains(g) for g in L.gens)
        for g in J.gens:
            if not L.contains(g):
                return {"property": "A-equals-B", "holds": False, "verdict": "exact",
                        "bound": None, "witness": {"vector": list(g), "degree": k}}
    return {"property": "A-equals-B", "holds": True, "verdict": "up-to-bound",
            "bound": max_degree, "witness": None}


def indecomposables(sc, max_degree):
    """Yield (c, k) for the indecomposable k-covers, k = 1..max_degree,
    ascending lex within a degree: every vector with entries at most k
    and order exactly k, kept when the package's split search
    ``covers.decompose_cover`` finds no split.  This per-candidate
    search was the package's own route before the Hilbert-basis sieve;
    decompose_cover itself is checked against ``decomposable`` above."""
    from coveralg import covers

    for k in range(1, max_degree + 1):
        for c in it.product(range(k + 1), repeat=sc.n):
            if order(sc.facets, c) == k and covers.decompose_cover(sc, c, k) is None:
                yield c, k


def a_graded_dict(sc, max_degree):
    """``is_standard_graded_a(sc, max_degree).to_dict()`` from the
    oracle: the witness is the first indecomposable cover of degree 2
    or more."""
    for c, k in indecomposables(sc, max_degree):
        if k >= 2:
            return {"property": "A-standard-graded", "holds": False, "verdict": "exact",
                    "bound": None, "witness": {"vector": list(c), "degree": k}}
    return {"property": "A-standard-graded", "holds": True, "verdict": "up-to-bound",
            "bound": max_degree, "witness": None}


def random_complex_facets(rng, n, max_facets, max_size):
    """Up to max_facets random faces of 1..max_size vertices of 1..n;
    vertices left out of every face stay isolated."""
    return [
        rng.sample(range(1, n + 1), rng.randint(1, min(max_size, n)))
        for _ in range(rng.randint(1, max_facets))
    ]


def canon_key(m):
    # mirror of the package's generator ordering: degree, descending lex
    return (sum(m), tuple(-e for e in m))


def jk_gens(facets, n, k):
    """Minimal generators of the k-cover ideal, straight from the
    definition: entries at most k, order at least k, every decrement
    falls below."""
    gens = []
    for c in it.product(range(k + 1), repeat=n):
        if not any(c) or order(facets, c) < k:
            continue
        smaller = []
        for i in range(n):
            if c[i]:
                d = list(c)
                d[i] -= 1
                smaller.append(tuple(d))
        if all(not any(d) or order(facets, d) < k for d in smaller):
            gens.append(c)
    return sorted(gens, key=canon_key)


def lk_gens(facets, n, k):
    """Minimal generators of the degree-k piece of the algebra the
    squarefree covers generate: all sums of squarefree j-covers with
    j adding up to k, then reduced."""
    r = min(len(f) for f in facets)
    sq = {
        j: [
            tuple(1 if v in s else 0 for v in range(1, n + 1))
            for s in squarefree_covers(facets, n, j)
        ]
        for j in range(1, min(k, r) + 1)
    }
    prods = {0: [(0,) * n]}
    for kk in range(1, k + 1):
        rows = []
        for j in range(1, min(kk, r) + 1):
            for p in prods[kk - j]:
                for s in sq[j]:
                    rows.append(tuple(x + y for x, y in zip(p, s)))
        prods[kk] = rows
    rows = sorted(set(prods[k]), key=canon_key)
    kept = []
    for m in rows:
        if not any(all(x <= y for x, y in zip(g, m)) for g in kept):
            kept.append(m)
    return kept


def borel_members(generators):
    """Swap-down closure of the generators, by fixpoint iteration."""
    members = {tuple(sorted(g)) for g in generators}
    frontier = list(members)
    while frontier:
        f = frontier.pop()
        fs = set(f)
        for j in f:
            for i in range(1, j):
                if i not in fs:
                    g = tuple(sorted(fs - {j} | {i}))
                    if g not in members:
                        members.add(g)
                        frontier.append(g)
    return sorted(members, key=lambda t: (len(t), t))


def multichains(leq, r):
    """Weakly increasing r-tuples in a relation matrix, 1-based."""
    m = len(leq)
    out = [(j,) for j in range(1, m + 1)]
    for _ in range(r - 1):
        out = [
            ch + (j,) for ch in out for j in range(1, m + 1) if leq[ch[-1] - 1][j - 1]
        ]
    return out


def subset_pool(n):
    return [c for s in range(1, n + 1) for c in it.combinations(range(1, n + 1), s)]


def antichains(n):
    """Every nonempty antichain of nonempty subsets of {1..n}.  166
    families at n = 4; don't call this for larger n."""
    subsets = subset_pool(n)
    out = []
    for bits in range(1, 1 << len(subsets)):
        fam = [subsets[i] for i in range(len(subsets)) if bits >> i & 1]
        ok = True
        for a, b in it.combinations(fam, 2):
            if set(a) <= set(b) or set(b) <= set(a):
                ok = False
                break
        if ok:
            out.append(fam)
    return out


def random_antichain(rng, n, max_facets):
    """A random facet family: draw subsets, drop comparable ones."""
    pool = subset_pool(n)
    fam = []
    for _ in range(rng.randint(1, max_facets)):
        cand = pool[rng.randrange(len(pool))]
        if any(set(cand) <= set(f) or set(f) <= set(cand) for f in fam):
            continue
        fam.append(cand)
    return fam


def posets_upto_iso(m):
    """All partial orders on {1..m} up to isomorphism, as full relation
    matrices.  Counts 1, 2, 5, 16 for m = 1..4."""
    perms = list(it.permutations(range(m)))
    pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        rel = [[i == j for j in range(m)] for i in range(m)]
        for t, (i, j) in enumerate(pairs):
            if bits >> t & 1:
                rel[i][j] = True
        ok = True
        for i in range(m):
            for j in range(m):
                if i != j and rel[i][j] and rel[j][i]:
                    ok = False
                for l in range(m):
                    if rel[i][j] and rel[j][l] and not rel[i][l]:
                        ok = False
        if ok:
            canon = min(
                tuple(tuple(rel[p[i]][p[j]] for j in range(m)) for i in range(m))
                for p in perms
            )
            if canon not in seen:
                seen.add(canon)
                out.append(canon)
    return out


def realize_intersection_graph(m, edges):
    """Facet family whose intersection graph is the given graph: one
    private vertex per facet plus one shared vertex per edge.  Returns
    (n, facets) with shared vertices first, privates after."""
    fac = [[100 * i] for i in range(1, m + 1)]
    nxt = 1
    for a, b in edges:
        fac[a - 1].append(nxt)
        fac[b - 1].append(nxt)
        nxt += 1
    verts = sorted({v for f in fac for v in f})
    relab = {v: i for i, v in enumerate(verts, 1)}
    return len(verts), [[relab[v] for v in f] for f in fac]
