"""k-covers of a simplicial complex and the graded pieces they span.

A k-cover of a complex on {1..n} is a nonzero vector c of nonnegative
integers with sum(c_i : i in F) >= k for every facet F.  Its order is
the largest such k.  Three ideals per degree matter here:

* jk: generated by all k-covers (so x^c lies in jk iff c has order >= k);
* lk_sq: generated by the squarefree k-covers;
* lk: generated by all products of squarefree covers whose degrees sum
  to k, i.e. the degree-k piece of the subalgebra the squarefree covers
  generate.

Always lk <= jk.  Equality for every k up to a bound, decomposability of
single covers, and the two standard-gradedness checks are decided here,
along with the skeleton duality identities tying lk_sq to Alexander
duals of skeleton facet ideals.
"""
from __future__ import annotations

import itertools as it
import math
from dataclasses import dataclass

import numpy as np

from . import ideals
from .errors import InputError, InternalCheckError
from .ideals import face_mask, mask_face

_ENUM_LIMIT = 20_000_000
_CHUNK = 1 << 18
# Largest (k+1)^n box that jk enumerates (above it, jk intersects facet
# prime powers) and that equals_ab sieves (above it, it walks the ladder).
JK_ENUM_MAX_BOX = 2_000_000
# Largest n for which lk_sq runs its 2^n direct-scan cross-check.
SQ_CROSS_CHECK_MAX_N = 20


def default_max_degree(sc):
    """Default degree bound for the A-side checks."""
    return sc.dimension + 2


def _degree_bound(sc, max_degree):
    if max_degree is None:
        return default_max_degree(sc)
    if max_degree < 1:
        raise InputError("max_degree must be >= 1")
    return max_degree


def _clean_vector(sc, c):
    c = tuple(int(x) for x in c)
    if len(c) != sc.n:
        raise InputError(f"cover vector has {len(c)} entries, expected {sc.n}")
    if any(x < 0 for x in c):
        raise InputError("cover entries must be nonnegative")
    return c


def cover_order(sc, c):
    """Largest k for which c is a k-cover (0 when some facet is missed)."""
    c = _clean_vector(sc, c)
    if not any(c):
        raise InputError("the zero vector is not a cover")
    return min(sum(c[v - 1] for v in f) for f in sc.facets)


def minimal_vertex_covers(sc):
    """Minimal transversals of the facets, as faces, smallest first."""
    trans = ideals.minimal_transversals(sc.n, list(sc.facet_masks))
    return [mask_face(t) for t in trans]


def decompose_cover(sc, c, k):
    """Split c into an i-cover plus a j-cover with i + j = k, if possible.

    Returns (a, i, b, j) with a + b = c and both parts nonzero, or None
    when c is indecomposable as a k-cover.  Minimal vertex cover
    indicators are tried as the first summand before the exhaustive
    search, so decomposable covers of standard-graded complexes never
    reach the expensive path.  That search scans the split box of all
    a <= c with the shared box enumerator, chunk by chunk in ascending
    lex order, and returns the first a with ord(a) + ord(c - a) >= k.
    """
    c = _clean_vector(sc, c)
    if not any(c):
        raise InputError("the zero vector is not a cover")
    if k < 0:
        raise InputError("k must be nonnegative")
    if cover_order(sc, c) < k:
        raise InputError(f"{c} is not a {k}-cover")
    if k == 0:
        if sum(c) < 2:
            return None
        i = next(i for i, x in enumerate(c) if x)
        a = tuple(1 if j == i else 0 for j in range(sc.n))
        return a, 0, _sub(c, a), 0
    for m in minimal_vertex_covers(sc):
        a = ideals.from_support(m, sc.n)
        if a != c and ideals.divides(a, c):
            b = _sub(c, a)
            if 1 + cover_order(sc, b) >= k:
                return a, 1, b, k - 1
    _check_box(c)
    inc = _incidence(sc)
    col = np.array(c)[:, None]
    sums = inc @ col

    def split(V):
        # facet sums of b = c - a are sums - S; a = 0 and a = c are no split
        S = inc @ V
        ok = S.min(axis=0) + (sums - S).min(axis=0) >= k
        return ok & V.any(axis=0) & (V != col).any(axis=0)

    V = next(_box_chunks(c, split), None)
    if V is None:
        return None
    a = tuple(V[:, 0].tolist())
    i = min(cover_order(sc, a), k)
    return a, i, _sub(c, a), k - i


def _sub(c, a):
    return tuple(x - y for x, y in zip(c, a))


def _incidence(sc):
    return np.array(
        [[m >> i & 1 for i in range(sc.n)] for m in sc.facet_masks], dtype=np.int64
    )


def _int_dtype(limit):
    """Narrowest signed integer dtype holding 0..limit."""
    for dtype in (np.int8, np.int16, np.int32):
        if limit <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def _box_chunks(bounds, keep_fn):
    """Yield the vectors 0 <= v <= bounds that keep_fn keeps, chunk by chunk.

    The one box enumerator: the (k+1)^n cover box of cover_candidates
    and jk, the split box of decompose_cover and the box of the poset
    sweep.  Vectors run in ascending lex order (first entry most
    significant), _CHUNK at a time, as (cells, N) arrays with one
    contiguous plane per cell, in the narrowest dtype holding
    max(bounds).  The fewest trailing cells whose sub-box spans at least
    _CHUNK / 64 vectors, but never more than _CHUNK, form a low block,
    built once and copied into each run; the high cells are constant
    along a run and filled once per run, so a chunk takes at most about
    64 runs.  When the last radix alone exceeds _CHUNK, that cell is
    filled per run from np.arange instead.  keep_fn(V) returns a mask
    of the columns to keep, and the kept columns of each chunk with any
    are yielded, so a caller that stops early holds one chunk.  Callers
    bound the box size themselves.
    """
    radix = [b + 1 for b in bounds]
    cells = len(radix)
    dtype = _int_dtype(max(bounds))
    width, span = 0, 1
    while width < cells and span * radix[cells - 1 - width] <= _CHUNK:
        width += 1
        span *= radix[cells - width]
        if span >= _CHUNK >> 6:
            break
    if width:
        low = np.indices(radix[cells - width :], dtype=dtype).reshape(width, -1)
    else:
        width, span, low = 1, radix[-1], None
    high = cells - width
    total = math.prod(radix)
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        V = np.empty((cells, stop - start), dtype=dtype)
        pos = 0
        for block in range(start // span, (stop - 1) // span + 1):
            lo = max(start - block * span, 0)
            hi = min(stop - block * span, span)
            run = slice(pos, pos + hi - lo)
            rest = block
            for t in range(high - 1, -1, -1):
                rest, V[t, run] = divmod(rest, radix[t])
            V[high:, run] = np.arange(lo, hi, dtype=dtype) if low is None else low[:, lo:hi]
            pos += hi - lo
        kept = V[:, keep_fn(V)]
        if kept.shape[1]:
            yield kept


def _check_box(bounds):
    """Refuse a box 0..bounds of more than _ENUM_LIMIT vectors."""
    if math.prod(b + 1 for b in bounds) > _ENUM_LIMIT:
        raise InputError(
            f"box of more than {_ENUM_LIMIT} vectors to enumerate; "
            "lower the degree bound or the cover entries"
        )


def _kept_rows(bounds, keep_fn):
    """All vectors _box_chunks keeps, as int64 (rows, n) in lex order."""
    _check_box(bounds)
    rows = [V.T for V in _box_chunks(bounds, keep_fn)]
    return np.concatenate([np.empty((0, len(bounds)), dtype=np.int64), *rows], dtype=np.int64)


def cover_candidates(sc, k):
    """Int64 array of the vectors with entries <= k and cover order exactly k.

    Rows ascend in lex order; they come from the shared box enumerator
    without any per-row Python objects.
    """
    inc = _incidence(sc)
    return _kept_rows((k,) * sc.n, lambda V: (inc @ V).min(axis=0) == k)


def _lowerable(V, S, inc, k):
    """Mask of the entries of the k-covers V, (n, N) with facet sums S,
    that can drop by one with the column still a k-cover: the nonzero
    entries lying in no facet whose sum is exactly k."""
    return (V > 0) & (inc.T @ (S == k) == 0)


def _indecomposables(sc, max_degree):
    """Yield (k, H) for k = 1..max_degree: H holds the indecomposable
    covers of maximal order k as int64 rows, ascending lex; see
    indecomposable_covers."""
    inc = _incidence(sc)
    basis = []
    for k in range(1, max_degree + 1):
        C = cover_candidates(sc, k)
        S = C @ inc.T
        keep = ~_lowerable(C.T, S.T, inc, k).any(axis=0)
        for h, sh, i in basis:
            keep &= ~((C >= h).all(axis=1) & ((S - sh).min(axis=1) >= k - i))
        H = C[keep]
        basis.extend((h, sh, k) for h, sh in zip(H, S[keep]))
        yield k, H


def indecomposable_covers(sc, max_degree, threads=1):
    """All indecomposable k-covers with k <= max_degree, by degree.

    Each cover is listed once, at its maximal order k, ascending lex
    within a degree.  The pairs (c, k) with ord(c) >= k form the cover
    monoid, whose Hilbert basis is the units (e_j, 0) and these covers.
    A sieve finds it degree by degree: a vector c of order exactly k is
    decomposable iff some basis element (h, i) of lower degree has
    h <= c and ord(c - h) >= k - i, tested over all candidates for the
    units at once (e_j splits off iff c_j > 0 and no facet through j has
    sum exactly k) and then one basis element at a time; the survivors
    join the basis.  Entries of an
    indecomposable k-cover never exceed k (capping an entry at k keeps
    every facet sum bound and divides the original), so the bounded
    candidate box misses nothing.  ``threads`` is accepted and ignored.
    """
    return [
        (tuple(h), k)
        for k, H in _indecomposables(sc, _degree_bound(sc, max_degree))
        for h in H.tolist()
    ]


def prime_power_ideal(n, face, k):
    """P_F^k: all degree-k monomials supported on the face F."""
    gens = []
    for combo in it.combinations_with_replacement(face, k):
        m = [0] * n
        for v in combo:
            m[v - 1] += 1
        gens.append(tuple(m))
    return ideals.MonomialIdeal(n, tuple(sorted(gens, key=ideals.canon_key)))


def jk(sc, k):
    """Ideal generated by all k-covers; intersection of facet prime powers.

    When the box (k+1)^n holds at most JK_ENUM_MAX_BOX (2,000,000)
    vectors, the minimal generators are enumerated directly (vectors of
    order exactly k none of whose decrements is still a k-cover); above
    it the P_F^k are intersected one at a time.  The two routes agree
    and the enumeration one is far cheaper at desk scale.
    """
    if k < 1:
        raise InputError("jk wants k >= 1")
    if (k + 1) ** sc.n <= JK_ENUM_MAX_BOX:
        inc = _incidence(sc)

        def keep(V):
            S = inc @ V
            return (S.min(axis=0) >= k) & V.any(axis=0) & ~_lowerable(V, S, inc, k).any(axis=0)

        G = _kept_rows((k,) * sc.n, keep)[::-1]
        # descending lex, then a stable sort by degree: canon_key order
        G = G[np.argsort(G.sum(axis=1), kind="stable")]
        return ideals.MonomialIdeal(sc.n, tuple(map(tuple, G.tolist())))
    return ideals.intersect_many(
        [prime_power_ideal(sc.n, f, k) for f in sc.facets]
    )


def lk_sq(sc, k):
    """Ideal of the squarefree k-covers.

    Computed as the intersection of the squarefree powers P_F^<k> and,
    for n <= SQ_CROSS_CHECK_MAX_N, also by a direct scan of all 2^n
    supports; a mismatch raises.  Above that limit only the intersection
    route runs and the cross-check is skipped.  Zero when k exceeds the
    smallest facet size.
    """
    if k < 1:
        raise InputError("lk_sq wants k >= 1")
    r = min(len(f) for f in sc.facets)
    if k > r:
        return ideals.zero_ideal(sc.n)
    via_intersection = ideals.intersect_many(
        [
            ideals.MonomialIdeal(
                sc.n,
                tuple(
                    sorted(
                        (ideals.from_support(s, sc.n) for s in it.combinations(f, k)),
                        key=ideals.canon_key,
                    )
                ),
            )
            for f in sc.facets
        ]
    )
    if sc.n <= SQ_CROSS_CHECK_MAX_N:
        direct = [ideals.from_support(mask_face(m), sc.n) for m in _squarefree_covers_direct(sc, k)]
        if tuple(sorted(direct, key=ideals.canon_key)) != via_intersection.gens:
            raise InternalCheckError(
                f"squarefree {k}-cover routes disagree on {sc!r}"
            )
    return via_intersection


def _squarefree_covers_direct(sc, k):
    """Support masks of the minimal squarefree k-covers, ascending, by a
    scan of all 2^n supports.

    Support masks are flagged as k-covers facet by facet; a cover is
    minimal when no one-bit removal is still a cover, which suffices
    because the covers are closed upward.  In a (2^(n-1-i), 2, 2^i) view
    of the flags, middle index 1 holds the masks with bit i set and
    index 0 the same masks with it cleared, so removals need no index
    arrays and memory stays O(2^n) bytes.
    """
    masks = np.arange(1 << sc.n, dtype=np.uint32)
    cover = np.ones(1 << sc.n, dtype=bool)
    for f in sc.facet_masks:
        cover &= np.bitwise_count(masks & np.uint32(f)) >= k
    minimal = cover.copy()
    for i in range(sc.n):
        split = (-1, 2, 1 << i)
        minimal.reshape(split)[:, 1, :] &= ~cover.reshape(split)[:, 0, :]
    return np.flatnonzero(minimal).tolist()


def _lk_levels(sc, bound):
    """Yield lk(sc, 1), ..., lk(sc, bound) in turn.

    Level k is the sum of lk_sq(k) (when k <= r, the smallest facet
    size) and the products level(j) * lk_sq(k - j) over j >= max(1, k - r).
    Each lk_sq and each level is built once, when first needed, so a
    caller that stops early builds nothing beyond its last degree.
    """
    r = min(len(f) for f in sc.facets)
    sq, level = {}, {}
    for k in range(1, bound + 1):
        parts = []
        if k <= r:
            sq[k] = lk_sq(sc, k)
            parts.append(sq[k])
        for j in range(max(1, k - r), k):
            parts.append(ideals.multiply(level[j], sq[k - j]))
        level[k] = parts[0] if len(parts) == 1 else ideals.sum_ideals(*parts)
        yield level[k]


def lk(sc, k):
    """Degree-k piece of the algebra generated by squarefree covers.

    Sum over all ways to write k = k_1 + ... + k_s of the products
    lk_sq(k_1) * ... * lk_sq(k_s): the last level of _lk_levels.
    """
    if k < 1:
        raise InputError("lk wants k >= 1")
    *_, level = _lk_levels(sc, k)
    return level


@dataclass(frozen=True, slots=True)
class Witness:
    vector: tuple
    degree: int

    def to_dict(self):
        return {"vector": list(self.vector), "degree": self.degree}


@dataclass(frozen=True, slots=True)
class GradedVerdict:
    prop: str
    holds: bool
    exact: bool
    bound: int | None
    witness: Witness | None

    def to_dict(self):
        return {
            "property": self.prop,
            "holds": self.holds,
            "verdict": "exact" if self.exact else "up-to-bound",
            "bound": self.bound,
            "witness": self.witness.to_dict() if self.witness else None,
        }


def is_standard_graded_b(sc):
    """Whether the squarefree cover algebra is generated in degree one.

    The algebra is generated in degrees <= r (the smallest facet size),
    so checking lk_sq(k) == (dual ideal)^<k> for k = 2..r settles the
    question exactly, no degree bound needed.
    """
    r = min(len(f) for f in sc.facets)
    dual = ideals.alexander_dual(sc.facet_ideal())
    for k in range(2, r + 1):
        lhs = lk_sq(sc, k)
        rhs = ideals.squarefree_power(dual, k)
        if not rhs <= lhs:
            raise InternalCheckError("products of covers must be covers")
        for g in lhs.gens:
            if not rhs.contains(g):
                return GradedVerdict("B-standard-graded", False, True, None, Witness(g, k))
    return GradedVerdict("B-standard-graded", True, True, None, None)


def is_standard_graded_a(sc, max_degree=None, threads=1):
    """Whether every cover splits into 1-covers, up to a degree bound.

    A failure is exact (the witness is the first indecomposable k-cover
    with 2 <= k <= bound, in the order of indecomposable_covers); a pass
    only certifies degrees up to the bound.  ``threads`` is accepted and
    ignored.
    """
    bound = _degree_bound(sc, max_degree)
    for k, H in _indecomposables(sc, bound) if bound > 1 else ():
        if k >= 2 and len(H):
            witness = Witness(tuple(H[0].tolist()), k)
            return GradedVerdict("A-standard-graded", False, True, None, witness)
    return GradedVerdict("A-standard-graded", True, False, bound, None)


def _divisible(Q, G):
    """Mask of the rows of Q that some row of G divides."""
    hit = np.zeros(len(Q), dtype=bool)
    for g in G:
        hit |= (Q >= g).all(axis=1)
    return hit


def equals_ab(sc, max_degree=None):
    """Whether jk == lk for every k up to the bound, i.e. A = B there.

    The indecomposable covers are the Hilbert basis of the cover monoid,
    so A = B up to degree K exactly when every indecomposable cover of
    degree <= K is squarefree.  When the box (bound+1)^n holds at most
    JK_ENUM_MAX_BOX (2,000,000) vectors, the verdict reads the sieve of
    indecomposable_covers degree by degree and builds no ideal; above
    it, where jk stops enumerating too, it walks the _lk_levels ladder
    beside jk.  False means some cover is not a combination of
    squarefree ones; the witness is the first minimal generator of jk
    outside lk at the lowest failing degree k.  Such a generator is
    exactly a non-squarefree indecomposable k-cover, so the sieve route
    returns the canon_key-least one (degree first, then descending lex).
    Each route checks itself against independent code and raises
    InternalCheckError on a mismatch: the ladder checks lk <= jk; the
    sieve requires every squarefree survivor of degree k to be a minimal
    squarefree k-cover of the direct 2^n scan that lk_sq shares (n <= 20
    on this route), and decompose_cover to find no split of a witness.
    """
    bound = _degree_bound(sc, max_degree)
    if (bound + 1) ** sc.n > JK_ENUM_MAX_BOX:
        return _equals_ab_ladder(sc, bound)
    bits = 1 << np.arange(sc.n, dtype=np.int64)
    for k, H in _indecomposables(sc, bound):
        flat = (H < 2).all(axis=1)
        masks = set((H[flat] @ bits).tolist())
        if masks and not masks <= set(_squarefree_covers_direct(sc, k)):
            raise InternalCheckError(
                f"the sieve kept a squarefree {k}-cover the 2^n scan calls not minimal on {sc!r}"
            )
        if not flat.all():
            g = min(map(tuple, H[~flat].tolist()), key=ideals.canon_key)
            if decompose_cover(sc, g, k) is not None:
                raise InternalCheckError(f"the sieve kept the decomposable {k}-cover {g}")
            return GradedVerdict("A-equals-B", False, True, None, Witness(g, k))
    return GradedVerdict("A-equals-B", True, False, bound, None)


def _equals_ab_ladder(sc, bound):
    """equals_ab by the lk ladder: the first generator of jk outside lk,
    with numpy divisibility tests over the generator arrays."""
    for k, L in enumerate(_lk_levels(sc, bound), start=1):
        J = jk(sc, k)
        Jg = np.array(J.gens, dtype=np.int64).reshape(-1, sc.n)
        Lg = np.array(L.gens, dtype=np.int64).reshape(-1, sc.n)
        if not _divisible(Lg, Jg).all():
            raise InternalCheckError("lk must sit inside jk")
        outside = np.flatnonzero(~_divisible(Jg, Lg))
        if outside.size:
            g = J.gens[int(outside[0])]
            return GradedVerdict("A-equals-B", False, True, None, Witness(g, k))
    return GradedVerdict("A-equals-B", True, False, bound, None)


def partition_into_vertex_covers(sc, cover_set, k):
    """Partition the set C into k disjoint vertex covers, if possible.

    C must be given as a set of vertices whose indicator is a k-cover.
    Returns the first partition found by the canonical backtracking
    (vertices ascending, parts filled smallest index first), or None.
    """
    cset = tuple(sorted({int(v) for v in cover_set}))
    if not cset:
        raise InputError("empty vertex set")
    ind = ideals.from_support(cset, sc.n)
    if cover_order(sc, ind) < k:
        raise InputError(f"{set(cset)} is not a {k}-cover")
    if k < 1:
        raise InputError("k must be >= 1")
    fmasks = sc.facet_masks
    parts = [0] * k

    def covers_all(mask):
        return all(mask & f for f in fmasks)

    def rec(pos):
        if pos == len(cset):
            return all(covers_all(p) for p in parts)
        rest = face_mask(cset[pos:])
        for p in parts:
            if not covers_all(p | rest):
                return False
        bit = 1 << (cset[pos] - 1)
        used = k
        for j in range(k):
            if parts[j] == 0:
                used = j + 1
                break
        for j in range(min(used, k)):
            parts[j] |= bit
            if rec(pos + 1):
                return True
            parts[j] &= ~bit
        return False

    if rec(0):
        return [mask_face(p) for p in parts]
    return None


@dataclass(frozen=True, slots=True)
class DualityReport:
    n: int
    d: int
    pure: bool
    equality_by_degree: tuple
    b_standard_graded: bool
    grid_checked: bool
    corollary_equalities: tuple | None

    def to_dict(self):
        return {
            "n": self.n,
            "d": self.d,
            "pure": self.pure,
            "equality_by_degree": list(self.equality_by_degree),
            "b_standard_graded": self.b_standard_graded,
            "grid_checked": self.grid_checked,
            "corollary_equalities": (
                None
                if self.corollary_equalities is None
                else list(self.corollary_equalities)
            ),
        }


def verify_duality(sc):
    """Check the skeleton duality identities on sc, raising on violation.

    (a) lk_sq(sc, k) sits inside the dual of the (d-k)-skeleton's facet
        ideal for k = 1..d, where d = dim + 1;
    (b) equality holds at k exactly when sc is pure or k = 1;
    (c) for pure sc the full grid identity
        lk_sq(skeleton(d-i), j) == lk_sq(skeleton(d-j), i) holds;
    (d) for pure sc, dual(skeleton(q)) == dual(sc)^<d-q> for every q
        exactly when the squarefree cover algebra is standard graded.

    Any failed assertion raises InternalCheckError; the returned report
    records what was computed.
    """
    d = sc.dimension + 1
    eq = []
    for k in range(1, d + 1):
        lhs = lk_sq(sc, k)
        rhs = ideals.alexander_dual(sc.skeleton(d - k).facet_ideal())
        if not lhs <= rhs:
            raise InternalCheckError(
                f"squarefree {k}-covers escape the skeleton dual on {sc!r}"
            )
        eq.append(ideals.equals_ideal(lhs, rhs))
    for k, e in enumerate(eq, start=1):
        if e != (sc.is_pure or k == 1):
            raise InternalCheckError(
                f"skeleton-dual equality at degree {k} contradicts purity on {sc!r}"
            )
    bsg = is_standard_graded_b(sc)
    grid_checked = False
    cor = None
    if sc.is_pure:
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                lhs = lk_sq(sc.skeleton(d - i), j)
                rhs = lk_sq(sc.skeleton(d - j), i)
                if not ideals.equals_ideal(lhs, rhs):
                    raise InternalCheckError(
                        f"duality grid fails at (i={i}, j={j}) on {sc!r}"
                    )
        grid_checked = True
        dual = ideals.alexander_dual(sc.facet_ideal())
        cor = tuple(
            ideals.equals_ideal(
                ideals.alexander_dual(sc.skeleton(q).facet_ideal()),
                ideals.squarefree_power(dual, d - q),
            )
            for q in range(0, d)
        )
        if all(cor) != bsg.holds:
            raise InternalCheckError(
                f"skeleton-dual powers disagree with the degree-one check on {sc!r}"
            )
    return DualityReport(
        n=sc.n,
        d=d,
        pure=sc.is_pure,
        equality_by_degree=tuple(eq),
        b_standard_graded=bsg.holds,
        grid_checked=grid_checked,
        corollary_equalities=cor,
    )
