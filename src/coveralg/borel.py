"""Borel sets of faces: closed under swapping a vertex for a smaller one.

A face G precedes H (same cardinality) when the sorted vertex tuples
compare componentwise.  The Borel set B(G_1..G_m) collects every face
preceding some generator; as supports of squarefree monomials these are
exactly the squarefree strongly stable ideals.  For a principal B(F)
the skeletons, the Alexander dual and the squarefree cover ideals are
again Borel with explicit generators, and the constructions here verify
themselves against the generic machinery on every call.
"""
from __future__ import annotations

import itertools as it
from dataclasses import dataclass

from . import covers, ideals
from .complexes import SimplicialComplex, clean_face, face_key
from .errors import InputError, InternalCheckError
from .ideals import face_mask, mask_face


def precedes(g, h):
    """Componentwise comparison of sorted faces; False on size mismatch."""
    g = tuple(sorted(g))
    h = tuple(sorted(h))
    if len(g) != len(h):
        return False
    return all(a <= b for a, b in zip(g, h))


@dataclass(frozen=True, slots=True)
class BorelSpec:
    n: int
    generators: tuple

    def __str__(self):
        inner = "; ".join(",".join(map(str, g)) for g in self.generators)
        return f"B[{inner}] on 1..{self.n}"


def borel_spec(n, generators):
    gens = sorted({clean_face(g, n) for g in generators}, key=face_key)
    if not gens:
        raise InputError("a Borel spec needs at least one generator")
    return BorelSpec(int(n), tuple(gens))


def expand(spec):
    """All faces preceding some generator, sorted by size then lex.

    The result is closed under the exchange move (replace a vertex by a
    smaller absent one); that is re-checked on every call.
    """
    members = set()
    for g in spec.generators:
        top = g[-1]
        for h in it.combinations(range(1, top + 1), len(g)):
            if all(a <= b for a, b in zip(h, g)):
                members.add(h)
    out = tuple(sorted(members, key=face_key))
    for f in out:
        fs = set(f)
        for j in f:
            for i in range(1, j):
                if i not in fs:
                    moved = tuple(sorted(fs - {j} | {i}))
                    if moved not in members:
                        raise InternalCheckError(
                            f"expansion of {spec} not exchange-closed at {f}"
                        )
    return out


def complex_of(spec, n=None):
    """Complex whose facets are the maximal members of the expansion."""
    return SimplicialComplex(n if n is not None else spec.n, expand(spec))


def _principal(face, n=None):
    face = tuple(sorted(set(face)))
    if not face:
        raise InputError("empty face")
    amb = face[-1] if n is None else int(n)
    return borel_spec(amb, [face])


def skeleton_gens(spec, q):
    """Generators of the q-skeleton: top min(size, q+1) vertices of each.

    Verified against the facet-level skeleton of the expanded complex.
    """
    sc = complex_of(spec)
    if not 0 <= q <= sc.dimension:
        raise InputError(f"skeleton dimension {q} outside 0..{sc.dimension}")
    gens = [g[-min(len(g), q + 1):] for g in spec.generators]
    result = borel_spec(spec.n, gens)
    if complex_of(result) != sc.skeleton(q):
        raise InternalCheckError(f"skeleton generators wrong for {spec} at q={q}")
    return result


def dual_gens(face, n=None):
    """Borel generators H_q = {q..i_q} of the Alexander dual of B(F).

    F = {i_1 < ... < i_d}.  The expansion generates the dual ideal but
    not minimally; validation is at the ideal level.
    """
    spec = _principal(face, n)
    f = spec.generators[0]
    amb = spec.n
    gens = [tuple(range(q, f[q - 1] + 1)) for q in range(1, len(f) + 1)]
    result = borel_spec(amb, gens)
    expected = ideals.alexander_dual(complex_of(spec).facet_ideal())
    got = ideals.minimalize(
        amb, [ideals.from_support(h, amb) for h in expand(result)]
    )
    if not ideals.equals_ideal(got, expected):
        raise InternalCheckError(f"dual generators wrong for {spec}")
    return result


def cover_gens_principal(face, k, n=None):
    """Borel generators of the squarefree k-cover ideal of B(F).

    The generators are the ranges {q, ..., i_{k+q-1}} for q = 1 up to
    d-k+1; their expansion generates lk_sq of the expanded complex
    (again not necessarily minimally), which is verified each call.
    """
    spec = _principal(face, n)
    f = spec.generators[0]
    d = len(f)
    if not 1 <= k <= d:
        raise InputError(f"cover degree {k} outside 1..{d}")
    gens = [tuple(range(q, f[k + q - 2] + 1)) for q in range(1, d - k + 2)]
    result = borel_spec(spec.n, gens)
    expected = covers.lk_sq(complex_of(spec), k)
    got = ideals.minimalize(
        spec.n, [ideals.from_support(h, spec.n) for h in expand(result)]
    )
    if not ideals.equals_ideal(got, expected):
        raise InternalCheckError(f"cover generators wrong for {spec}, k={k}")
    return result


def cover_ideal_principal(face, k, n=None):
    """Minimal generators of the squarefree k-cover ideal of B(F)."""
    spec = _principal(face, n)
    return covers.lk_sq(complex_of(spec), k)


def level_sets(face, n=None):
    """For each level 1..d, the members of the k-cover Borel set as masks."""
    spec = _principal(face, n)
    d = len(spec.generators[0])
    out = {}
    for k in range(1, d + 1):
        out[k] = tuple(
            face_mask(h) for h in expand(cover_gens_principal(face, k, n=spec.n))
        )
    return out


def decompose_principal(face, c, k, n=None):
    """Split a non-squarefree k-cover of B(F) off a squarefree r-cover.

    Picks the largest r such that some member of the level-r Borel set
    sits inside the support of c (ties broken by the lexicographically
    smallest member), and returns (a, r, b) where a is that member's
    indicator and b = c - a is a (k-r)-cover.  Requires k to be the
    exact order of c and c to be non-squarefree.
    """
    c = tuple(int(x) for x in c)
    amb = len(c) if n is None else int(n)
    spec = _principal(face, amb)
    if len(c) != spec.n:
        raise InputError(f"cover vector has {len(c)} entries, expected {spec.n}")
    sc = complex_of(spec)
    if all(x <= 1 for x in c):
        raise InputError("cover is already squarefree, nothing to split")
    order = covers.cover_order(sc, c)
    if k != order:
        raise InputError(f"k={k} but the cover has order {order}")
    if k < 1:
        raise InputError("cover must have positive order")
    supp = face_mask(ideals.support(c))
    levels = level_sets(face, n=spec.n)
    d = len(spec.generators[0])
    chosen = None
    for lvl in range(d, 0, -1):
        inside = [m for m in levels[lvl] if m & ~supp == 0]
        if inside:
            chosen = (lvl, min(mask_face(m) for m in inside))
            break
    if chosen is None:
        raise InternalCheckError(f"no cover set inside the support of {c}")
    r, aface = chosen
    if r > k:
        raise InternalCheckError(f"level {r} exceeds the order {k}")
    a = ideals.from_support(aface, spec.n)
    if covers.cover_order(sc, a) < r:
        raise InternalCheckError(f"{aface} is not an {r}-cover of {spec}")
    b = tuple(x - y for x, y in zip(c, a))
    if k - r >= 1 and covers.cover_order(sc, b) < k - r:
        raise InternalCheckError(f"residual {b} is not a {k - r}-cover")
    return a, r, b


def has_top_degree_generator(face):
    """Whether the cover algebra of B(F) needs a generator in degree d.

    Happens exactly when 1 is not a vertex of F; the full statement
    (the all-ones vector on [max F] is then an indecomposable d-cover)
    is cross-checked in the tests via the generic cover engine.
    """
    face = tuple(sorted(set(face)))
    if not face:
        raise InputError("empty face")
    return face[0] != 1


def squarefree_borel_spec(I):
    """Recognize a squarefree Borel ideal; None when some swap escapes.

    Checks the exchange condition on the minimal generators (which
    suffices) and returns the spec built from the Borel-maximal
    generator supports.
    """
    if I.is_zero:
        raise InputError("the zero ideal is not a candidate here")
    if not all(ideals.is_squarefree(g) for g in I.gens):
        raise InputError("squarefree ideal expected")
    supports = [ideals.support(g) for g in I.gens]
    for s in supports:
        ss = set(s)
        for j in s:
            for i in range(1, j):
                if i not in ss:
                    moved = ideals.from_support(sorted(ss - {j} | {i}), I.n)
                    if not I.contains(moved):
                        return None
    maximal = []
    for s in supports:
        if not any(s != t and precedes(s, t) for t in supports):
            maximal.append(s)
    spec = borel_spec(I.n, maximal)
    regen = ideals.minimalize(
        I.n, [ideals.from_support(h, I.n) for h in expand(spec)]
    )
    if not ideals.equals_ideal(regen, I):
        raise InternalCheckError(f"Borel spec {spec} does not regenerate the ideal")
    return spec
