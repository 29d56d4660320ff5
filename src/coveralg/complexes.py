"""Simplicial complexes on the vertex set {1, ..., n}.

A complex is stored by its facets (inclusion-maximal faces).  Arbitrary
face lists are accepted and reduced to facets at construction; the
``normalized`` flag records whether anything was dropped.  Facets are
kept in a canonical order, by cardinality then lexicographically, so two
complexes with the same facets always compare equal.

Vertex labels are 1-based everywhere in the public interface.  Facets
are also kept as bitmasks (bit i for vertex i+1), through the bitmask
helpers of ``ideals``.
"""
from __future__ import annotations

import functools as ft
import itertools as it
import json

from . import ideals
from .errors import InputError, listed, strict_int
from .ideals import face_mask, mask_face  # mask_face: re-exported


class ComplexError(InputError):
    """Invalid complex input."""


def clean_face(vertices, n):
    """Sorted tuple of distinct labels in 1..n; rejects duplicates."""
    vs = [v if type(v) is int else strict_int(v, "vertex") for v in listed(vertices, "face")]
    if not vs:
        raise ComplexError("empty face")
    if len(set(vs)) != len(vs):
        raise ComplexError(f"repeated vertex in face {vs}")
    for v in vs:
        if not 1 <= v <= n:
            raise ComplexError(f"vertex {v} out of range 1..{n}")
    return tuple(sorted(vs))


def face_key(face):
    return (len(face), face)


class SimplicialComplex:
    def __init__(self, n, faces):
        n = strict_int(n, "vertex count")
        if n < 1:
            raise ComplexError("need at least one vertex")
        cleaned = [clean_face(f, n) for f in listed(faces, "facets")]
        if not cleaned:
            raise ComplexError("a complex needs at least one facet")
        facets = []
        for f in sorted(set(cleaned), key=face_key, reverse=True):
            if not any(set(f) <= set(g) for g in facets):
                facets.append(f)
        self.n = n
        self.facets = tuple(sorted(facets, key=face_key))
        self.normalized = len(cleaned) != len(self.facets)

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.n == other.n
            and self.facets == other.facets
        )

    def __hash__(self):
        return hash((self.n, self.facets))

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, f)) + "}" for f in self.facets)
        return f"SimplicialComplex(n={self.n}, facets=[{inner}])"

    @ft.cached_property
    def facet_masks(self):
        return tuple(face_mask(f) for f in self.facets)

    @ft.cached_property
    def dimension(self):
        return max(len(f) for f in self.facets) - 1

    @ft.cached_property
    def is_pure(self):
        return len({len(f) for f in self.facets}) == 1

    @ft.cached_property
    def vertices_covered(self):
        """Vertices lying in at least one facet."""
        seen = set()
        for f in self.facets:
            seen.update(f)
        return tuple(sorted(seen))

    def isolated_vertices(self):
        covered = set(self.vertices_covered)
        return tuple(v for v in range(1, self.n + 1) if v not in covered)

    def skeleton(self, q):
        """Subcomplex of faces of dimension at most q."""
        if not 0 <= q <= self.dimension:
            raise ComplexError(f"skeleton dimension {q} outside 0..{self.dimension}")
        faces = []
        for f in self.facets:
            if len(f) <= q + 1:
                faces.append(f)
            else:
                faces.extend(_subsets(f, q + 1))
        return SimplicialComplex(self.n, faces)

    def restriction(self, w):
        """Subcomplex of facets contained in w, or None if there are none."""
        wset = set(clean_face(w, self.n))
        kept = [f for f in self.facets if set(f) <= wset]
        if not kept:
            return None
        return SimplicialComplex(self.n, kept)

    def facet_ideal(self):
        return ideals.minimalize(
            self.n, [ideals.from_support(f, self.n) for f in self.facets]
        )

    def to_json(self):
        return json.dumps(
            {"n": self.n, "facets": [list(f) for f in self.facets]}, sort_keys=True
        )

    def to_text(self):
        lines = [str(self.n)]
        lines.extend(" ".join(str(v) for v in f) for f in self.facets)
        return "\n".join(lines) + "\n"


def _subsets(face, size):
    return [tuple(c) for c in it.combinations(face, size)]


def from_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ComplexError(f"bad JSON: {exc}") from None
    if not isinstance(data, dict) or "n" not in data or "facets" not in data:
        raise ComplexError('complex JSON needs keys "n" and "facets"')
    return SimplicialComplex(data["n"], data["facets"])


def from_text(text):
    """Plain format: first line n, then one facet per line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ComplexError("empty complex file")
    if not is_decimal(lines[0]):
        raise ComplexError(f"first line must be the vertex count, got {lines[0]!r}")
    faces = [
        [int(t) if is_decimal(t) else t for t in ln.replace(",", " ").split()]
        for ln in lines[1:]
    ]
    return SimplicialComplex(int(lines[0]), faces)


def is_decimal(token):
    """Whether a text token is an integer literal: decimal digits only."""
    return token.isascii() and token.isdigit()
