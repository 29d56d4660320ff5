"""Monomial ideals in Z[x1..xn], represented by exponent vectors.

A monomial is a tuple of n nonnegative exponents; an ideal is stored by
its unique minimal generating set, sorted by (total degree, then
descending lexicographic on exponents) so equal ideals compare equal.
The zero ideal is the one with no generators.

Divisibility is componentwise <=, lcm is componentwise max.  Reducing a
generator list to its minimal elements packs each exponent vector into
one int with a guard bit atop every coordinate field, so one subtraction
and one mask test decide divisibility (see ``_minimal_rows``).
Squarefree monomials are handled through bitmasks (bit i set means
x_{i+1} occurs) which keeps Alexander duals and squarefree powers cheap.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, listed, strict_int

Monomial = tuple


def degree(m):
    return sum(m)


def divides(a, b):
    """True when x^a divides x^b."""
    return all(ai <= bi for ai, bi in zip(a, b))


def lcm(a, b):
    return tuple(max(ai, bi) for ai, bi in zip(a, b))


def mul(a, b):
    return tuple(ai + bi for ai, bi in zip(a, b))


def is_squarefree(m):
    return all(e <= 1 for e in m)


def support(m):
    """1-based labels of the variables occurring in m."""
    return tuple(i + 1 for i, e in enumerate(m) if e > 0)


def from_support(vertices, n):
    """Squarefree monomial with the given 1-based support."""
    m = [0] * n
    for v in vertices:
        m[v - 1] = 1
    return tuple(m)


def face_mask(face):
    """Bitmask of a set of 1-based vertices: bit i for vertex i+1."""
    mask = 0
    for v in face:
        mask |= 1 << (v - 1)
    return mask


def mask_face(mask):
    """Ascending 1-based vertices of a bitmask, one step per set bit."""
    face = []
    while mask:
        low = mask & -mask
        face.append(low.bit_length())
        mask ^= low
    return tuple(face)


def canon_key(m):
    # degree first, then descending lex, so e.g. x1*x2 sorts before x1*x3
    return (sum(m), tuple(-e for e in m))


@dataclass(frozen=True, slots=True)
class MonomialIdeal:
    """A monomial ideal given by its sorted minimal generators."""

    n: int
    gens: tuple

    @property
    def is_zero(self):
        return not self.gens

    def contains(self, m):
        if len(m) != self.n:
            raise InputError(f"monomial has {len(m)} exponents, expected {self.n}")
        return any(divides(g, m) for g in self.gens)

    def __le__(self, other):
        """Ideal containment: self is a subideal of other."""
        return all(other.contains(g) for g in self.gens)

    def __str__(self):
        return render_ideal(self)


def zero_ideal(n):
    return MonomialIdeal(n, ())


def _minimal_rows(rows):
    """Minimal elements of a set of exponent tuples under divisibility.

    The unique rows are swept in canon_key order, where every proper
    divisor of a row comes before it, and a row is kept when no kept
    row divides it.  Each row is packed into one int with a field of
    w = (largest exponent).bit_length() + 1 bits per coordinate; the top
    bit of each field is a guard, and H is the mask of the guard bits.
    Every exponent fits below its guard, so no borrow of (B | H) - A
    crosses a field, a field keeps its guard bit iff b_i >= a_i, and
    x^a divides x^b iff ((B | H) - A) & H == H.
    """
    uniq = sorted(set(rows), key=canon_key)
    if not uniq:
        return []
    w = max(map(max, uniq)).bit_length() + 1
    H = 0
    for _ in uniq[0]:
        H = H << w | 1 << (w - 1)
    kept = []
    out = []
    for r in uniq:
        a = 0
        for e in r:
            a = a << w | e
        b = a | H
        for k in kept:
            if (b - k) & H == H:
                break
        else:
            kept.append(a)
            out.append(r)
    return out


def minimalize(n, gens):
    """Build the ideal generated by ``gens``, reduced to minimal generators.

    Exponents must be real integers (``strict_int``: no floats, bools or
    strings).  Raises on an all-zero exponent vector (the monomial 1 is
    not a valid generator here) and on negative exponents.  An empty
    generator list gives the zero ideal.
    """
    gens = [
        tuple(e if type(e) is int else strict_int(e, "exponent") for e in listed(g, "generator"))
        for g in gens
    ]
    for g in gens:
        if len(g) != n:
            raise InputError(f"generator {g} has {len(g)} exponents, expected {n}")
        if any(e < 0 for e in g):
            raise InputError(f"negative exponent in generator {g}")
        if not any(g):
            raise InputError("the monomial 1 cannot be a generator")
    return MonomialIdeal(n, tuple(_minimal_rows(gens)))


def equals_ideal(I, J):
    return I.n == J.n and I.gens == J.gens


def sum_ideals(I, *rest):
    n = I.n
    gens = list(I.gens)
    for J in rest:
        if J.n != n:
            raise InputError("ideal sum needs a common ambient ring")
        gens.extend(J.gens)
    if not gens:
        return zero_ideal(n)
    return minimalize(n, gens)


def intersect(I, J):
    if I.n != J.n:
        raise InputError("ideal intersection needs a common ambient ring")
    if I.is_zero or J.is_zero:
        return zero_ideal(I.n)
    rows = [lcm(a, b) for a in I.gens for b in J.gens]
    return MonomialIdeal(I.n, tuple(_minimal_rows(rows)))


def intersect_many(ideals):
    """Intersection of a nonempty list of ideals, one at a time."""
    ideals = list(ideals)
    if not ideals:
        raise InputError("need at least one ideal to intersect")
    acc = ideals[0]
    for J in ideals[1:]:
        acc = intersect(acc, J)
        if acc.is_zero:
            break
    return acc


def multiply(I, J):
    if I.n != J.n:
        raise InputError("ideal product needs a common ambient ring")
    if I.is_zero or J.is_zero:
        return zero_ideal(I.n)
    rows = [mul(a, b) for a in I.gens for b in J.gens]
    return MonomialIdeal(I.n, tuple(_minimal_rows(rows)))


def power(I, k):
    if k < 1:
        raise InputError("power wants k >= 1")
    result = None
    square = I
    while k:
        if k & 1:
            result = square if result is None else multiply(result, square)
        k >>= 1
        if k:
            square = multiply(square, square)
    return result


def squarefree_part(I):
    """Subideal generated by the squarefree minimal generators.

    Any squarefree monomial of I is divisible by a squarefree generator,
    so this really is the squarefree part.
    """
    return MonomialIdeal(I.n, tuple(g for g in I.gens if is_squarefree(g)))


def squarefree_power(I, k):
    """Squarefree part of I^k.

    A squarefree monomial of I^k is divisible by a product of k
    generators which is then itself squarefree, so the minimal
    generators are exactly the minimal squarefree k-fold products.
    Computed levelwise on support masks; agrees with
    squarefree_part(power(I, k)) but skips the non-squarefree bulk.
    """
    if k < 1:
        raise InputError("squarefree power wants k >= 1")
    base = [face_mask(support(g)) for g in I.gens if is_squarefree(g)]
    base = _minimal_masks(base)
    level = base
    for _ in range(k - 1):
        nxt = set()
        for t in level:
            for g in base:
                if t & g == 0:
                    nxt.add(t | g)
        level = _minimal_masks(nxt)
        if not level:
            break
    return MonomialIdeal(
        I.n, tuple(sorted((from_support(mask_face(m), I.n) for m in level), key=canon_key))
    )


def _minimal_masks(masks):
    out = []
    for m in sorted(set(masks), key=lambda x: (bin(x).count("1"), x)):
        if not any(o & m == o for o in out):
            out.append(m)
    return out


def alexander_dual(I):
    """Dual of a squarefree ideal: minimal transversals of the supports."""
    if I.is_zero:
        raise InputError("the zero ideal has no Alexander dual here")
    if not all(is_squarefree(g) for g in I.gens):
        raise InputError("Alexander dual wants a squarefree ideal")
    masks = [face_mask(support(g)) for g in I.gens]
    trans = minimal_transversals(I.n, masks)
    return MonomialIdeal(
        I.n, tuple(sorted((from_support(mask_face(t), I.n) for t in trans), key=canon_key))
    )


def minimal_transversals(n, masks):
    """All minimal hitting sets of the given support masks.

    Branch on the vertices of the first unhit support, excluding each
    tried vertex from later branches of the same node; non-minimal
    leftovers are filtered by the private-support test.  Exponential in
    the worst case, fine at desk scale.
    """
    if not masks:
        raise InputError("need at least one support")
    if any(m == 0 for m in masks):
        raise InputError("empty support has no transversal")
    found = []

    def rec(chosen, banned):
        e = next((m for m in masks if not m & chosen), None)
        if e is None:
            found.append(chosen)
            return
        ban = banned
        rest = e & ~ban
        while rest:
            bit = rest & -rest
            rec(chosen | bit, ban)
            ban |= bit
            rest &= ~bit

    rec(0, 0)
    minimal = []
    seen = set()
    for t in found:
        if t in seen:
            continue
        seen.add(t)
        ok = True
        rest = t
        while rest:
            bit = rest & -rest
            if not any(e & t == bit for e in masks):
                ok = False
                break
            rest &= ~bit
        if ok:
            minimal.append(t)
    return sorted(set(minimal), key=lambda x: (bin(x).count("1"), mask_face(x)))


def render_monomial(m, style="factored"):
    if style == "vector":
        return "[" + ",".join(str(e) for e in m) + "]"
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def render_ideal(I, style="factored"):
    if I.is_zero:
        return "(0)"
    return "(" + ", ".join(render_monomial(g, style) for g in I.gens) + ")"
