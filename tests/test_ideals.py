import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from coveralg import ideals
from coveralg.errors import InputError


def sq_ideal(n, supports):
    return ideals.minimalize(n, [ideals.from_support(s, n) for s in supports])


monomials = st.integers(2, 5).flatmap(
    lambda n: st.lists(
        st.tuples(*([st.integers(0, 3)] * n)).filter(any), min_size=1, max_size=6
    )
)

sq_families = st.integers(2, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.sets(st.integers(1, n), min_size=1), min_size=1, max_size=5),
    )
)


def test_scalar_helpers():
    assert ideals.degree((2, 0, 1)) == 3
    assert ideals.divides((1, 0, 1), (2, 0, 1))
    assert not ideals.divides((1, 1, 0), (2, 0, 1))
    assert ideals.lcm((2, 0, 1), (1, 1, 0)) == (2, 1, 1)
    assert ideals.mul((2, 0, 1), (1, 1, 0)) == (3, 1, 1)
    assert ideals.is_squarefree((1, 0, 1))
    assert not ideals.is_squarefree((2, 0))
    assert ideals.support((0, 2, 1)) == (2, 3)
    assert ideals.from_support((1, 3), 4) == (1, 0, 1, 0)


def test_minimalize_frozen():
    I = ideals.minimalize(2, [(2, 0), (1, 1), (2, 1)])
    assert I.gens == ((2, 0), (1, 1))
    # degree first, then x1-heavy monomials first
    J = ideals.minimalize(2, [(0, 2), (1, 1), (2, 0)])
    assert J.gens == ((2, 0), (1, 1), (0, 2))


def test_minimalize_rejects():
    with pytest.raises(InputError):
        ideals.minimalize(2, [(1,)])
    with pytest.raises(InputError):
        ideals.minimalize(2, [(0, 0)])
    with pytest.raises(InputError):
        ideals.minimalize(2, [(-1, 1)])


@pytest.mark.parametrize("gen", [(1.5, 0), (True, 0), (2, "1"), (2, None)])
def test_minimalize_rejects_non_integer_exponents(gen):
    # floats and bools were taken as exponents, strings raised TypeError
    with pytest.raises(InputError, match="exponent must be an integer"):
        ideals.minimalize(2, [(1, 1), gen])


def test_minimalize_takes_integral_exponents():
    I = ideals.minimalize(2, [np.array([2, 0]), (np.int8(1), 1)])
    assert I.gens == ((2, 0), (1, 1))
    assert all(type(e) is int for g in I.gens for e in g)


# field widths on both sides of powers of two: w = bit_length + 1
ENTRY_CAPS = [1, 3, 7, 8, 15, 16, 1000, 1 << 20]


def random_row_set(rng, t):
    """Row set number t: n from 1 to 12, entries up to a cap (often
    reached), multiples of earlier rows so that divisibility occurs,
    repeated rows, squarefree-only sets and sets above 200 rows."""
    cap = 1 if t % 9 == 8 else ENTRY_CAPS[t % 8]
    large = t % 7 == 6
    n = rng.randint(8 if large else 1, 12)
    size = rng.randint(230, 300) if large else rng.randint(1, 40)
    rows = []
    while len(rows) < size:
        if rows and rng.random() < 0.5:
            base = rng.choice(rows)
            row = tuple(min(cap, e + rng.choice((0, 0, 1, cap))) for e in base)
        else:
            row = tuple(rng.choice((0, 0, 1, rng.randint(0, cap), cap)) for _ in range(n))
        if any(row):
            rows.append(row)
        if rows and rng.random() < 0.1:
            rows.append(rng.choice(rows))
    return rows


def test_minimal_rows_matches_three_route_oracle():
    rng = random.Random(20261018)
    large = squarefree = reduced = 0
    for t in range(3000):
        rows = random_row_set(rng, t)
        got = ideals._minimal_rows(rows)
        assert got == oracles.minimal_rows(rows), rows
        squarefree += max(map(max, rows)) <= 1
        large += len(set(rows)) > 200 and max(map(max, rows)) > 1
        reduced += len(got) < len(set(rows))
    assert large >= 250 and squarefree >= 500 and reduced >= 2000


def test_zero_ideal():
    Z = ideals.zero_ideal(3)
    assert Z.is_zero
    assert not Z.contains((1, 0, 0))
    assert str(Z) == "(0)"
    assert ideals.minimalize(3, []).is_zero


@given(monomials)
def test_minimalize_order_independent(gens):
    n = len(gens[0])
    I = ideals.minimalize(n, gens)
    J = ideals.minimalize(n, list(reversed(gens)) + gens)
    assert ideals.equals_ideal(I, J)
    for g in I.gens:
        assert not any(h != g and ideals.divides(h, g) for h in I.gens)


@given(monomials, st.tuples(*([st.integers(0, 4)] * 4)))
def test_contains_matches_divisibility(gens, probe):
    n = len(gens[0])
    I = ideals.minimalize(n, gens)
    m = probe[:n] + (0,) * (n - len(probe))
    assert I.contains(m) == any(ideals.divides(g, m) for g in gens)


def test_containment_and_sum():
    I = ideals.minimalize(2, [(2, 0)])
    J = ideals.minimalize(2, [(1, 0)])
    assert I <= J
    assert not J <= I
    assert ideals.equals_ideal(ideals.sum_ideals(I, J), J)


def test_intersect_multiply_power_frozen():
    P = ideals.minimalize(2, [(1, 0), (0, 1)])
    P2 = ideals.power(P, 2)
    assert P2.gens == ((2, 0), (1, 1), (0, 2))
    assert ideals.equals_ideal(P2, ideals.multiply(P, P))
    I = ideals.minimalize(2, [(1, 0)])
    J = ideals.minimalize(2, [(0, 1)])
    assert ideals.intersect(I, J).gens == ((1, 1),)
    assert ideals.intersect(I, ideals.zero_ideal(2)).is_zero


@given(monomials, monomials)
def test_intersect_is_memberwise(ga, gb):
    n = min(len(ga[0]), len(gb[0]))
    I = ideals.minimalize(n, [g[:n] for g in ga if any(g[:n])] or [(1,) * n])
    J = ideals.minimalize(n, [g[:n] for g in gb if any(g[:n])] or [(1,) * n])
    K = ideals.intersect(I, J)
    for g in K.gens:
        assert I.contains(g) and J.contains(g)
    for g in I.gens:
        for h in J.gens:
            assert K.contains(ideals.lcm(g, h))


def test_intersect_many():
    with pytest.raises(InputError):
        ideals.intersect_many([])
    I = ideals.minimalize(2, [(1, 0)])
    assert ideals.equals_ideal(ideals.intersect_many([I]), I)


def test_squarefree_part():
    I = ideals.minimalize(2, [(2, 0), (1, 1), (0, 2)])
    assert ideals.squarefree_part(I).gens == ((1, 1),)


@given(sq_families, st.integers(1, 3))
def test_squarefree_power_is_squarefree_part_of_power(fam, k):
    n, supports = fam
    I = sq_ideal(n, supports)
    fast = ideals.squarefree_power(I, k)
    slow = ideals.squarefree_part(ideals.power(I, k))
    assert ideals.equals_ideal(fast, slow)


def test_alexander_dual_frozen(three_cycle):
    dual = ideals.alexander_dual(three_cycle.facet_ideal())
    assert [ideals.support(g) for g in dual.gens] == [
        (1, 4), (2, 4), (2, 5), (2, 6), (3, 6), (4, 6), (1, 3, 5),
    ]


def test_alexander_dual_rejects():
    with pytest.raises(InputError):
        ideals.alexander_dual(ideals.zero_ideal(2))
    with pytest.raises(InputError):
        ideals.alexander_dual(ideals.minimalize(2, [(2, 0)]))


@given(sq_families)
def test_alexander_dual_involution(fam):
    n, supports = fam
    I = sq_ideal(n, supports)
    assert ideals.equals_ideal(ideals.alexander_dual(ideals.alexander_dual(I)), I)


@given(sq_families)
def test_minimal_transversals_against_oracle(fam):
    n, supports = fam
    I = sq_ideal(n, supports)
    got = [ideals.support(g) for g in ideals.alexander_dual(I).gens]
    assert got == oracles.transversals(n, [ideals.support(g) for g in I.gens])


def test_minimal_transversals_rejects():
    with pytest.raises(InputError):
        ideals.minimal_transversals(2, [])
    with pytest.raises(InputError):
        ideals.minimal_transversals(2, [0])


def test_rendering():
    assert ideals.render_monomial((2, 1, 0)) == "x1^2*x2"
    assert ideals.render_monomial((0, 0, 0)) == "1"
    assert ideals.render_monomial((1, 2), style="vector") == "[1,2]"
    I = ideals.minimalize(2, [(2, 0), (1, 1)])
    assert str(I) == "(x1^2, x1*x2)"
