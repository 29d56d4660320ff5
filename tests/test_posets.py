import pytest
from hypothesis import given, settings, strategies as st

import oracles
from coveralg import covers, posets
from coveralg.errors import InputError

CHAIN2 = posets.poset_from_covers(2, [(1, 2)])
ANTI2 = posets.poset_from_covers(2, [])
VEE = posets.poset_from_covers(3, [(1, 3), (2, 3)])


ALL_SMALL_POSETS = [
    posets.Poset(m, rel) for m in (1, 2, 3, 4) for rel in oracles.posets_upto_iso(m)
]


def small_posets():
    return st.sampled_from(ALL_SMALL_POSETS)


def test_from_covers_closure():
    p = posets.poset_from_covers(3, [(1, 2), (2, 3)])
    assert p.leq[0][2]  # 1 <= 3 through 2
    assert p.below == ((0,), (0, 1), (0, 1, 2))


def test_validation():
    with pytest.raises(InputError):
        posets.Poset(2, [[True, False], [False, False]])  # not reflexive
    with pytest.raises(InputError):
        posets.Poset(2, [[True, True], [True, True]])  # not antisymmetric
    with pytest.raises(InputError):
        posets.Poset(
            3,
            [[True, True, False], [False, True, True], [False, False, True]],
        )  # not transitive
    with pytest.raises(InputError):
        posets.poset_from_covers(2, [(1, 1)])
    with pytest.raises(InputError):
        posets.poset_from_covers(2, [(1, 3)])


def test_from_json():
    p = posets.poset_from_json('{"m": 3, "covers": [[1,3],[2,3]]}')
    assert p == VEE
    q = posets.poset_from_json(
        '{"m": 2, "relation": [[true, true], [false, true]]}'
    )
    assert q == CHAIN2
    with pytest.raises(InputError):
        posets.poset_from_json('{"m": 2}')
    with pytest.raises(InputError):
        posets.poset_from_json("nope")


def test_grid_flattening():
    assert posets.flatten_cell(1, 1, 3) == 1
    assert posets.flatten_cell(2, 3, 3) == 6
    grid = ((1, 0, 2), (0, 1, 0))
    vec = posets.grid_to_vector(grid)
    assert vec == (1, 0, 2, 0, 1, 0)
    assert posets.vector_to_grid(vec, 2, 3) == grid
    with pytest.raises(InputError):
        posets.vector_to_grid((1, 2, 3), 2, 2)


def test_multichains_frozen():
    assert posets.multichains(CHAIN2, 2) == ((1, 1), (1, 2), (2, 2))
    assert posets.multichains(ANTI2, 2) == ((1, 1), (2, 2))
    with pytest.raises(InputError):
        posets.multichains(CHAIN2, 0)


@given(small_posets(), st.integers(1, 3))
def test_multichains_match_oracle(p, r):
    assert list(posets.multichains(p, r)) == oracles.multichains(p.leq, r)


def test_delta_r_frozen():
    assert posets.delta_r(CHAIN2, 2).facets == ((1, 3), (1, 4), (2, 4))
    assert posets.delta_r(ANTI2, 2).facets == ((1, 3), (2, 4))


@given(small_posets(), st.integers(1, 3))
def test_delta_r_is_pure_with_one_facet_per_chain(p, r):
    sc = posets.delta_r(p, r)
    assert sc.n == r * p.m
    assert sc.is_pure and sc.dimension == r - 1
    assert len(sc.facets) == len(posets.multichains(p, r))


def test_proof_cover_set_frozen():
    assert posets.proof_cover_set(CHAIN2, 2, ((1, 1), (1, 1))) == ((1, 1), (1, 2))
    # a zero first row: the cover set jumps to the second row
    assert posets.proof_cover_set(ANTI2, 2, ((0, 0), (1, 1))) == ((2, 1), (2, 2))
    with pytest.raises(InputError):
        posets.proof_cover_set(CHAIN2, 2, ((1, 1),))


@given(small_posets(), st.integers(1, 3), st.data())
def test_proof_cover_set_sees_only_the_support(p, r, data):
    grid = tuple(
        tuple(data.draw(st.integers(0, 3)) for _ in range(p.m)) for _ in range(r)
    )
    indicator = tuple(tuple(1 if x else 0 for x in row) for row in grid)
    assert posets.proof_cover_set(p, r, grid) == posets.proof_cover_set(
        p, r, indicator
    )


def test_decompose_frozen():
    assert posets.decompose_poset_cover(CHAIN2, 2, (1, 1, 1, 1), 2) == (
        (1, 1, 0, 0), (0, 0, 1, 1),
    )
    assert posets.decompose_poset_cover(ANTI2, 2, (0, 0, 2, 2), 2) == (
        (0, 0, 1, 1), (0, 0, 1, 1),
    )


def test_decompose_rejects():
    with pytest.raises(InputError):
        posets.decompose_poset_cover(CHAIN2, 2, (1, 1, 1, 1), 1)
    with pytest.raises(InputError):
        posets.decompose_poset_cover(CHAIN2, 2, (1, 0, 0, 0), 2)


@settings(deadline=None, max_examples=60)
@given(small_posets(), st.integers(1, 2), st.data())
def test_decompose_peels_one_cover(p, r, data):
    sc = posets.delta_r(p, r)
    c = tuple(data.draw(st.integers(0, 3)) for _ in range(r * p.m))
    if not any(c):
        return
    k = covers.cover_order(sc, c)
    if k < 2:
        return
    a, b = posets.decompose_poset_cover(p, r, c, k)
    assert tuple(x + y for x, y in zip(a, b)) == c
    assert covers.cover_order(sc, a) >= 1
    assert all(x in (0, 1) for x in a)
    if any(b):
        assert covers.cover_order(sc, b) >= k - 1


class TestVerifySweep:
    def test_chain_frozen(self):
        report = posets.verify_standard_graded_delta_r(CHAIN2, 2, 3)
        assert report.to_dict() == {
            "m": 2,
            "r": 2,
            "max_degree": 3,
            "covers_checked": [[2, 31], [3, 85]],
            "scalar_samples": 2,
            "cross_checked": True,
        }
        assert report.total == 116

    def test_antichain_row(self):
        anti3 = posets.poset_from_covers(3, [])
        report = posets.verify_standard_graded_delta_r(anti3, 1, 3)
        assert report.covers_checked == ((2, 1), (3, 1))
        assert report.cross_checked

    def test_vee_frozen(self):
        report = posets.verify_standard_graded_delta_r(VEE, 1, 2)
        assert report.to_dict() == {
            "m": 3,
            "r": 1,
            "max_degree": 2,
            "covers_checked": [[2, 1]],
            "scalar_samples": 1,
            "cross_checked": True,
        }

    def test_rejects(self):
        with pytest.raises(InputError):
            posets.verify_standard_graded_delta_r(CHAIN2, 2, 1)

    @pytest.mark.parametrize("r", [0, -2])
    def test_rejects_chain_length_below_one(self, r):
        with pytest.raises(InputError):
            posets.verify_standard_graded_delta_r(VEE, r, 2)

    def test_degree_bound_past_int8(self):
        # one facet {1, 2}: (k+1)(k+2)/2 vectors in [0, k]^2 sum to >= k;
        # entries of 128 no longer fit the narrowest box dtype
        point = posets.Poset(1, [[True]])
        report = posets.verify_standard_graded_delta_r(point, 2, 128, cross_check=False)
        assert report.covers_checked == tuple(
            (k, (k + 1) * (k + 2) // 2) for k in range(2, 129)
        )
