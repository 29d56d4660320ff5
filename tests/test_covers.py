import itertools as it
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from coveralg import covers, ideals
from coveralg.complexes import SimplicialComplex
from coveralg.errors import InputError, InternalCheckError

EDGE = SimplicialComplex(2, [(1, 2)])


def complexes(max_n=5, max_facets=4):
    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            SimplicialComplex,
            st.just(n),
            st.lists(
                st.sets(st.integers(1, n), min_size=1),
                min_size=1,
                max_size=max_facets,
            ),
        )
    )


def vector_for(sc, cap):
    return st.tuples(*([st.integers(0, cap)] * sc.n))


class TestCoverOrder:
    def test_frozen(self, villarreal, five_cycle):
        assert covers.cover_order(villarreal, (1, 1, 1, 1, 2, 0, 1, 1)) == 2
        assert covers.cover_order(five_cycle, (1, 0, 2, 0, 1, 0, 1)) == 2

    def test_all_ones_is_min_facet_size(self, villarreal, three_cycle):
        for sc in (villarreal, three_cycle, EDGE):
            assert covers.cover_order(sc, (1,) * sc.n) == min(
                len(f) for f in sc.facets
            )

    def test_rejects(self, three_cycle):
        with pytest.raises(InputError):
            covers.cover_order(three_cycle, (0,) * 6)
        with pytest.raises(InputError):
            covers.cover_order(three_cycle, (1, 1))
        with pytest.raises(InputError):
            covers.cover_order(three_cycle, (1, 1, 1, 1, 1, -1))

    @given(complexes(), st.data())
    def test_matches_oracle(self, sc, data):
        c = data.draw(vector_for(sc, 3).filter(any))
        assert covers.cover_order(sc, c) == oracles.order(sc.facets, c)


class TestDecompose:
    def test_indecomposable_frozen(self, villarreal, five_cycle, square_chord_large):
        assert covers.decompose_cover(villarreal, (1, 1, 1, 1, 2, 0, 1, 1), 2) is None
        assert covers.decompose_cover(five_cycle, (1, 0, 2, 0, 1, 0, 1), 2) is None
        assert covers.decompose_cover(square_chord_large, (1, 0, 2, 0, 1, 1), 2) is None

    def test_single_facet_split(self):
        assert covers.decompose_cover(EDGE, (1, 1), 2) == ((1, 0), 1, (0, 1), 1)

    def test_order_zero_split(self):
        assert covers.decompose_cover(EDGE, (2, 0), 0) == ((1, 0), 0, (1, 0), 0)
        assert covers.decompose_cover(EDGE, (1, 0), 0) is None

    def test_rejects(self, three_cycle):
        with pytest.raises(InputError):
            covers.decompose_cover(three_cycle, (1, 0, 0, 0, 0, 0), 2)
        with pytest.raises(InputError):
            covers.decompose_cover(three_cycle, (0,) * 6, 1)
        with pytest.raises(InputError):
            covers.decompose_cover(three_cycle, (1,) * 6, -1)

    @settings(deadline=None)
    @given(complexes(max_n=4, max_facets=3), st.data())
    def test_certificate_matches_brute_force(self, sc, data):
        c = data.draw(vector_for(sc, 2).filter(any))
        k = covers.cover_order(sc, c)
        if k == 0:
            return
        result = covers.decompose_cover(sc, c, k)
        brute = oracles.decomposable(sc.facets, c, k)
        assert (result is not None) == brute
        if result is not None:
            a, i, b, j = result
            assert tuple(x + y for x, y in zip(a, b)) == c
            assert any(a) and any(b)
            assert i + j == k
            assert covers.cover_order(sc, a) >= i >= 0
            assert covers.cover_order(sc, b) >= j >= 0

    def test_matches_split_oracle(self, monkeypatch):
        # indecomposable covers of degree >= 2, some bumped by one on a
        # coordinate: a mix of no split, first-pass splits and splits
        # only the box scan finds; the second half runs with 5-row
        # chunks, so first splits also sit past the first chunk
        rng = random.Random(20261020)
        found = {"none": 0, "first pass": 0, "box": 0}
        done = 0
        while done < 300:
            n = rng.randint(3, 7)
            sc = SimplicialComplex(n, oracles.random_complex_facets(rng, n, 6, 3))
            hard = [c for c, k in covers.indecomposable_covers(sc, 3 if n < 7 else 2) if k >= 2]
            if not hard:
                continue
            h = rng.choice(hard)
            j = rng.randrange(n)
            c = tuple(min(3, x + (i == j and rng.random() < 0.7)) for i, x in enumerate(h))
            k = oracles.order(sc.facets, h)
            with monkeypatch.context() as m:
                if done >= 150:
                    m.setattr(covers, "_CHUNK", 5)
                got = covers.decompose_cover(sc, c, k)
            assert got == oracles.first_split(sc.facets, n, c, k), (sc, c, k)
            mvcs = oracles.transversals(n, sc.facets)
            if got is None:
                found["none"] += 1
            elif got[1] == 1 and ideals.support(got[0]) in mvcs:
                found["first pass"] += 1
            else:
                found["box"] += 1
            done += 1
        assert min(found.values()) >= 20, found

    def test_split_box_over_limit_allocates_nothing(self, five_cycle):
        # an isolated vertex makes the box of (1,0,2,0,1,0,1), which no
        # minimal vertex cover splits, larger than the enumeration limit
        sc = SimplicialComplex(8, five_cycle.facets)
        c = (1, 0, 2, 0, 1, 0, 1, covers._ENUM_LIMIT)
        tracemalloc.start()
        try:
            with pytest.raises(InputError):
                covers.decompose_cover(sc, c, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestBox:
    def test_candidates_match_box_scan(self):
        rng = random.Random(20261021)
        for _ in range(40):
            n = rng.randint(2, 6)
            sc = SimplicialComplex(n, oracles.random_complex_facets(rng, n, 5, 4))
            for k in (1, 2, 3):
                got = covers.cover_candidates(sc, k)
                assert got.dtype == np.int64 and got.shape[1] == n
                assert list(map(tuple, got.tolist())) == oracles.cover_box(sc.facets, n, k)

    def test_scan_holds_one_chunk(self, monkeypatch):
        monkeypatch.setattr(covers, "_CHUNK", 1024)
        for bounds in [
            # mixed radices; the 1024-vector chunks end inside the
            # 24-, 70- and 25-vector low blocks
            (1, 0, 2, 0, 1, 3, 2, 7),
            (2, 4, 6, 9),
            (4, 4, 4, 4, 4),
            # the last radix alone exceeds a chunk: filled from arange
            (2, 1, 1500),
            (3000,),
        ]:
            seen = []

            def keep(V):
                seen.append(V.shape[1])
                return V.sum(axis=0) % 3 == 0

            chunks = list(covers._box_chunks(bounds, keep))
            box = list(it.product(*(range(b + 1) for b in bounds)))
            assert max(seen) == 1024 and sum(seen) == len(box)
            dtype = np.int16 if max(bounds) > 127 else np.int8
            assert all(V.dtype == dtype and V.shape[0] == len(bounds) for V in chunks)
            assert all(V.shape[1] <= 1024 for V in chunks)
            assert list(map(tuple, np.concatenate(chunks, axis=1).T.tolist())) == [
                v for v in box if sum(v) % 3 == 0
            ]

    def test_long_trailing_radix_holds_one_chunk(self, monkeypatch):
        # the whole box is 2 x 2^20 int32 values (8 MB); a chunk is
        # 2 x 4096 of them (32 KB)
        monkeypatch.setattr(covers, "_CHUNK", 1 << 12)
        bounds = (1, (1 << 20) - 1)
        tracemalloc.start()
        try:
            kept = sum(
                V.shape[1] for V in covers._box_chunks(bounds, lambda V: V[1] % 2 == 0)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept == 1 << 20
        assert peak < 4 * (2 * 4 << 12)

    @pytest.mark.parametrize("chunk", [None, 100])
    def test_split_box_past_int8(self, monkeypatch, chunk):
        # the triangle's only tight 260-cover: no minimal vertex cover
        # splits it, so the box scan runs through entries up to 130; with
        # 100-column chunks they sit in cells filled per run
        tri = SimplicialComplex(3, [(1, 2), (1, 3), (2, 3)])
        c = (130, 130, 130)
        if chunk:
            monkeypatch.setattr(covers, "_CHUNK", chunk)
        assert covers.decompose_cover(tri, c, 260) == oracles.first_split(tri.facets, 3, c, 260)

    def test_cover_box_over_limit_allocates_nothing(self):
        wide = SimplicialComplex(25, [(1, 2)])
        tracemalloc.start()
        try:
            with pytest.raises(InputError):
                covers.cover_candidates(wide, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_minimal_vertex_covers(three_cycle):
    assert covers.minimal_vertex_covers(three_cycle) == [
        (1, 4), (2, 4), (2, 5), (2, 6), (3, 6), (4, 6), (1, 3, 5),
    ]


class TestIndecomposable:
    def test_single_facet(self):
        assert covers.indecomposable_covers(EDGE, 3) == [((0, 1), 1), ((1, 0), 1)]

    def test_three_cycle_frozen(self, three_cycle):
        found = covers.indecomposable_covers(three_cycle, 3)
        ones = [c for c, k in found if k == 1]
        assert ones == [
            (0, 0, 0, 1, 0, 1), (0, 0, 1, 0, 0, 1), (0, 1, 0, 0, 0, 1),
            (0, 1, 0, 0, 1, 0), (0, 1, 0, 1, 0, 0), (1, 0, 0, 1, 0, 0),
            (1, 0, 1, 0, 1, 0),
        ]
        assert [(c, k) for c, k in found if k > 1] == [((0, 1, 0, 1, 0, 1), 2)]

    def test_entries_bounded_by_degree(self, five_cycle):
        for c, k in covers.indecomposable_covers(five_cycle, 2):
            assert max(c) <= k
            assert covers.cover_order(five_cycle, c) == k

    def test_threads_agree(self, five_cycle):
        one = covers.indecomposable_covers(five_cycle, 2, threads=1)
        four = covers.indecomposable_covers(five_cycle, 2, threads=4)
        assert one == four

    def test_rejects(self):
        with pytest.raises(InputError):
            covers.indecomposable_covers(EDGE, 0)

    def test_sieve_matches_split_search(self):
        rng = random.Random(20261019)
        for _ in range(150):
            n = rng.randint(3, 7)
            degree = 2 if n == 7 else 3
            sc = SimplicialComplex(n, oracles.random_complex_facets(rng, n, 5, 4))
            assert covers.indecomposable_covers(sc, degree) == list(
                oracles.indecomposables(sc, degree)
            ), sc
            assert covers.is_standard_graded_a(sc, degree).to_dict() == (
                oracles.a_graded_dict(sc, degree)
            ), sc


@settings(deadline=None, max_examples=50)
@given(complexes(max_n=6, max_facets=4), st.data(), st.integers(1, 4))
def test_entry_cap_preserves_covers(sc, data, k):
    c = data.draw(vector_for(sc, 6).filter(any))
    if covers.cover_order(sc, c) < k:
        return
    capped = tuple(min(x, k) for x in c)
    assert covers.cover_order(sc, capped) >= k
    assert ideals.divides(capped, c)


class TestJk:
    def test_single_facet(self):
        assert str(covers.jk(EDGE, 2)) == "(x1^2, x1*x2, x2^2)"

    def test_degree_one_is_dual(self, three_cycle, five_cycle):
        for sc in (three_cycle, five_cycle):
            dual = ideals.alexander_dual(sc.facet_ideal())
            assert ideals.equals_ideal(covers.jk(sc, 1), dual)

    def test_prime_power_route_agrees(self, three_cycle):
        for k in (1, 2, 3):
            direct = ideals.intersect_many(
                [covers.prime_power_ideal(6, f, k) for f in three_cycle.facets]
            )
            assert ideals.equals_ideal(covers.jk(three_cycle, k), direct)

    def test_villarreal_membership(self, villarreal):
        assert covers.jk(villarreal, 2).contains((1, 1, 1, 1, 2, 0, 1, 1))

    @settings(deadline=None, max_examples=60)
    @given(complexes(max_n=5, max_facets=4), st.integers(1, 3))
    def test_generators_match_oracle(self, sc, k):
        assert list(covers.jk(sc, k).gens) == oracles.jk_gens(sc.facets, sc.n, k)

    @settings(deadline=None, max_examples=60)
    @given(complexes(max_n=6, max_facets=4), st.data(), st.integers(1, 3))
    def test_membership_is_cover_order(self, sc, data, k):
        c = data.draw(vector_for(sc, 3))
        expected = any(c) and covers.cover_order(sc, c) >= k
        assert covers.jk(sc, k).contains(c) == expected

    def test_rejects(self):
        with pytest.raises(InputError):
            covers.jk(EDGE, 0)


def test_prime_power_ideal():
    assert str(covers.prime_power_ideal(2, (1, 2), 2)) == "(x1^2, x1*x2, x2^2)"
    assert covers.prime_power_ideal(3, (1, 3), 1).gens == ((1, 0, 0), (0, 0, 1))


class TestLkSq:
    def test_single_facet(self):
        assert str(covers.lk_sq(EDGE, 2)) == "(x1*x2)"
        assert ideals.equals_ideal(
            covers.lk_sq(EDGE, 2), ideals.squarefree_part(covers.jk(EDGE, 2))
        )

    def test_above_min_facet_size_is_zero(self, five_cycle):
        assert covers.lk_sq(five_cycle, 3).is_zero

    @settings(deadline=None, max_examples=60)
    @given(complexes(), st.integers(1, 3))
    def test_matches_oracle(self, sc, k):
        got = [ideals.support(g) for g in covers.lk_sq(sc, k).gens]
        assert got == oracles.squarefree_covers(sc.facets, sc.n, k)

    def test_rejects(self):
        with pytest.raises(InputError):
            covers.lk_sq(EDGE, 0)

    def test_direct_scan_matches_oracle(self):
        rng = random.Random(20261018)
        for _ in range(40):
            n = rng.randint(2, 12)
            sc = SimplicialComplex(n, oracles.random_antichain(rng, n, 6))
            for k in range(1, min(len(f) for f in sc.facets) + 1):
                got = covers._squarefree_covers_direct(sc, k)
                assert got == sorted(got)
                assert sorted(ideals.mask_face(m) for m in got) == sorted(
                    oracles.squarefree_covers(sc.facets, n, k)
                )

    def test_routes_cross_checked_up_to_the_limit(self, monkeypatch):
        wrong = lambda sc, k: []
        monkeypatch.setattr(covers, "_squarefree_covers_direct", wrong)
        limit = covers.SQ_CROSS_CHECK_MAX_N
        at_limit = SimplicialComplex(limit, [(1, 2), (2, 3)])
        with pytest.raises(InternalCheckError):
            covers.lk_sq(at_limit, 1)
        above = SimplicialComplex(limit + 1, [(1, 2), (2, 3)])
        assert str(covers.lk_sq(above, 1)) == "(x2, x1*x3)"


class TestLk:
    def test_single_facet(self):
        # the squarefree 1-covers already generate everything here
        assert str(covers.lk(EDGE, 2)) == "(x1^2, x1*x2, x2^2)"

    def test_sits_inside_jk(self, villarreal, five_cycle):
        for sc in (villarreal, five_cycle):
            for k in (1, 2, 3):
                assert covers.lk(sc, k) <= covers.jk(sc, k)

    @settings(deadline=None, max_examples=40)
    @given(complexes(max_n=5, max_facets=3), st.integers(1, 3))
    def test_matches_oracle(self, sc, k):
        assert list(covers.lk(sc, k).gens) == oracles.lk_gens(sc.facets, sc.n, k)

    def test_ladder_matches_per_degree_route(self, villarreal):
        rng = random.Random(20261018)
        scs = [villarreal] + [
            SimplicialComplex(n, oracles.random_complex_facets(rng, n, 5, 4))
            for n in (2, 3, 3, 4, 4, 5, 5, 6)
        ]
        for sc in scs:
            ladder = list(covers._lk_levels(sc, 5))
            assert len(ladder) == 5
            for k in range(1, 6):
                want = oracles.lk(sc, k)
                assert covers.lk(sc, k) == want and ladder[k - 1] == want, (sc, k)

    def test_equals_ab_builds_each_lk_sq_once(self, monkeypatch, five_cycle, three_cycle):
        # the ladder route, forced by a zero box threshold
        monkeypatch.setattr(covers, "JK_ENUM_MAX_BOX", 0)
        calls = []
        lk_sq, jk = covers.lk_sq, covers.jk
        monkeypatch.setattr(covers, "lk_sq", lambda sc, k: calls.append(("sq", k)) or lk_sq(sc, k))
        monkeypatch.setattr(covers, "jk", lambda sc, k: calls.append(("jk", k)) or jk(sc, k))
        # passes to the bound: each lk_sq(j), j <= min(bound, r), once
        for sc, bound in ((three_cycle, 4), (three_cycle, 2), (EDGE, 5)):
            calls.clear()
            assert covers.equals_ab(sc, bound).holds
            r = min(map(len, sc.facets))
            assert [k for t, k in calls if t == "sq"] == list(range(1, min(bound, r) + 1))
            assert [k for t, k in calls if t == "jk"] == list(range(1, bound + 1))
        # fails at degree 2: nothing is built past it
        calls.clear()
        assert covers.equals_ab(five_cycle, 4).witness.degree == 2
        assert calls == [("sq", 1), ("jk", 1), ("sq", 2), ("jk", 2)]

    def test_equals_ab_sieve_builds_no_ideal(self, monkeypatch, five_cycle, three_cycle):
        calls = []
        for mod, name in ((covers, "jk"), (covers, "lk_sq"), (covers, "decompose_cover"),
                          (ideals, "multiply"), (ideals, "sum_ideals")):
            f = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))
        assert covers.equals_ab(three_cycle, 4).holds
        assert calls == []
        # a failing verdict asks decompose_cover once, about its witness
        assert covers.equals_ab(five_cycle, 4).witness.degree == 2
        assert calls == ["decompose_cover"]


@settings(deadline=None, max_examples=60)
@given(complexes(max_n=8, max_facets=5))
def test_top_squarefree_cover_principal_iff_min_facets_cover(sc):
    # the order-r squarefree cover ideal collapses to (x1...xn) exactly
    # when every vertex lies in a facet of the minimal size r
    r = min(len(f) for f in sc.facets)
    principal = covers.lk_sq(sc, r).gens == ((1,) * sc.n,)
    everywhere = all(
        any(v in f for f in sc.facets if len(f) == r) for v in range(1, sc.n + 1)
    )
    assert principal == everywhere


class TestGradedVerdicts:
    def test_villarreal(self, villarreal):
        b = covers.is_standard_graded_b(villarreal)
        assert (b.holds, b.exact, b.witness) == (True, True, None)
        a = covers.is_standard_graded_a(villarreal, 2)
        assert (a.holds, a.exact) == (False, True)
        assert a.witness == covers.Witness((1, 1, 1, 1, 2, 0, 1, 1), 2)

    def test_five_cycle(self, five_cycle):
        b = covers.is_standard_graded_b(five_cycle)
        assert not b.holds
        assert b.witness == covers.Witness((1, 1, 1, 1, 1, 0, 0), 2)
        e = covers.equals_ab(five_cycle, 2)
        assert (e.holds, e.exact) == (False, True)
        assert e.witness == covers.Witness((1, 0, 2, 0, 1, 0, 1), 2)

    def test_three_cycle(self, three_cycle):
        e = covers.equals_ab(three_cycle, 3)
        assert (e.holds, e.exact, e.bound, e.witness) == (True, False, 3, None)

    def test_square_chord_pair(self, square_chord_small, square_chord_large):
        a = covers.is_standard_graded_a(square_chord_small, 4)
        assert (a.holds, a.exact, a.bound) == (True, False, 4)
        e = covers.equals_ab(square_chord_large, 2)
        assert not e.holds
        assert e.witness == covers.Witness((1, 0, 2, 0, 1, 1), 2)

    def test_bipartite_graph_complexes(self):
        square = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        path = SimplicialComplex(3, [(1, 2), (2, 3)])
        for sc in (square, path):
            assert covers.is_standard_graded_b(sc).holds
            assert covers.is_standard_graded_a(sc, 4).holds

    def test_bound_one_needs_no_enumeration(self):
        # a 2^25 degree-one box would exceed the enumeration limit
        wide = SimplicialComplex(25, [(1, 2)])
        assert covers.is_standard_graded_a(wide, 1).holds

    def test_default_bound(self, five_cycle):
        assert covers.default_max_degree(five_cycle) == 4

    @pytest.mark.parametrize("bound", [0, -1])
    def test_rejects_bounds_below_one(self, three_cycle, bound):
        with pytest.raises(InputError):
            covers.equals_ab(three_cycle, bound)
        with pytest.raises(InputError):
            covers.is_standard_graded_a(three_cycle, bound)

    def test_to_dict(self, villarreal):
        d = covers.is_standard_graded_a(villarreal, 2).to_dict()
        assert d == {
            "property": "A-standard-graded",
            "holds": False,
            "verdict": "exact",
            "bound": None,
            "witness": {"vector": [1, 1, 1, 1, 2, 0, 1, 1], "degree": 2},
        }


@pytest.fixture(params=["sieve", "ladder"])
def ab_route(request, monkeypatch):
    """equals_ab's route: the sieve by default, the ladder when the box
    threshold is forced to 0."""
    if request.param == "ladder":
        monkeypatch.setattr(covers, "JK_ENUM_MAX_BOX", 0)


@pytest.mark.parametrize(
    "n, facets, bound, witness",
    [
        # descending lex without the degree key picks (0,2,0,1,1,1,1)
        (7, [(2, 3), (5, 6), (5, 7), (1, 6, 7), (1, 3, 4, 7)], 3, (0, 0, 2, 0, 1, 1, 1)),
        # ascending lex picks (0,2,1,1,1,1,2); descending lex without
        # the degree key picks (2,2,1,1,1,2,0), of degree 9
        (7, [(1, 2), (1, 7), (2, 7), (3, 4), (3, 5), (4, 5), (4, 6), (6, 7)], 2,
         (2, 0, 1, 1, 1, 1, 2)),
    ],
)
def test_equals_ab_witness_is_canon_least(ab_route, n, facets, bound, witness):
    # the first minimal generator of J_2 outside L_2: the canon_key-least
    # non-squarefree indecomposable 2-cover, not the first in lex order
    sc = SimplicialComplex(n, facets)
    assert covers.equals_ab(sc, bound) == covers.GradedVerdict(
        "A-equals-B", False, True, None, covers.Witness(witness, 2)
    )


def test_equals_ab_sieve_cross_checks(monkeypatch, three_cycle, five_cycle):
    monkeypatch.setattr(covers, "_squarefree_covers_direct", lambda sc, k: [])
    with pytest.raises(InternalCheckError):
        covers.equals_ab(three_cycle, 2)
    monkeypatch.undo()
    monkeypatch.setattr(covers, "decompose_cover", lambda sc, c, k: (c, k, c, 0))
    with pytest.raises(InternalCheckError):
        covers.equals_ab(five_cycle, 2)


def test_equals_ab_matches_contains_oracle(ab_route):
    # random complexes alternate with random graphs, whose odd cycles
    # give most of the failing verdicts
    rng = random.Random(20261022)
    failing = 0
    for t in range(150):
        n = rng.randint(3, 7)
        degree = 2 if n == 7 else 3
        if t % 2:
            facets = oracles.random_complex_facets(rng, n, 6, 3)
        else:
            edges = list(it.combinations(range(1, n + 1), 2))
            facets = rng.sample(edges, rng.randint(2, min(8, len(edges))))
        sc = SimplicialComplex(n, facets)
        got = covers.equals_ab(sc, degree).to_dict()
        assert got == oracles.equals_ab_dict(sc, degree), sc
        failing += not got["holds"]
    assert failing >= 10


def test_equality_survives_restriction(three_cycle, square_chord_small):
    # whenever the two algebras agree up to the bound, no vertex-set
    # restriction may separate them exactly
    for sc in (three_cycle, square_chord_small):
        assert covers.equals_ab(sc, 3).holds
        for size in range(1, sc.n + 1):
            for w in it.combinations(range(1, sc.n + 1), size):
                rest = sc.restriction(w)
                if rest is None:
                    continue
                v = covers.equals_ab(rest, 3)
                assert not (v.exact and not v.holds), (sc, w)


class TestPartition:
    def test_square(self):
        square = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert covers.partition_into_vertex_covers(square, (1, 2, 3, 4), 2) == [
            (1, 3), (2, 4),
        ]

    def test_five_cycle_support_fails(self, five_cycle):
        assert (
            covers.partition_into_vertex_covers(five_cycle, (1, 2, 3, 4, 5), 2) is None
        )

    def test_triangle(self):
        tri = SimplicialComplex(3, [(1, 2, 3)])
        assert covers.partition_into_vertex_covers(tri, (1, 2, 3), 3) == [
            (1,), (2,), (3,),
        ]

    def test_rejects(self, three_cycle):
        with pytest.raises(InputError):
            covers.partition_into_vertex_covers(three_cycle, (), 1)
        with pytest.raises(InputError):
            covers.partition_into_vertex_covers(three_cycle, (1, 2), 2)


class TestVerifyDuality:
    def test_villarreal(self, villarreal):
        assert covers.verify_duality(villarreal).to_dict() == {
            "n": 8,
            "d": 4,
            "pure": False,
            "equality_by_degree": [True, False, False, False],
            "b_standard_graded": True,
            "grid_checked": False,
            "corollary_equalities": None,
        }

    def test_three_cycle(self, three_cycle):
        assert covers.verify_duality(three_cycle).to_dict() == {
            "n": 6,
            "d": 3,
            "pure": True,
            "equality_by_degree": [True, True, True],
            "b_standard_graded": False,
            "grid_checked": True,
            "corollary_equalities": [True, False, True],
        }

    def test_non_borel(self, non_borel_complex):
        report = covers.verify_duality(non_borel_complex)
        assert not report.pure
        assert report.equality_by_degree == (True, False, False)
        assert report.b_standard_graded

    def test_borel_pair(self, borel_pair_complex):
        report = covers.verify_duality(borel_pair_complex)
        assert report.pure and report.grid_checked
        assert report.corollary_equalities == (False, False, True)
        assert not report.b_standard_graded

    def test_simplex_boundary(self):
        # boundary of the 4-simplex: pure, so the whole symmetric grid
        # is checked; two disjoint covers need 4 vertices while size-3
        # squarefree 2-covers exist, so B is not standard graded
        sc = SimplicialComplex(5, list(it.combinations(range(1, 6), 4)))
        report = covers.verify_duality(sc)
        assert report.pure and report.grid_checked
        assert report.equality_by_degree == (True, True, True, True)
        assert not report.b_standard_graded
        assert report.corollary_equalities == (False, False, False, True)
