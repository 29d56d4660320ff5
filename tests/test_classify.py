import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from coveralg import classify, covers
from coveralg.complexes import SimplicialComplex
from coveralg.errors import InputError

K3 = classify.Graph(3, [(1, 2), (2, 3), (1, 3)])
C4 = classify.Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
C5 = classify.Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
DIAMOND = classify.Graph(4, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])


def graphs(max_n=6):
    return st.integers(2, max_n).flatmap(
        lambda n: st.builds(
            classify.Graph,
            st.just(n),
            st.sets(
                st.tuples(st.integers(1, n), st.integers(1, n)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=10,
            ),
        )
    )


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(1, g.n + 1))
    G.add_edges_from(g.edges)
    return G


def realized(m, edges):
    n, facets = oracles.realize_intersection_graph(m, edges)
    return SimplicialComplex(n, facets)


def test_graph_validation():
    with pytest.raises(InputError):
        classify.Graph(3, [(1, 1)])
    with pytest.raises(InputError):
        classify.Graph(3, [(1, 4)])
    assert classify.Graph(3, [(3, 1), (1, 3)]).edges == ((1, 3),)


def test_graph_json():
    g = classify.graph_from_json('{"n": 3, "edges": [[1,2],[2,3]]}')
    assert g.edges == ((1, 2), (2, 3))
    with pytest.raises(InputError):
        classify.graph_from_json('{"n": 3}')


def test_graph_complex_round_trip():
    g = classify.Graph(4, [(1, 2), (3, 4)])
    assert classify.graph_from_complex(classify.complex_from_graph(g)) == g
    with pytest.raises(InputError):
        classify.complex_from_graph(classify.Graph(2, []))
    with pytest.raises(InputError):
        classify.graph_from_complex(SimplicialComplex(3, [(1, 2, 3)]))


class TestBipartite:
    def test_frozen_witnesses(self):
        assert classify.is_bipartite(C5) == (False, (3, 2, 1, 5, 4))
        assert classify.is_bipartite(DIAMOND) == (False, (3, 1, 4))
        assert classify.is_bipartite(C4) == (True, None)

    @given(graphs())
    def test_matches_networkx(self, g):
        bip, odd = classify.is_bipartite(g)
        assert bip == nx.is_bipartite(to_nx(g))
        if not bip:
            assert len(odd) % 2 == 1
            ring = list(odd) + [odd[0]]
            for u, v in zip(ring, ring[1:]):
                assert v in g.adj[u]


class TestSimpleCycles:
    def test_five_cycle(self):
        assert classify.simple_cycles(C5) == [(1, 2, 3, 4, 5)]

    def test_diamond(self):
        assert classify.simple_cycles(DIAMOND) == [
            (1, 3, 4), (2, 3, 4), (1, 3, 2, 4),
        ]

    @settings(max_examples=60)
    @given(graphs(max_n=6))
    def test_matches_networkx(self, g):
        ours = {
            frozenset(frozenset(e) for e in zip(c, c[1:] + c[:1]))
            for c in classify.simple_cycles(g)
        }
        theirs = {
            frozenset(frozenset(e) for e in zip(c, c[1:] + c[:1]))
            for c in nx.simple_cycles(to_nx(g))
            if len(c) >= 3
        }
        assert ours == theirs


class TestSpecialOddCycles:
    def test_five_cycle_complex(self, five_cycle):
        cycles = classify.special_odd_cycles(five_cycle)
        assert [(c.vertices, c.facets) for c in cycles] == [
            ((1, 5, 7), (3, 4, 2)),
            ((1, 2, 3, 4, 5), (2, 0, 1, 4, 3)),
        ]

    def test_three_cycle_complex(self, three_cycle):
        cycles = classify.special_odd_cycles(three_cycle)
        assert [(c.vertices, c.facets) for c in cycles] == [((2, 4, 6), (1, 2, 0))]
        assert cycles[0].length == 3

    def test_bipartite_square_has_none(self):
        sc = SimplicialComplex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert classify.special_odd_cycles(sc) == []

    @given(graphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_cycles_are_special(self, g):
        if not g.edges:
            return
        sc = classify.complex_from_graph(g)
        for cyc in classify.special_odd_cycles(sc):
            assert len(cyc.vertices) % 2 == 1
            assert len(set(cyc.facets)) == len(cyc.facets)
            ring = list(cyc.vertices) + [cyc.vertices[0]]
            for i, fi in enumerate(cyc.facets):
                facet = set(sc.facets[fi])
                assert {ring[i], ring[i + 1]} <= facet
                assert len(facet & set(cyc.vertices)) == 2


class TestNoOddVerdict:
    def test_five_cycle_frozen(self, five_cycle):
        report = classify.no_odd_verdict(five_cycle)
        assert report.to_dict() == {
            "special_odd_cycles": [
                {"vertices": [1, 5, 7], "facets": [3, 4, 2]},
                {"vertices": [1, 2, 3, 4, 5], "facets": [2, 0, 1, 4, 3]},
            ],
            "cycle_cap": 5,
            "predicts_standard_graded": False,
            "gamma_facets": [[1, 2, 7], [1, 5, 6], [4, 5, 7]],
            "failing_two_cover": [1, 5, 7],
            "subcomplexes_checked": 0,
            "max_degree": None,
        }

    def test_cycle_free_path(self):
        sc = SimplicialComplex(3, [(1, 2), (2, 3)])
        report = classify.no_odd_verdict(sc)
        assert report.predicts_standard_graded
        assert report.subcomplexes_checked == 3
        assert report.max_degree == 3

    def test_capped_search_skips_verification(self, five_cycle):
        report = classify.no_odd_verdict(five_cycle, max_len=3)
        assert report.cycle_cap == 3
        assert len(report.cycles) == 1


@pytest.mark.parametrize("cap", [0, -1])
def test_cycle_caps_below_one_are_rejected(five_cycle, three_cycle, cap):
    with pytest.raises(InputError):
        classify.special_odd_cycles(five_cycle, cap)
    with pytest.raises(InputError):
        classify.no_odd_verdict(five_cycle, cap)
    with pytest.raises(InputError):
        classify.str_intersec_verdict(three_cycle, max_cycle_len=cap)


class TestGraphEquality:
    def test_frozen(self):
        assert classify.graph_equality_ab(K3)
        assert classify.graph_equality_ab(C4)
        pendant = classify.Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6)])
        assert classify.graph_equality_ab(pendant)

    def test_detached_triangle_fails(self):
        g = classify.Graph(5, [(1, 2), (2, 3), (1, 3), (4, 5)])
        assert not classify.graph_equality_ab(g)

    def test_isolated_vertices_do_not_matter(self):
        g = classify.Graph(5, [(1, 2), (2, 3), (1, 3)])
        assert classify.graph_equality_ab(g)

    @given(graphs(max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_cross_check_stays_quiet(self, g):
        classify.graph_equality_ab(g)  # raises if condition and engine split


class TestCoverIdealComplex:
    def test_edge(self):
        g = classify.Graph(2, [(1, 2)])
        assert classify.cover_ideal_complex(g).facets == ((1,), (2,))

    def test_rejects(self):
        with pytest.raises(InputError):
            classify.cover_ideal_complex(classify.Graph(2, []))
        with pytest.raises(InputError):
            classify.cover_ideal_complex(classify.Graph(3, [(1, 2)]))

    def test_triangle_verdict_frozen(self):
        report = classify.cover_ideal_verdict(K3)
        assert report.to_dict() == {
            "bipartite": False,
            "odd_cycle": [2, 1, 3],
            "b": {
                "property": "B-standard-graded",
                "holds": False,
                "verdict": "exact",
                "bound": None,
                "witness": {"vector": [1, 1, 1], "degree": 2},
            },
            "a": {
                "property": "A-standard-graded",
                "holds": False,
                "verdict": "exact",
                "bound": None,
                "witness": {"vector": [1, 1, 1], "degree": 2},
            },
        }

    def test_square_verdict(self):
        report = classify.cover_ideal_verdict(C4)
        assert report.bipartite
        assert report.b_verdict.holds and report.a_verdict.holds


class TestStrictIntersection:
    def test_predicate(self, three_cycle, villarreal, square_chord_small):
        assert classify.strict_intersection(three_cycle)
        assert classify.strict_intersection(square_chord_small)
        assert not classify.strict_intersection(villarreal)

    def test_intersection_graphs_frozen(self, square_chord_small, square_chord_large):
        assert classify.intersection_graph(square_chord_small).edges == (
            (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
        )
        assert classify.intersection_graph(square_chord_large).edges == (
            (1, 2), (1, 4), (2, 3), (2, 4), (3, 4),
        )

    def test_rejects_non_strict(self, villarreal):
        with pytest.raises(InputError):
            classify.intersection_graph(villarreal)


class TestStrIntersecVerdict:
    def test_three_cycle(self, three_cycle):
        report = classify.str_intersec_verdict(three_cycle)
        assert report.hypothesis_holds
        assert report.components == ("odd-cycle",)
        assert report.predicted_equal
        assert report.engine.holds

    def test_two_disjoint_triangles(self):
        sc = realized(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
        report = classify.str_intersec_verdict(sc)
        assert report.components == ("odd-cycle", "odd-cycle")
        assert report.predicted_equal is False
        assert report.engine.witness == covers.Witness(
            (2, 2, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0), 2
        )

    def test_triangle_next_to_lone_facet(self):
        sc = realized(4, [(1, 2), (2, 3), (1, 3)])
        report = classify.str_intersec_verdict(sc)
        assert report.components == ("bipartite", "odd-cycle")
        assert report.predicted_equal is False
        assert report.engine.witness == covers.Witness((1, 1, 1, 0, 0, 0, 2), 2)

    def test_bowtie_makes_no_prediction_kind(self):
        sc = realized(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
        report = classify.str_intersec_verdict(sc)
        assert report.components == ("other",)
        assert report.predicted_equal is False
        assert not report.engine.holds

    def test_shared_edges_disable_prediction(self, square_chord_small, square_chord_large):
        # two cycles of the chord graph share two edges, so only the
        # engine verdict is reported
        small = classify.str_intersec_verdict(square_chord_small)
        assert small.hypothesis_holds is False
        assert small.predicted_equal is None
        assert small.engine.holds
        large = classify.str_intersec_verdict(square_chord_large)
        assert large.hypothesis_holds is False
        assert large.engine.witness == covers.Witness((1, 0, 2, 0, 1, 1), 2)

    def test_capped_cycle_search(self, three_cycle):
        report = classify.str_intersec_verdict(three_cycle, max_cycle_len=2)
        assert report.hypothesis_holds is None
        assert report.predicted_equal is None

    def test_trees_and_even_cycles_predict_equal(self):
        for edges in [
            [(1, 2), (2, 3)],
            [(1, 2), (2, 3), (3, 4), (1, 4)],
            [(1, 2)],
        ]:
            m = max(max(e) for e in edges)
            report = classify.str_intersec_verdict(realized(m, edges))
            assert report.components != ()
            assert report.predicted_equal is True
