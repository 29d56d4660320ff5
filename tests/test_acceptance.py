"""Acceptance suite: the worked examples and the theorem sweeps.

One test per criterion; run with -v for a pass/fail line each.  The
sweeps in criterion 7 are the slow part (a couple of minutes): they
drive every structural formula over exhaustive small families plus
seeded random samples, with the brute-force oracles alongside.
"""
import itertools as it
import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx

import oracles
import test_cli
from coveralg import borel, classify, covers, ideals, posets
from coveralg.complexes import SimplicialComplex

DATA = Path(__file__).parent / "data"

QUARTICS = "(x1*x2*x3*x4, x1*x2*x3*x5, x1*x2*x4*x5, x1*x3*x4*x5, x2*x3*x4*x5)"
CUBICS = "(x1*x2*x3, x1*x2*x4, x1*x3*x4, x2*x3*x4)"


def test_criterion_1(villarreal):
    c = (1, 1, 1, 1, 2, 0, 1, 1)
    assert covers.cover_order(villarreal, c) == 2
    assert covers.decompose_cover(villarreal, c, 2) is None
    verdict = covers.is_standard_graded_b(villarreal)
    assert verdict.holds and verdict.exact
    print("criterion 1: indecomposable 2-cover found, yet B is standard graded")


def test_criterion_2(five_cycle):
    cycles = classify.special_odd_cycles(five_cycle)
    assert ((1, 2, 3, 4, 5), (2, 0, 1, 4, 3)) in [
        (c.vertices, c.facets) for c in cycles if c.length == 5
    ]
    c = (1, 0, 2, 0, 1, 0, 1)
    assert covers.cover_order(five_cycle, c) == 2
    assert covers.decompose_cover(five_cycle, c, 2) is None
    verdict = covers.equals_ab(five_cycle, 2)
    assert not verdict.holds and verdict.exact
    assert verdict.witness == covers.Witness(c, 2)
    print("criterion 2: special 5-cycle, indecomposable 2-cover, A != B")


def test_criterion_3(three_cycle):
    cycles = classify.special_odd_cycles(three_cycle)
    assert [(c.vertices, c.facets) for c in cycles] == [((2, 4, 6), (1, 2, 0))]
    verdict = covers.equals_ab(three_cycle, 3)
    assert verdict.holds and not verdict.exact and verdict.bound == 3
    found = covers.indecomposable_covers(three_cycle, 3)
    assert sorted({k for _, k in found}) == [1, 2]
    assert [v for v, k in found if k == 2] == [(0, 1, 0, 1, 0, 1)]
    assert covers.decompose_cover(three_cycle, (0, 1, 0, 1, 0, 1), 2) is None
    print("criterion 3: A generated in degrees 1 and 2; A = B up to degree 3")


def _isomorphic(g, h):
    if (g.n, len(g.edges)) != (h.n, len(h.edges)):
        return False
    hedges = set(h.edges)
    for perm in it.permutations(range(1, g.n + 1)):
        mapped = {
            (min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1]))
            for u, v in g.edges
        }
        if mapped == hedges:
            return True
    return False


def test_criterion_4(square_chord_small, square_chord_large):
    averdict = covers.is_standard_graded_a(square_chord_small, 4)
    assert averdict.holds and not averdict.exact and averdict.bound == 4
    verdict = covers.equals_ab(square_chord_large, 4)
    assert not verdict.holds and verdict.exact
    assert verdict.witness == covers.Witness((1, 0, 2, 0, 1, 1), 2)
    chorded_square = classify.Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    for sc in (square_chord_small, square_chord_large):
        assert _isomorphic(classify.intersection_graph(sc), chorded_square)
    print("criterion 4: same chorded-square intersection graph, opposite verdicts")


def test_criterion_5(borel_pair_complex):
    first = covers.lk_sq(borel.complex_of(borel.borel_spec(5, [(1, 4, 5)])), 2)
    second = covers.lk_sq(borel.complex_of(borel.borel_spec(5, [(2, 3, 4)])), 2)
    assert ideals.render_ideal(first) == QUARTICS
    assert ideals.render_ideal(second) == CUBICS
    both = covers.lk_sq(borel_pair_complex, 2)
    assert ideals.intersect(first, second) == both
    assert ideals.render_ideal(both) == QUARTICS
    c = (2, 1, 1, 1, 0)
    assert covers.cover_order(borel_pair_complex, c) == 3
    assert covers.decompose_cover(borel_pair_complex, c, 3) is None
    verdict = covers.equals_ab(borel_pair_complex, 3)
    assert not verdict.holds and verdict.exact
    assert verdict.witness == covers.Witness(c, 3)
    print("criterion 5: displayed cover ideals reproduced; A != B at degree 3")


def test_criterion_6(non_borel_complex):
    ideal = covers.lk_sq(non_borel_complex, 2)
    assert ideals.render_ideal(ideal) == "(x1*x2*x4, x1*x3*x4)"
    assert borel.squarefree_borel_spec(ideal) is None
    print("criterion 6: squarefree 2-cover ideal of a Borel complex is not Borel")


def test_criterion_7(rng):
    # skeleton duality: exhaustive n = 4, then seeded samples on 5..6
    # vertices; verify_duality asserts the inclusions and the pure-case
    # grid internally, the biconditionals are checked here
    family = [SimplicialComplex(4, fs) for fs in oracles.antichains(4)]
    family += [
        SimplicialComplex(5 + i % 2, oracles.random_antichain(rng, 5 + i % 2, 6))
        for i in range(500)
    ]
    pure = 0
    for sc in family:
        report = covers.verify_duality(sc)
        assert all(report.equality_by_degree) == sc.is_pure
        if sc.is_pure:
            pure += 1
            assert all(report.corollary_equalities) == report.b_standard_graded

    # squarefree cover ideals against the subset-scan oracle (the two
    # internal computation routes are compared on every call above too)
    for fs in oracles.antichains(4):
        sc = SimplicialComplex(4, fs)
        for k in range(1, max(len(f) for f in fs) + 1):
            got = [ideals.support(g) for g in covers.lk_sq(sc, k).gens]
            assert got == list(oracles.squarefree_covers(fs, 4, k))

    # poset multichain complexes: every small cover peels into 1-covers;
    # the reports (cover counts, scalar stride samples) are frozen
    frozen = iter(json.loads((DATA / "poset_sweeps.json").read_text()))
    poset_count = checked_covers = 0
    for m in (1, 2, 3, 4):
        for rel in oracles.posets_upto_iso(m):
            p = posets.Poset(m, rel)
            poset_count += 1
            for r in (1, 2, 3):
                report = posets.verify_standard_graded_delta_r(p, r, 3)
                assert report.to_dict() == next(frozen)
                checked_covers += report.total
    assert poset_count == 24
    assert next(frozen, None) is None

    # principal Borel: algebras agree up to |F|, skeleton formula holds,
    # and every non-squarefree small cover splits off a squarefree layer
    faces_checked = 0
    for n in range(1, 7):
        for size in range(1, n + 1):
            for f in it.combinations(range(1, n + 1), size):
                spec = borel.borel_spec(n, [f])
                sc = borel.complex_of(spec)
                assert covers.equals_ab(sc, size).holds
                for q in range(sc.dimension + 1):
                    borel.skeleton_gens(spec, q)  # raises if formula is off
                faces_checked += 1
    assert faces_checked == 120
    for n in range(2, 7):
        stride = 7 if n == 6 else 1
        vectors = list(it.product(range(3), repeat=n))[::stride]
        for size in range(1, n + 1):
            for f in it.combinations(range(1, n + 1), size):
                sc = borel.complex_of(borel.borel_spec(n, [f]))
                for c in vectors:
                    if not any(c) or all(x <= 1 for x in c):
                        continue
                    k = covers.cover_order(sc, c)
                    if k < 1:
                        continue
                    a, r, b = borel.decompose_principal(f, c, k, n=n)
                    assert tuple(x + y for x, y in zip(a, b)) == c
                    assert set(a) <= {0, 1} and 1 <= r <= k

    # dual and cover-generator formulas over every face of 1..7; each
    # call validates against the ideal computed by the generic engine,
    # the dual additionally against the full subset scan
    for size in range(1, 8):
        for f in it.combinations(range(1, 8), size):
            spec = borel.borel_spec(7, [f])
            sc = borel.complex_of(spec)
            borel.dual_gens(f, n=7)
            dual = ideals.alexander_dual(sc.facet_ideal())
            assert [ideals.support(g) for g in dual.gens] == oracles.transversals(
                7, sc.facets
            )
            for k in range(1, size + 1):
                borel.cover_gens_principal(f, k, n=7)

    # top-degree generator criterion vs direct indecomposability
    for size in range(2, 7):
        for f in it.combinations(range(1, 7), size):
            n = f[-1]
            sc = borel.complex_of(borel.borel_spec(n, [f]))
            ones = (1,) * n
            direct = covers.decompose_cover(sc, ones, size) is None
            assert direct == borel.has_top_degree_generator(f)

    # graphs on at most 6 vertices: standard gradedness of both the edge
    # complex and the minimal-cover complex is bipartiteness
    with_edges = isolate_free = 0
    for G in nx.graph_atlas_g():
        if G.number_of_nodes() > 6 or G.number_of_edges() == 0:
            continue
        relabel = {v: i + 1 for i, v in enumerate(sorted(G.nodes()))}
        g = classify.Graph(
            G.number_of_nodes(),
            [(relabel[u], relabel[v]) for u, v in G.edges()],
        )
        with_edges += 1
        bip = nx.is_bipartite(G)
        sc = classify.complex_from_graph(g)
        assert covers.is_standard_graded_b(sc).holds == bip
        assert covers.is_standard_graded_a(sc, 2).holds == bip
        classify.graph_equality_ab(g)  # cross-checked against the engine
        if not g.isolated_vertices():
            isolate_free += 1
            report = classify.cover_ideal_verdict(g)
            assert report.a_verdict.holds == report.bipartite
    assert (with_edges, isolate_free) == (202, 155)

    # special odd cycles: exhaustively on 4 vertices both directions of
    # the equivalence, then seeded samples with at most 5 facets
    cycle_free = with_cycle = 0
    for fs in oracles.antichains(4):
        sc = SimplicialComplex(4, fs)
        report = classify.no_odd_verdict(sc)
        if report.predicts_standard_graded:
            cycle_free += 1
            assert report.subcomplexes_checked == 2 ** len(fs) - 1
        else:
            with_cycle += 1
            gamma = SimplicialComplex(4, report.gamma_facets)
            assert not covers.is_standard_graded_b(gamma).holds
    assert with_cycle > 0
    for i in range(500):
        n = 5 + i % 2
        sc = SimplicialComplex(n, oracles.random_antichain(rng, n, 5))
        cycles = classify.special_odd_cycles(sc)
        if cycles:
            first = cycles[0]
            gamma = SimplicialComplex(n, [sc.facets[j] for j in first.facets])
            assert covers.cover_order(gamma, ideals.from_support(first.vertices, n)) >= 2
            assert covers.partition_into_vertex_covers(gamma, first.vertices, 2) is None
            assert not covers.is_standard_graded_b(gamma).holds
        else:
            assert covers.is_standard_graded_b(sc).holds
            if i % 8 == 0:
                assert covers.is_standard_graded_a(sc, 4).holds

    print(
        f"criterion 7: duality {len(family)} complexes ({pure} pure), "
        f"{poset_count} posets x3 ({checked_covers} covers), "
        f"{faces_checked} Borel faces, atlas {with_edges}/{isolate_free}, "
        f"odd-cycle sweep {cycle_free}+{with_cycle} exhaustive + 500 sampled"
    )


GOLDEN = [
    (("info", str(DATA / "villarreal.txt")), 0, test_cli.INFO_VILLARREAL),
    (
        ("check", "equal", str(DATA / "five_cycle.json"), "--max-degree", "2"),
        1,
        test_cli.CHECK_EQUAL_FIVE_CYCLE,
    ),
    (("covers", str(DATA / "three_cycle.json"), "--k", "1"), 0, test_cli.COVERS_THREE_CYCLE),
    (
        ("poset", "verify", str(DATA / "vee.json"), "--r", "1", "--max-degree", "2"),
        0,
        test_cli.POSET_VERIFY_VEE,
    ),
    (("classify", "graph", str(DATA / "triangle.json")), 0, test_cli.CLASSIFY_TRIANGLE),
    (("borel", "dual", "--gen", "2,4"), 0, test_cli.BOREL_DUAL),
    (("indecomposable", str(DATA / "three_cycle.json")), 0, None),
]


def test_criterion_8():
    for argv, want_rc, want_out in GOLDEN:
        outs = []
        for seed, threads in ((0, 1), (1, 1), (2, 1), (3, 4)):
            proc = subprocess.run(
                [sys.executable, "-m", "coveralg.cli", "--threads", str(threads), *argv],
                capture_output=True,
                env=dict(os.environ, PYTHONHASHSEED=str(seed)),
            )
            assert proc.returncode == want_rc, proc.stderr.decode()
            outs.append(proc.stdout)
        assert len(set(outs)) == 1, argv
        if want_out is not None:
            assert outs[0].decode() == want_out
    print(f"criterion 8: {len(GOLDEN)} goldens byte-stable across seeds and threads")
