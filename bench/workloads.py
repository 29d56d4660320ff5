"""Seeded question workloads for the coveralg benchmark.

A workload is a list of rounds.  Every round of a workload has the same
composition (the same question kinds, input sizes and CLI share) and
differs only in the seeded inputs, so throughput over whole rounds is
comparable between seeds and between commits.  Inputs are generated
here as text, with the standard library only; the package sees them
through its public parsers, exactly as a user's files would reach it.

Each question kind names three things: how to answer it through the
package, a canonical JSON form of the answer (digested and compared
with the recorded digests of the pinned seeds), and an independent
check written against ``checks``.  A check returns None or a message.
"""
from __future__ import annotations

import contextlib
import io
import itertools as it
import json
import math
import random
from dataclasses import dataclass, field

import checks

# Parsers a question input can go through, by name; resolved against the
# package at set-up time.
PARSERS = {
    "complex_json": ("complexes", "from_json"),
    "complex_text": ("complexes", "from_text"),
    "graph_json": ("classify", "graph_from_json"),
    "poset_json": ("posets", "poset_from_json"),
}


@dataclass
class Question:
    qid: str
    kind: str
    inputs: list  # [(parser name, text)]
    params: dict = field(default_factory=dict)

    @property
    def cli(self):
        return self.kind.startswith("cli_")


# ---------------------------------------------------------------- inputs


def random_facets(rng, n, nf, size_lo, size_hi, pure=None):
    """An antichain of exactly nf faces of size size_lo..size_hi on 1..n;
    all of one size when ``pure``, of mixed sizes when ``pure`` is False."""
    sizes = range(size_lo, min(size_hi, n) + 1)
    while True:
        size = rng.choice([s for s in sizes if math.comb(n, s) >= nf])
        facets = []
        for _ in range(50 * nf):
            if not pure:
                size = rng.choice(sizes)
            f = frozenset(rng.sample(range(1, n + 1), size))
            if not any(f <= g or g <= f for g in facets):
                facets.append(f)
                if len(facets) == nf:
                    break
        mixed = len({len(f) for f in facets}) > 1
        if len(facets) == nf and (pure is None or pure != mixed):
            return sorted((tuple(sorted(f)) for f in facets), key=lambda f: (len(f), f))


def complex_json(n, facets):
    return json.dumps({"n": n, "facets": [list(f) for f in facets]})


def complex_text(n, facets):
    return "\n".join([str(n)] + [" ".join(map(str, f)) for f in facets]) + "\n"


def random_graph(rng, nv, isolate_free):
    while True:
        edges = [e for e in it.combinations(range(1, nv + 1), 2) if rng.random() < 0.5]
        touched = {v for e in edges for v in e}
        if edges and (not isolate_free or len(touched) == nv):
            return edges


def graph_json(nv, edges):
    return json.dumps({"n": nv, "edges": [list(e) for e in edges]})


def random_cover(rng, facets, n, top, orders):
    """A vector with entries 0..top whose cover order lies in ``orders``."""
    while True:
        c = tuple(rng.randint(0, top) for _ in range(n))
        if any(c) and checks.order(facets, c) in orders:
            return c


def labelled_posets(m):
    """All partial orders on 1..m as sets of strict pairs (a, b), a < b in P."""
    pairs = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]
    out = []
    for bits in range(1 << len(pairs)):
        rel = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
        if any((b, a) in rel for a, b in rel):
            continue
        if any((a, d) not in rel for a, b in rel for c, d in rel if b == c):
            continue
        out.append(sorted(rel))
    return out


def poset_json(m, rel, as_relation):
    if as_relation:
        matrix = [[int(i == j or (i, j) in rel) for j in range(1, m + 1)] for i in range(1, m + 1)]
        return json.dumps({"m": m, "relation": matrix})
    hasse = [(a, b) for a, b in rel if not any((a, c) in rel and (c, b) in rel for c in range(1, m + 1))]
    return json.dumps({"m": m, "covers": [list(p) for p in hasse]})


def poset_chains(m, rel, r):
    """Facets of the multichain complex as 0-based flat cells."""
    leq = {(i, i) for i in range(1, m + 1)} | set(rel)
    chains = [(j,) for j in range(1, m + 1)]
    for _ in range(r - 1):
        chains = [ch + (j,) for ch in chains for j in range(1, m + 1) if (ch[-1], j) in leq]
    return [[(i * m) + j - 1 for i, j in enumerate(ch)] for ch in chains]


# The fixtures of the test suite, re-typed as input text.
FIXTURES = {
    "villarreal": (
        "complex_text",
        complex_text(8, [(1, 2), (3, 4), (5, 6), (7, 8), (1, 3, 7), (1, 4, 8),
                         (3, 5, 7), (4, 5, 8), (2, 3, 6, 8), (2, 4, 6, 7)]),
    ),
    "five_cycle": ("complex_json", complex_json(7, [(1, 2, 7), (2, 3), (3, 4), (4, 5, 7), (1, 5, 6)])),
    "three_cycle": ("complex_json", complex_json(6, [(1, 2, 6), (2, 3, 4), (4, 5, 6)])),
    "square_chord_small": ("complex_json", complex_json(5, [(1, 2, 5), (2, 3), (3, 4, 5), (1, 4)])),
    "square_chord_large": ("complex_json", complex_json(6, [(1, 2, 6), (2, 3, 4), (4, 5, 6), (1, 5)])),
    "borel_pair": (
        "complex_text",
        complex_text(5, [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (1, 4, 5), (2, 3, 4)]),
    ),
}

# The question each fixture gets in every engine round.
FIXTURE_QUESTIONS = [
    ("villarreal", "equals_ab"),
    ("villarreal", "is_standard_graded_a"),
    ("five_cycle", "no_odd_verdict"),
    ("three_cycle", "equals_ab"),
    ("square_chord_small", "is_standard_graded_a"),
    ("square_chord_large", "equals_ab"),
    ("borel_pair", "equals_ab"),
]

# Degree bound of the A-side questions by vertex count.  Random n = 8
# complexes and unbounded Villarreal take tens of seconds per question.
ENGINE_DEGREE = {5: 3, 6: 3, 7: 2}


# ------------------------------------------------------------- workloads


def _complex_question(rng, kind, n, nf, fmt="complex_json", sizes=(2, 4), pure=None, **params):
    facets = random_facets(rng, n, nf, sizes[0], sizes[1], pure)
    text = complex_json(n, facets) if fmt == "complex_json" else complex_text(n, facets)
    return Question("", kind, [(fmt, text)], params)


def _no_odd_question(rng, kind, n, nf, with_cycle):
    """A complex with or without a special odd cycle: with one, the verdict
    is a certificate; without, a sweep of every facet subset."""
    while True:
        facets = random_facets(rng, n, nf, 2, 4)
        if checks.has_special_odd_cycle(facets) == with_cycle:
            return Question("", kind, [("complex_json", complex_json(n, facets))], {"max_degree": 2})


# Every round has the same slots: vertex count, facet count and, where
# they drive the cost, purity and special odd cycles are fixed per slot
# and only the seeded inputs vary.


def engine_round(rng):
    qs = []
    fmt = ["complex_json", "complex_text"]
    for j in range(6):
        n, nf = 5 + j % 3, 3 + j % 4
        for kind in ("equals_ab", "is_standard_graded_a", "indecomposable_covers"):
            deg = 3 if kind == "equals_ab" else ENGINE_DEGREE[n]
            qs.append(_complex_question(rng, kind, n, nf, fmt[j % 2], max_degree=deg))
    for j in range(12):
        n, nf = 5 + j % 3, 3 + j % 4
        facets = random_facets(rng, n, nf, 2, 4)
        c = random_cover(rng, facets, n, 3, (2, 3))
        qs.append(Question("", "decompose_cover", [("complex_json", complex_json(n, facets))],
                           {"cover": c, "k": checks.order(facets, c)}))
    for j in range(6):
        nv = 4 + j % 4
        qs.append(Question("", "graph_equality_ab", [("graph_json", graph_json(nv, random_graph(rng, nv, False)))]))
    for j in range(4):
        nv = 4 + j % 3
        qs.append(Question("", "cover_ideal_verdict", [("graph_json", graph_json(nv, random_graph(rng, nv, True)))],
                           {"max_degree": 3}))
    for n, nf, with_cycle in [(5, 4, True), (6, 4, True), (5, 5, True), (6, 5, True),
                              (5, 4, False), (6, 3, False)]:
        qs.append(_no_odd_question(rng, "no_odd_verdict", n, nf, with_cycle))
    for name, kind in FIXTURE_QUESTIONS:
        qs.append(Question("", kind, [FIXTURES[name]], {"max_degree": 3}))
    # CLI share
    for j, (kind, n) in enumerate([("cli_check_equal", 5), ("cli_check_equal", 6),
                                   ("cli_check_a_graded", 5), ("cli_check_a_graded", 6),
                                   ("cli_indecomposable", 5)]):
        qs.append(_complex_question(rng, kind, n, 4, fmt[j % 2], max_degree=3))
    for nv in (5, 7):
        qs.append(Question("", "cli_classify_graph", [("graph_json", graph_json(nv, random_graph(rng, nv, False)))]))
    qs.append(_no_odd_question(rng, "cli_classify_complex", 5, 3, False))
    return qs


def _principal_faces(n):
    return [f for s in range(1, n + 1) for f in it.combinations(range(1, n + 1), s)]


def squarefree_round(rng):
    qs = []
    fmt = ["complex_json", "complex_text"]
    kinds = ("verify_duality", "is_standard_graded_b", "lk_sq_all", "alexander_dual")
    for j in range(6):
        for kind in kinds:
            # pure complexes also run the duality grid of verify_duality
            qs.append(_complex_question(rng, kind, 5 + j % 3, 3 + j % 4, fmt[j % 2], pure=j % 3 == 0))
    # sparse slice: n = 10..14 and 4..8 facets, where the 2^n scan of lk_sq
    # dominates.  Facets have two sizes, s and s + 1 with s = 2 or 3 fixed
    # per slot, so the smallest facet, which sets how many lk_sq scans
    # lk_sq_all makes, is fixed too.
    sparse = [(kinds[0], 10), (kinds[0], 13), (kinds[2], 11), (kinds[2], 14),
              (kinds[1], 12), (kinds[1], 14), (kinds[3], 13), (kinds[3], 10)]
    for j, (kind, n) in enumerate(sparse * 2):
        s = 2 + j // len(sparse)
        qs.append(_complex_question(rng, kind, n, 4 + j % 5, fmt[j % 2], sizes=(s, s + 1), pure=False))
    faces7 = _principal_faces(7)
    for _ in range(4):
        qs.append(Question("", "borel_dual_gens", [], {"face": rng.choice(faces7), "n": 7}))
        f = rng.choice(faces7)
        qs.append(Question("", "borel_cover_gens", [], {"face": f, "k": rng.randint(1, len(f)), "n": 7}))
        f = rng.choice(faces7)
        qs.append(Question("", "borel_skeleton_gens", [], {"face": f, "q": rng.randint(0, len(f) - 1), "n": 7}))
    for j in range(4):
        f = rng.choice([f for f in faces7 if len(f) >= 2])
        rows = checks.borel_members(f)
        if j % 2:
            # drop a non-generator member: usually breaks exchange closure
            rows = [h for h in rows if h != f]
            if len(rows) > 1:
                rows.remove(rng.choice(rows))
            rows.append(f)
        rows = [tuple(1 if v in h else 0 for v in range(1, 8)) for h in rows]
        qs.append(Question("", "borel_recognize", [], {"rows": rows, "n": 7}))
    for _ in range(10):
        n = rng.randint(3, 6)
        f = rng.choice(_principal_faces(n))
        facets = checks.borel_facets(f)
        while True:
            c = tuple(rng.randint(0, 2) for _ in range(n))
            if max(c) > 1 and checks.order(facets, c) >= 1:
                break
        qs.append(Question("", "borel_decompose", [], {"face": f, "cover": c, "n": n,
                                                      "k": checks.order(facets, c)}))
    for j in range(2):
        qs.append(_complex_question(rng, "cli_verify_duality", 5 + j, 4, fmt[j], pure=False))
        qs.append(_complex_question(rng, "cli_dual", 6 + j, 4, fmt[j]))
        f = rng.choice(faces7)
        qs.append(Question("", "cli_borel_cover_gens", [], {"face": f, "k": rng.randint(1, len(f)), "n": 7}))
    return qs


# The poset slice of a squarefree round: (m, r) of each question, to
# degree 3.  The sweep runs without the generic-engine cross-check, which
# would call the covers box enumeration.  The largest box is 4^9 vectors
# at (3, 3); a pool holds at most nine rounds of distinct (poset, r) pairs.
POSET_SLICE = [(3, 3), (4, 2), (4, 2), (3, 2), (3, 2), (4, 1), (4, 1)]
POSET_DEGREE = 3


def squarefree_pool(rng, rounds):
    """Rounds of squarefree questions; no (poset, r) pair appears twice in
    a pool, so value-keyed caches such as the one on posets.delta_r stay
    cold within a pass."""
    pairs = {}
    for m, r in sorted(set(POSET_SLICE)):
        pairs[(m, r)] = labelled_posets(m)
        rng.shuffle(pairs[(m, r)])
    out = []
    for _ in range(rounds):
        qs = squarefree_round(rng)
        for j, (m, r) in enumerate(POSET_SLICE):
            text = poset_json(m, pairs[(m, r)].pop(), j % 2 == 0)
            qs.append(Question("", "poset_verify", [("poset_json", text)],
                               {"r": r, "max_degree": POSET_DEGREE, "cross_check": False}))
        out.append(qs)
    return out


# Rounds of a run (an untraced run answers all of them in every pass; a
# traced run answers the first half untraced and the second half traced)
# and rounds whose answer digests are recorded for the pinned seeds.
WORKLOADS = {
    "engine": {"rounds": 6, "trace_rounds": 3, "digest_rounds": 6, "make_round": engine_round},
    "squarefree": {"rounds": 6, "trace_rounds": 3, "digest_rounds": 6, "make_pool": squarefree_pool},
}


def generate(workload, seed, rounds=None):
    """The first ``rounds`` rounds of a workload for a seed (all by
    default); question ids are 'round.index'."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    count = spec["rounds"] if rounds is None else rounds
    if "make_pool" in spec:
        pool = spec["make_pool"](rng, count)
    else:
        pool = [spec["make_round"](rng) for _ in range(count)]
    for i, qs in enumerate(pool):
        # a round's order depends on its index only, so a shorter pool is a prefix
        random.Random(f"{workload}:{seed}:{i}").shuffle(qs)
        for j, q in enumerate(qs):
            q.qid = f"{i}.{j}"
    return pool


# -------------------------------------------------------------- answering


def cli_argv(q, paths):
    """Arguments for coveralg.cli.main; ``paths`` are the question's input files."""
    p = q.params
    if q.kind == "cli_check_equal":
        return ["--json", "check", "equal", paths[0], "--max-degree", str(p["max_degree"])]
    if q.kind == "cli_check_a_graded":
        return ["--json", "check", "a-graded", paths[0], "--max-degree", str(p["max_degree"])]
    if q.kind == "cli_indecomposable":
        return ["--json", "indecomposable", paths[0], "--max-degree", str(p["max_degree"])]
    if q.kind == "cli_classify_graph":
        return ["--json", "classify", "graph", paths[0]]
    if q.kind == "cli_classify_complex":
        return ["--json", "classify", "complex", paths[0], "--max-degree", str(p["max_degree"])]
    if q.kind == "cli_verify_duality":
        return ["--json", "verify-duality", paths[0]]
    if q.kind == "cli_dual":
        return ["--json", "dual", paths[0]]
    if q.kind == "cli_borel_cover_gens":
        return ["--json", "borel", "cover-gens", "--gen", ",".join(map(str, p["face"])),
                "-n", str(p["n"]), "--k", str(p["k"])]
    raise KeyError(q.kind)


def run_cli(cli_main, argv):
    """coveralg.cli.main in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def answer(pkg, q, objs, argv):
    """Answer one question.  ``objs`` are its inputs, parsed at set-up."""
    covers, ideals, borel, posets, classify = (
        pkg.covers, pkg.ideals, pkg.borel, pkg.posets, pkg.classify)
    p = q.params
    k = q.kind
    if q.cli:
        return run_cli(pkg.cli.main, argv)
    if k == "equals_ab":
        return covers.equals_ab(objs[0], p["max_degree"])
    if k == "is_standard_graded_a":
        return covers.is_standard_graded_a(objs[0], p["max_degree"])
    if k == "indecomposable_covers":
        return covers.indecomposable_covers(objs[0], p["max_degree"])
    if k == "decompose_cover":
        return covers.decompose_cover(objs[0], p["cover"], p["k"])
    if k == "graph_equality_ab":
        return classify.graph_equality_ab(objs[0], cross_check=True)
    if k == "cover_ideal_verdict":
        return classify.cover_ideal_verdict(objs[0], p["max_degree"])
    if k == "no_odd_verdict":
        return classify.no_odd_verdict(objs[0], None, p["max_degree"])
    if k == "verify_duality":
        return covers.verify_duality(objs[0])
    if k == "is_standard_graded_b":
        return covers.is_standard_graded_b(objs[0])
    if k == "lk_sq_all":
        sc = objs[0]
        return [covers.lk_sq(sc, j) for j in range(1, min(len(f) for f in sc.facets) + 1)]
    if k == "alexander_dual":
        return ideals.alexander_dual(objs[0].facet_ideal())
    if k == "borel_dual_gens":
        return borel.dual_gens(p["face"], n=p["n"])
    if k == "borel_cover_gens":
        return borel.cover_gens_principal(p["face"], p["k"], n=p["n"])
    if k == "borel_skeleton_gens":
        return borel.skeleton_gens(borel.borel_spec(p["n"], [p["face"]]), p["q"])
    if k == "borel_recognize":
        return borel.squarefree_borel_spec(ideals.minimalize(p["n"], p["rows"]))
    if k == "borel_decompose":
        return borel.decompose_principal(p["face"], p["cover"], p["k"], n=p["n"])
    if k == "poset_verify":
        return posets.verify_standard_graded_delta_r(objs[0], p["r"], p["max_degree"],
                                                     cross_check=p["cross_check"])
    raise KeyError(k)


# ------------------------------------------------------------- canonical


def canon(q, result):
    """JSON-able canonical form of an answer, the input of its digest.
    Tuples, lists, booleans and None serialize as they are."""
    if q.cli:
        return {"exit": result[0], "stdout": result[1]}
    if hasattr(result, "to_dict"):
        return result.to_dict()
    if q.kind == "lk_sq_all":
        return [I.gens for I in result]
    if q.kind == "alexander_dual":
        return result.gens
    if q.kind.startswith("borel_") and q.kind != "borel_decompose":
        return None if result is None else [result.n, result.generators]
    return result


# ---------------------------------------------------------------- checks


def _complex(q):
    fmt, text = q.inputs[0]
    if fmt == "complex_json":
        data = json.loads(text)
        return data["n"], [tuple(f) for f in data["facets"]]
    lines = text.split("\n")
    return int(lines[0]), [tuple(int(v) for v in ln.split()) for ln in lines[1:] if ln]


def _graph(q):
    data = json.loads(q.inputs[0][1])
    return data["n"], [tuple(e) for e in data["edges"]]


def _witness_problem(facets, verdict, max_degree, squarefree=False):
    """A witness must be a cover of its stated degree within the bound."""
    w = verdict.get("witness")
    if verdict["holds"]:
        return "a holding verdict carries a witness" if w else None
    if not w:
        return "a failing verdict has no witness"
    vec = w["vector"]
    vec = checks.parse_vector(vec) if isinstance(vec, str) else tuple(vec)
    if checks.order(facets, vec) < w["degree"]:
        return f"witness {vec} is not a {w['degree']}-cover"
    if max_degree is not None and w["degree"] > max_degree:
        return f"witness degree {w['degree']} above the bound {max_degree}"
    if squarefree and max(vec) > 1:
        return f"witness {vec} is not squarefree"
    return None


def _scan_problem(n, facets, k, gens):
    if n > 10:
        return None
    want = checks.subset_scan(n, facets, k)
    got = sorted((checks.support(g) for g in gens), key=lambda t: (len(t), t))
    return None if got == want else f"degree-{k} generators differ from the subset scan"


def check(q, result):
    """Independent check of one answer: None when it passes, else a message."""
    k = q.kind
    p = q.params
    if q.cli:
        code, out = result
        if code not in (0, 1):
            return f"exit code {code}"
        payload = json.loads(out)
        if k in ("cli_check_equal", "cli_check_a_graded"):
            if code != (0 if payload["holds"] else 1):
                return "exit code does not match the verdict"
            n, facets = _complex(q)
            return _witness_problem(facets, payload, p["max_degree"])
        if k == "cli_indecomposable":
            n, facets = _complex(q)
            bad = [c for c in payload["covers"]
                   if checks.order(facets, checks.parse_vector(c["vector"])) != c["degree"]]
            return f"{len(bad)} listed covers have another order" if bad else None
        if k == "cli_classify_graph":
            n, edges = _graph(q)
            if payload["bipartite"] != checks.is_bipartite(n, edges):
                return "bipartiteness differs"
            if payload["algebras_equal"] != checks.odd_cycle_domination(n, edges):
                return "odd-cycle domination differs"
            return None
        if k == "cli_classify_complex":
            return _no_odd_problem(*_complex(q), payload)
        if k == "cli_dual":
            n, facets = _complex(q)
            if n > 10:
                return None
            want = [tuple(t) for t in checks.subset_scan(n, facets, 1)]
            got = sorted((tuple(int(x[1:].split("^")[0]) for x in g.split("*")) for g in payload["generators"]),
                         key=lambda t: (len(t), t))
            return None if got == want else "dual generators differ from the subset scan"
        if k == "cli_verify_duality":
            n, facets = _complex(q)
            return _duality_problem(n, facets, payload)
        if k == "cli_borel_cover_gens":
            return _borel_cover_gens_problem(p, [checks.parse_vector(g) for g in payload["cover_generators"]])
        raise KeyError(k)
    if k in ("equals_ab", "is_standard_graded_a"):
        n, facets = _complex(q)
        return _witness_problem(facets, result.to_dict(), p["max_degree"])
    if k == "indecomposable_covers":
        n, facets = _complex(q)
        for c, d in result:
            if checks.order(facets, c) != d or d > p["max_degree"]:
                return f"{c} listed at degree {d}"
        if len({c for c, _ in result}) != len(result):
            return "a cover is listed twice"
        return None
    if k == "decompose_cover":
        if result is None:
            return None
        n, facets = _complex(q)
        a, i, b, j = result
        if tuple(x + y for x, y in zip(a, b)) != tuple(p["cover"]) or i + j != p["k"]:
            return "parts do not sum to the cover"
        if not any(a) or not any(b):
            return "a zero part"
        if checks.order(facets, a) < i or checks.order(facets, b) < j:
            return "a part has less than its stated order"
        return None
    if k == "graph_equality_ab":
        n, edges = _graph(q)
        return None if result == checks.odd_cycle_domination(n, edges) else "odd-cycle domination differs"
    if k == "cover_ideal_verdict":
        n, edges = _graph(q)
        bip = checks.is_bipartite(n, edges)
        if result.bipartite != bip or result.b_verdict.holds != bip:
            return "verdict differs from bipartiteness"
        facets = checks.minimal_vertex_covers(n, edges)
        return (_witness_problem(facets, result.a_verdict.to_dict(), p["max_degree"])
                or _witness_problem(facets, result.b_verdict.to_dict(), None, squarefree=True))
    if k == "no_odd_verdict":
        return _no_odd_problem(*_complex(q), result.to_dict())
    if k == "verify_duality":
        n, facets = _complex(q)
        return _duality_problem(n, facets, result.to_dict())
    if k == "is_standard_graded_b":
        n, facets = _complex(q)
        return _witness_problem(facets, result.to_dict(), None, squarefree=True)
    if k == "lk_sq_all":
        n, facets = _complex(q)
        if len(result) != min(len(f) for f in facets):
            return "wrong number of degrees"
        for j, I in enumerate(result, start=1):
            problem = _scan_problem(n, facets, j, I.gens)
            if problem:
                return problem
        return None
    if k == "alexander_dual":
        n, facets = _complex(q)
        return _scan_problem(n, facets, 1, result.gens)
    if k == "borel_dual_gens":
        f = tuple(sorted(p["face"]))
        want = [tuple(range(i, f[i - 1] + 1)) for i in range(1, len(f) + 1)]
        return None if sorted(result.generators) == sorted(want) else "dual generators differ"
    if k == "borel_cover_gens":
        return _borel_cover_gens_problem(p, list(result.generators))
    if k == "borel_skeleton_gens":
        f = tuple(sorted(p["face"]))
        return None if list(result.generators) == [f[-(p["q"] + 1):]] else "skeleton generators differ"
    if k == "borel_recognize":
        supports = [checks.support(r) for r in p["rows"]]
        closed = checks.is_exchange_closed(p["n"], supports)
        if (result is not None) != closed:
            return "Borel recognition differs from the exchange test"
        if result is not None:
            regen = {h for g in result.generators for h in checks.borel_members(g)}
            if not all(any(set(t) <= set(s) for t in regen) for s in supports):
                return "spec does not regenerate the ideal"
        return None
    if k == "borel_decompose":
        a, r, b = result
        facets = checks.borel_facets(p["face"])
        if tuple(x + y for x, y in zip(a, b)) != tuple(p["cover"]):
            return "parts do not sum to the cover"
        if max(a) > 1 or not 1 <= r <= p["k"]:
            return "squarefree part or its level is wrong"
        if checks.order(facets, a) < r or (p["k"] > r and checks.order(facets, b) < p["k"] - r):
            return "a part has less than its stated order"
        return None
    if k == "poset_verify":
        return _poset_problem(q, result.to_dict())
    raise KeyError(k)


def _no_odd_problem(n, facets, report):
    facets = sorted(facets, key=lambda f: (len(f), f))  # cycle facets index the canonical order
    cycles = report["special_odd_cycles"]
    if len(facets) <= 5 and bool(cycles) != checks.has_special_odd_cycle(facets):
        return "special odd cycles found where the scan finds none, or the reverse"
    if not cycles:
        nf = len(facets)
        if nf <= 12 and report["subcomplexes_checked"] != 2**nf - 1:
            return "not every facet subset was checked"
        return None
    for cyc in cycles:
        vs = set(cyc["vertices"])
        if len(vs) % 2 == 0:
            return "an even special cycle"
        if any(len(vs & set(facets[i])) != 2 for i in cyc["facets"]):
            return "a cycle facet meets the cycle in other than two vertices"
    gamma = [tuple(f) for f in report["gamma_facets"]]
    if checks.order(gamma, [1 if v in report["failing_two_cover"] else 0 for v in range(1, n + 1)]) < 2:
        return "the failing set is not a 2-cover"
    return None


def _duality_problem(n, facets, report):
    d = max(len(f) for f in facets)
    pure = len({len(f) for f in facets}) == 1
    if report["d"] != d or report["pure"] != pure:
        return "dimension or purity differs"
    if report["equality_by_degree"] != [pure or j == 1 for j in range(1, d + 1)]:
        return "skeleton-dual equalities contradict purity"
    if report["grid_checked"] != pure:
        return "grid check ran on the wrong complexes"
    return None


def _borel_cover_gens_problem(p, gens):
    f = tuple(sorted(p["face"]))
    k = p["k"]
    want = [tuple(range(i, f[k + i - 2] + 1)) for i in range(1, len(f) - k + 2)]
    return None if sorted(map(tuple, gens)) == sorted(want) else "cover generators differ"


def _poset_problem(q, report):
    p = q.params
    data = json.loads(q.inputs[0][1])
    m = data["m"]
    if report["m"] != m or report["r"] != p["r"] or report["max_degree"] != p["max_degree"]:
        return "report echoes other parameters"
    cells = m * p["r"]
    ks = [kk for kk, _ in report["covers_checked"]]
    if ks != list(range(2, p["max_degree"] + 1)):
        return "degrees swept differ"
    if cells <= 6:
        if "relation" in data:
            rel = {(i + 1, j + 1) for i in range(m) for j in range(m) if i != j and data["relation"][i][j]}
        else:
            rel = set(map(tuple, data["covers"]))
            for _ in range(m):
                rel |= {(a, d) for a, b in rel for c, d in rel if b == c}
        chains = poset_chains(m, sorted(rel), p["r"])
        for kk, count in report["covers_checked"]:
            if count != checks.count_poset_covers(chains, cells, kk):
                return f"{count} covers swept at degree {kk}, the scan counts otherwise"
    return None
