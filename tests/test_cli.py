import json
from pathlib import Path

import pytest

from coveralg import cli, complexes

DATA = Path(__file__).parent / "data"

INFO_VILLARREAL = """\
command: info
digest: 7078a19e6625
n: 8
facets:
  - 1,2
  - 3,4
  - 5,6
  - 7,8
  - 1,3,7
  - 1,4,8
  - 3,5,7
  - 4,5,8
  - 2,3,6,8
  - 2,4,6,7
facet_count: 10
dimension: 3
pure: False
normalized: False
isolated_vertices:
"""

CHECK_EQUAL_FIVE_CYCLE = """\
command: check equal
digest: 4f07bf5a16f1
property: A-equals-B
holds: False
verdict: exact
bound: None
witness:
  vector: 1,0,2,0,1,0,1
  degree: 2
"""

BOREL_DUAL = """\
command: borel dual
n: 4
generators:
  - 2,4
dual_generators:
  - 1,2
  - 2,3,4
"""

CLASSIFY_TRIANGLE = """\
command: classify graph
digest: e16fa5d7c952
bipartite: False
odd_cycle: 2,1,3
algebras_equal: True
engine_cross_check: checked
"""

POSET_VERIFY_VEE = """\
command: poset verify
digest: a0b996f9f328
m: 3
r: 1
max_degree: 2
covers_checked:
  - [2, 1]
scalar_samples: 1
cross_checked: True
"""

DUAL_GENS = [
    "x1*x4", "x2*x4", "x2*x5", "x2*x6", "x3*x6", "x4*x6", "x1*x3*x5",
]

GEN_BLOCK = "\n".join(f"  - {g}" for g in DUAL_GENS)
COVERS_THREE_CYCLE = f"""\
command: covers
digest: 86ce56436bfd
k: 1
jk_generators:
{GEN_BLOCK}
lk_generators:
{GEN_BLOCK}
lk_squarefree_generators:
{GEN_BLOCK}
"""


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, "--json", *argv)
    return rc, json.loads(out), err


@pytest.fixture
def edge_file(tmp_path):
    p = tmp_path / "edge.json"
    p.write_text('{"n": 2, "facets": [[1,2]]}\n')
    return str(p)


def test_info_text(capsys):
    rc, out, err = run(capsys, "info", str(DATA / "villarreal.txt"))
    assert rc == 0
    assert out == INFO_VILLARREAL
    assert err.startswith("elapsed:")
    assert "elapsed" not in out


def test_info_json(capsys):
    rc, payload, _ = run_json(capsys, "info", str(DATA / "villarreal.txt"))
    assert rc == 0
    assert payload == {
        "command": "info",
        "digest": "7078a19e6625",
        "n": 8,
        "facets": ["1,2", "3,4", "5,6", "7,8", "1,3,7", "1,4,8",
                   "3,5,7", "4,5,8", "2,3,6,8", "2,4,6,7"],
        "facet_count": 10,
        "dimension": 3,
        "pure": False,
        "normalized": False,
        "isolated_vertices": [],
    }


def test_info_facets_round_trip(capsys):
    path = DATA / "three_cycle.json"
    rc, payload, _ = run_json(capsys, "info", str(path))
    assert rc == 0
    rebuilt = complexes.SimplicialComplex(
        payload["n"],
        [tuple(int(v) for v in f.split(",")) for f in payload["facets"]],
    )
    assert rebuilt == complexes.from_json(path.read_text())


def test_skeleton(capsys):
    rc, payload, _ = run_json(capsys, "skeleton", str(DATA / "three_cycle.json"), "--q", "1")
    assert rc == 0
    assert payload == {
        "command": "skeleton",
        "digest": "86ce56436bfd",
        "q": 1,
        "n": 6,
        "facets": ["1,2", "1,6", "2,3", "2,4", "2,6", "3,4", "4,5", "4,6", "5,6"],
    }


def test_dual(capsys):
    rc, payload, _ = run_json(capsys, "dual", str(DATA / "three_cycle.json"))
    assert rc == 0
    assert payload["generators"] == DUAL_GENS
    assert payload["generator_count"] == 7


def test_covers(capsys):
    rc, payload, _ = run_json(capsys, "covers", str(DATA / "three_cycle.json"), "--k", "1")
    assert rc == 0
    assert payload["jk_generators"] == DUAL_GENS
    assert payload["lk_generators"] == DUAL_GENS
    assert payload["lk_squarefree_generators"] == DUAL_GENS
    rc, out, _ = run(capsys, "covers", str(DATA / "three_cycle.json"), "--k", "1")
    assert out == COVERS_THREE_CYCLE


def test_indecomposable(capsys, edge_file):
    rc, payload, _ = run_json(capsys, "indecomposable", edge_file)
    assert rc == 0
    assert payload == {
        "command": "indecomposable",
        "digest": "902ac27b4e03",
        "max_degree": 3,
        "covers": [
            {"vector": "0,1", "degree": 1},
            {"vector": "1,0", "degree": 1},
        ],
        "count": 2,
    }


def test_decompose(capsys, edge_file):
    rc, payload, _ = run_json(capsys, "decompose", edge_file, "--cover", "1,1", "--k", "2")
    assert rc == 0
    assert payload["decomposable"] is True
    assert payload["parts"] == [
        {"vector": "1,0", "degree": 1},
        {"vector": "0,1", "degree": 1},
    ]


def test_check_equal_fails_with_witness(capsys):
    rc, out, err = run(
        capsys, "check", "equal", str(DATA / "five_cycle.json"), "--max-degree", "2"
    )
    assert rc == 1
    assert out == CHECK_EQUAL_FIVE_CYCLE
    assert err.startswith("elapsed:")


def test_check_a_graded(capsys):
    rc, payload, _ = run_json(
        capsys, "check", "a-graded", str(DATA / "three_cycle.json"), "--max-degree", "2"
    )
    assert rc == 1
    assert payload == {
        "command": "check a-graded",
        "digest": "86ce56436bfd",
        "property": "A-standard-graded",
        "holds": False,
        "verdict": "exact",
        "bound": None,
        "witness": {"vector": "0,1,0,1,0,1", "degree": 2},
    }


def test_check_b_graded(capsys, tmp_path):
    p = tmp_path / "square.json"
    p.write_text('{"n": 4, "facets": [[1,2],[2,3],[3,4],[1,4]]}\n')
    rc, payload, _ = run_json(capsys, "check", "b-graded", str(p))
    assert rc == 0
    assert payload == {
        "command": "check b-graded",
        "digest": "8a565f4cfe91",
        "property": "B-standard-graded",
        "holds": True,
        "verdict": "exact",
        "bound": None,
        "witness": None,
    }


def test_threads_flag_is_inert(capsys):
    args = ("check", "a-graded", str(DATA / "three_cycle.json"), "--max-degree", "2")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, "--threads", "2", *args)
    assert (rc1, out1) == (rc2, out2)


def test_verify_duality(capsys):
    rc, payload, _ = run_json(capsys, "verify-duality", str(DATA / "three_cycle.json"))
    assert rc == 0
    assert payload == {
        "command": "verify-duality",
        "digest": "86ce56436bfd",
        "n": 6,
        "d": 3,
        "pure": True,
        "equality_by_degree": [True, True, True],
        "b_standard_graded": False,
        "grid_checked": True,
        "corollary_equalities": [True, False, True],
    }


def test_classify_graph_text(capsys):
    rc, out, _ = run(capsys, "classify", "graph", str(DATA / "triangle.json"))
    assert rc == 0
    assert out == CLASSIFY_TRIANGLE


def test_classify_complex(capsys):
    rc, payload, _ = run_json(capsys, "classify", "complex", str(DATA / "three_cycle.json"))
    assert rc == 0
    assert payload == {
        "command": "classify complex",
        "digest": "86ce56436bfd",
        "special_odd_cycles": [{"vertices": [2, 4, 6], "facets": [1, 2, 0]}],
        "cycle_cap": 3,
        "predicts_standard_graded": False,
        "gamma_facets": [[1, 2, 6], [2, 3, 4], [4, 5, 6]],
        "failing_two_cover": [2, 4, 6],
        "subcomplexes_checked": 0,
        "max_degree": None,
        "strict_intersection": True,
        "intersection_graph": {
            "hypothesis_holds": True,
            "cycle_cap": 3,
            "components": ["odd-cycle"],
            "predicted_equal": True,
            "engine": {
                "property": "A-equals-B",
                "holds": True,
                "verdict": "up-to-bound",
                "bound": 4,
                "witness": None,
            },
        },
    }


def test_classify_cover_ideal(capsys):
    rc, payload, _ = run_json(capsys, "classify", "cover-ideal", str(DATA / "triangle.json"))
    assert rc == 0
    assert payload["facets"] == ["1,2", "1,3", "2,3"]
    assert payload["bipartite"] is False
    assert payload["odd_cycle"] == [2, 1, 3]
    for side in ("a", "b"):
        assert payload[side]["holds"] is False
        assert payload[side]["witness"] == {"vector": [1, 1, 1], "degree": 2}


def test_borel_dual_text(capsys):
    rc, out, _ = run(capsys, "borel", "dual", "--gen", "2,4")
    assert rc == 0
    assert out == BOREL_DUAL


def test_borel_expand(capsys):
    rc, payload, _ = run_json(capsys, "borel", "expand", "--gen", "2,4")
    assert rc == 0
    assert payload["members"] == ["1,2", "1,3", "1,4", "2,3", "2,4"]


def test_borel_skeleton(capsys):
    rc, payload, _ = run_json(capsys, "borel", "skeleton", "--gen", "1,4,5", "--q", "1")
    assert rc == 0
    assert payload["skeleton_generators"] == ["4,5"]


def test_borel_cover_gens(capsys):
    rc, payload, _ = run_json(capsys, "borel", "cover-gens", "--gen", "2,4", "--k", "2")
    assert rc == 0
    assert payload["cover_generators"] == ["1,2,3,4"]
    assert payload["minimal_generators"] == ["x1*x2*x3*x4"]


def test_borel_decompose(capsys):
    rc, payload, _ = run_json(capsys, "borel", "decompose", "--gen", "2,4", "--cover", "1,2,1,0")
    assert rc == 0
    assert payload["k"] == 1
    assert payload["squarefree_part"] == {"vector": "1,1,0,0", "degree": 1}
    assert payload["residual"] == {"vector": "0,1,1,0", "degree": 0}


def test_borel_top_gen(capsys):
    rc, payload, _ = run_json(capsys, "borel", "top-gen", "--gen", "2,4")
    assert rc == 0
    assert payload["top_degree_generator"] is True
    rc, payload, _ = run_json(capsys, "borel", "top-gen", "--gen", "1,3")
    assert payload["top_degree_generator"] is False


def test_borel_recognize(capsys):
    rc, payload, _ = run_json(capsys, "borel", "recognize", "--ideal", "0,1,1;1,0,1;1,1,0")
    assert rc == 0
    assert payload == {"command": "borel recognize", "borel": True, "generators": ["2,3"]}
    rc, payload, _ = run_json(capsys, "borel", "recognize", "--ideal", "1,1,0,1;1,0,1,1")
    assert payload == {"command": "borel recognize", "borel": False, "generators": None}


def test_poset_build(capsys):
    rc, payload, _ = run_json(capsys, "poset", "build", str(DATA / "vee.json"), "--r", "1")
    assert rc == 0
    assert payload["facets"] == ["1", "2", "3"]
    rc, payload, _ = run_json(capsys, "poset", "build", str(DATA / "chain.json"), "--r", "2")
    assert payload["facets"] == ["1,3", "1,4", "2,4"]
    assert payload["n"] == 4


def test_poset_decompose(capsys):
    rc, payload, _ = run_json(
        capsys, "poset", "decompose", str(DATA / "chain.json"),
        "--r", "2", "--matrix", "1,1;1,1",
    )
    assert rc == 0
    assert payload["k"] == 2
    assert payload["one_cover"] == "1,1,0,0"
    assert payload["residual"] == "0,0,1,1"


def test_poset_verify_text(capsys):
    rc, out, _ = run(
        capsys, "poset", "verify", str(DATA / "vee.json"), "--r", "1", "--max-degree", "2"
    )
    assert rc == 0
    assert out == POSET_VERIFY_VEE


def test_missing_file_is_input_error(capsys, tmp_path):
    rc, out, err = run(capsys, "info", str(tmp_path / "absent.json"))
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_bad_cover_vector(capsys, edge_file):
    rc, out, err = run(capsys, "decompose", edge_file, "--cover", "x,y")
    assert rc == 2
    assert "bad vector" in err


@pytest.mark.parametrize("cover", ["1_0,1", "+1,1", "1.5,1"])
def test_cover_vector_takes_decimal_digits_only(capsys, edge_file, cover):
    # int() would read 1_0 as 10 and +1 as 1
    rc, out, err = run(capsys, "decompose", edge_file, "--cover", cover)
    assert (rc, out) == (2, "")
    assert err == f"error: bad vector {cover!r}, expected like 1,0,2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("indecomposable", str(DATA / "three_cycle.json")),
        ("check", "equal", str(DATA / "five_cycle.json")),
        ("check", "a-graded", str(DATA / "five_cycle.json")),
        ("check", "b-graded", str(DATA / "five_cycle.json")),
        ("classify", "complex", str(DATA / "five_cycle.json")),
        ("classify", "cover-ideal", str(DATA / "triangle.json")),
        ("poset", "verify", str(DATA / "vee.json"), "--r", "1"),
    ],
)
@pytest.mark.parametrize("bound", ["0", "-1"])
def test_max_degree_below_one_is_input_error(capsys, argv, bound):
    rc, out, err = run(capsys, *argv, "--max-degree", bound)
    assert rc == 2
    assert out == ""
    assert err == f"error: --max-degree must be >= 1, got {bound}\n"


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_cycle_cap_below_one_is_input_error(capsys, cap):
    rc, out, err = run(
        capsys, "classify", "complex", str(DATA / "five_cycle.json"), "--max-cycle-len", cap
    )
    assert rc == 2
    assert out == ""
    assert err == f"error: cycle length cap must be >= 1, got {cap}\n"


@pytest.mark.parametrize("action", ["build", "decompose", "verify"])
@pytest.mark.parametrize("r", ["0", "-2"])
def test_poset_chain_length_below_one_is_input_error(capsys, action, r):
    rc, out, err = run(
        capsys, "poset", action, str(DATA / "vee.json"), "--r", r, "--matrix", "1,1,0"
    )
    assert rc == 2
    assert out == ""
    assert err == "error: chain length must be >= 1\n"


def test_underdetermined_poset_cover(capsys):
    rc, out, err = run(
        capsys, "poset", "decompose", str(DATA / "vee.json"), "--r", "1",
        "--matrix", "1,1,0",
    )
    assert rc == 2
    assert "k >= 2" in err


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_json_and_text_agree_on_digest(capsys):
    path = str(DATA / "five_cycle.json")
    _, payload, _ = run_json(capsys, "info", path)
    _, out, _ = run(capsys, "info", path)
    assert f"digest: {payload['digest']}" in out.splitlines()


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("n.json", '{"n": "x", "facets": [[1]]}', ["info", "@"]),
        ("n.json", '{"n": 2.7, "facets": [[1, 2]]}', ["info", "@"]),
        ("n.json", '{"n": 2, "facets": 5}', ["info", "@"]),
        ("n.json", '{"n": 2, "facets": [[1, "a"]]}', ["info", "@"]),
        ("n.json", '{"n": 2, "facets": [[1.5, 2]]}', ["info", "@"]),
        ("n.json", '{"n": 2, "facets": [[true, 2]]}', ["info", "@"]),
        ("n.json", '{"n": 2, "facets": ["12"]}', ["info", "@"]),
        ("n.txt", "3\n1 2.5\n", ["info", "@"]),
        ("n.txt", "3\n1 -2\n", ["check", "equal", "@"]),
        ("g.json", '{"n": 3, "edges": [[1, 2, 3]]}', ["classify", "graph", "@"]),
        ("g.json", '{"n": 3, "edges": [[1, "2"]]}', ["classify", "graph", "@"]),
        ("g.json", '{"n": 3, "edges": 7}', ["classify", "cover-ideal", "@"]),
        ("p.json", '{"m": "2", "covers": [[1, 2]]}', ["poset", "build", "@", "--r", "1"]),
        ("p.json", '{"m": 3, "covers": [[1, 2, 3]]}', ["poset", "build", "@", "--r", "1"]),
        ("p.json", '{"m": 2, "relation": [[1, 0], [2, 1]]}', ["poset", "verify", "@", "--r", "1"]),
    ],
)
def test_loose_integers_are_input_errors(capsys, tmp_path, name, text, argv):
    # floats, bools and numeric strings used to be truncated or read as
    # 0/1, and malformed shapes crashed with a traceback
    path = tmp_path / name
    path.write_text(text)
    rc, out, err = run(capsys, *(str(path) if a == "@" else a for a in argv))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_split_box_over_limit_is_input_error(capsys, tmp_path):
    # the isolated vertex 8 puts the split box of this indecomposable
    # part of the five-cycle cover past the enumeration limit
    path = tmp_path / "five_cycle_plus.json"
    path.write_text(json.dumps({"n": 8, "facets": json.loads(
        (DATA / "five_cycle.json").read_text())["facets"]}))
    rc, out, err = run(capsys, "decompose", str(path), "--cover",
                       "1,0,2,0,1,0,1,20000000", "--k", "2")
    assert rc == 2
    assert out == ""
    assert err.startswith("error: box of more than") and err.count("\n") == 1


def test_decompose_k_zero_reaches_the_api(capsys):
    # degree 0 is the API's own case: a unit split, not "the cover's order"
    rc, payload, _ = run_json(capsys, "decompose", str(DATA / "five_cycle.json"),
                              "--cover", "1,0,2,0,1,0,1", "--k", "0")
    assert rc == 0
    assert payload["k"] == 0
    assert payload["parts"] == [
        {"vector": "1,0,0,0,0,0,0", "degree": 0},
        {"vector": "0,0,2,0,1,0,1", "degree": 0},
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("borel", "decompose", "--gen", "2,4", "--cover", "1,2,1,0", "--k", "0"),
         "error: k=0 but the cover has order 1\n"),
        (("poset", "decompose", str(DATA / "chain.json"), "--r", "2",
          "--matrix", "1,1;1,1", "--k", "0"),
         "error: decomposition wants k >= 2\n"),
        (("borel", "expand", "--gen", "2,4", "-n", "0"),
         "error: vertex 2 out of range 1..0\n"),
        (("borel", "cover-gens", "--gen", "2,4"), "error: cover-gens needs --k\n"),
    ],
)
def test_zero_is_a_given_value(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err == message
