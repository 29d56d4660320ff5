"""Command line front end.

Everything written to stdout is a pure function of the arguments and
input files (timing goes to stderr), so outputs can be diffed across
runs.  Exit codes: 0 success, 1 a checked property is false, 2 bad
input, 3 an internal consistency check failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import borel, classify, complexes, covers, ideals, posets
from .errors import InputError, InternalCheckError


def _read(path):
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_complex(path):
    text = _read(path)
    if text.lstrip().startswith("{"):
        return complexes.from_json(text), text
    return complexes.from_text(text), text


def _load_graph(path):
    text = _read(path)
    return classify.graph_from_json(text), text


def _load_poset(path):
    text = _read(path)
    return posets.poset_from_json(text), text


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _vector(text):
    tokens = text.replace(" ", "").split(",")
    if not all(map(complexes.is_decimal, tokens)):
        raise InputError(f"bad vector {text!r}, expected like 1,0,2")
    return tuple(map(int, tokens))


def _max_degree(args, default):
    """The --max-degree bound, or default when it was not given."""
    if args.max_degree is None:
        return default
    if args.max_degree < 1:
        raise InputError(f"--max-degree must be >= 1, got {args.max_degree}")
    return args.max_degree


def _grid(text):
    rows = [r for r in text.replace(" ", "").split(";") if r]
    if not rows:
        raise InputError("empty grid")
    return [_vector(r) for r in rows]


def _render_text(payload, indent=0):
    lines = []
    pad = " " * indent
    for key, value in payload.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_text(value, indent + 2))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{pad}{key}:")
            for item in value:
                if isinstance(item, dict):
                    lines.append(f"{pad}  - {json.dumps(item, sort_keys=True)}")
                else:
                    lines.append(f"{pad}  - {item}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def _emit(payload, as_json):
    if as_json:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(_render_text(payload)) + "\n")


def _facet_strings(sc):
    return [",".join(map(str, f)) for f in sc.facets]


def _gen_strings(ideal):
    return [ideals.render_monomial(g) for g in ideal.gens]


def _cmd_info(args):
    sc, text = _load_complex(args.complex)
    return 0, {
        "command": "info",
        "digest": _digest(text),
        "n": sc.n,
        "facets": _facet_strings(sc),
        "facet_count": len(sc.facets),
        "dimension": sc.dimension,
        "pure": sc.is_pure,
        "normalized": sc.normalized,
        "isolated_vertices": list(sc.isolated_vertices()),
    }


def _cmd_skeleton(args):
    sc, text = _load_complex(args.complex)
    sk = sc.skeleton(args.q)
    return 0, {
        "command": "skeleton",
        "digest": _digest(text),
        "q": args.q,
        "n": sk.n,
        "facets": _facet_strings(sk),
    }


def _cmd_dual(args):
    sc, text = _load_complex(args.complex)
    dual = ideals.alexander_dual(sc.facet_ideal())
    return 0, {
        "command": "dual",
        "digest": _digest(text),
        "generators": _gen_strings(dual),
        "generator_count": len(dual.gens),
    }


def _cmd_covers(args):
    sc, text = _load_complex(args.complex)
    k = args.k
    return 0, {
        "command": "covers",
        "digest": _digest(text),
        "k": k,
        "jk_generators": _gen_strings(covers.jk(sc, k)),
        "lk_generators": _gen_strings(covers.lk(sc, k)),
        "lk_squarefree_generators": _gen_strings(covers.lk_sq(sc, k)),
    }


def _cmd_indecomposable(args):
    sc, text = _load_complex(args.complex)
    bound = _max_degree(args, covers.default_max_degree(sc))
    found = covers.indecomposable_covers(sc, bound, threads=args.threads)
    return 0, {
        "command": "indecomposable",
        "digest": _digest(text),
        "max_degree": bound,
        "covers": [
            {"vector": ",".join(map(str, c)), "degree": k} for c, k in found
        ],
        "count": len(found),
    }


def _cmd_decompose(args):
    sc, text = _load_complex(args.complex)
    c = _vector(args.cover)
    k = covers.cover_order(sc, c) if args.k is None else args.k
    result = covers.decompose_cover(sc, c, k)
    payload = {
        "command": "decompose",
        "digest": _digest(text),
        "cover": ",".join(map(str, c)),
        "k": k,
    }
    if result is None:
        payload["decomposable"] = False
        return 0, payload
    a, i, b, j = result
    payload["decomposable"] = True
    payload["parts"] = [
        {"vector": ",".join(map(str, a)), "degree": i},
        {"vector": ",".join(map(str, b)), "degree": j},
    ]
    return 0, payload


def _cmd_check(args):
    sc, text = _load_complex(args.complex)
    bound = _max_degree(args, covers.default_max_degree(sc))
    if args.property == "equal":
        verdict = covers.equals_ab(sc, bound)
    elif args.property == "a-graded":
        verdict = covers.is_standard_graded_a(sc, bound, threads=args.threads)
    else:
        verdict = covers.is_standard_graded_b(sc)
    payload = {"command": f"check {args.property}", "digest": _digest(text)}
    payload.update(verdict.to_dict())
    if payload["witness"]:
        payload["witness"]["vector"] = ",".join(map(str, payload["witness"]["vector"]))
    return (0 if verdict.holds else 1), payload


def _cmd_verify_duality(args):
    sc, text = _load_complex(args.complex)
    report = covers.verify_duality(sc)
    payload = {"command": "verify-duality", "digest": _digest(text)}
    payload.update(report.to_dict())
    return 0, payload


def _cmd_classify_graph(args):
    g, text = _load_graph(args.graph)
    bip, odd = classify.is_bipartite(g)
    cross = g.n <= 8 or args.force
    if g.n > 8 and not args.force:
        engine_note = "skipped (graph above 8 vertices, pass --force)"
    else:
        engine_note = "checked"
    equal = classify.graph_equality_ab(g, cross_check=cross)
    return 0, {
        "command": "classify graph",
        "digest": _digest(text),
        "bipartite": bip,
        "odd_cycle": None if odd is None else ",".join(map(str, odd)),
        "algebras_equal": equal,
        "engine_cross_check": engine_note,
    }


def _cmd_classify_complex(args):
    sc, text = _load_complex(args.complex)
    max_degree = _max_degree(args, None)
    report = classify.no_odd_verdict(sc, args.max_cycle_len, max_degree)
    payload = {"command": "classify complex", "digest": _digest(text)}
    payload.update(report.to_dict())
    payload["strict_intersection"] = classify.strict_intersection(sc)
    if payload["strict_intersection"]:
        sreport = classify.str_intersec_verdict(sc, max_degree, args.max_cycle_len)
        payload["intersection_graph"] = sreport.to_dict()
    return 0, payload


def _cmd_classify_cover_ideal(args):
    g, text = _load_graph(args.graph)
    delta = classify.cover_ideal_complex(g)
    report = classify.cover_ideal_verdict(g, _max_degree(args, 3))
    payload = {"command": "classify cover-ideal", "digest": _digest(text)}
    payload["facets"] = _facet_strings(delta)
    payload.update(report.to_dict())
    return 0, payload


def _borel_spec_from_args(args):
    if not args.gen:
        raise InputError("need at least one --gen")
    faces = [_vector(g) for g in args.gen]
    n = max(max(f) for f in faces) if args.n is None else args.n
    return borel.borel_spec(n, faces)


def _cmd_borel(args):
    if args.action == "recognize":
        if not args.ideal:
            raise InputError("recognize needs --ideal")
        rows = _grid(args.ideal)
        n = len(rows[0])
        spec = borel.squarefree_borel_spec(ideals.minimalize(n, rows))
        return 0, {
            "command": "borel recognize",
            "borel": spec is not None,
            "generators": None if spec is None else [",".join(map(str, g)) for g in spec.generators],
        }
    spec = _borel_spec_from_args(args)
    payload = {"command": f"borel {args.action}", "n": spec.n,
               "generators": [",".join(map(str, g)) for g in spec.generators]}
    if args.action == "expand":
        payload["members"] = [",".join(map(str, f)) for f in borel.expand(spec)]
        return 0, payload
    if args.action == "skeleton":
        if args.q is None:
            raise InputError("skeleton needs --q")
        result = borel.skeleton_gens(spec, args.q)
        payload["q"] = args.q
        payload["skeleton_generators"] = [",".join(map(str, g)) for g in result.generators]
        return 0, payload
    if len(spec.generators) != 1:
        raise InputError(f"borel {args.action} wants a single --gen")
    face = spec.generators[0]
    if args.action == "dual":
        result = borel.dual_gens(face, n=spec.n)
        payload["dual_generators"] = [",".join(map(str, g)) for g in result.generators]
        return 0, payload
    if args.action == "cover-gens":
        if args.k is None:
            raise InputError("cover-gens needs --k")
        result = borel.cover_gens_principal(face, args.k, n=spec.n)
        minimal = borel.cover_ideal_principal(face, args.k, n=spec.n)
        payload["k"] = args.k
        payload["cover_generators"] = [",".join(map(str, g)) for g in result.generators]
        payload["minimal_generators"] = _gen_strings(minimal)
        return 0, payload
    if args.action == "decompose":
        if not args.cover:
            raise InputError("decompose needs --cover")
        c = _vector(args.cover)
        k = args.k
        if k is None:
            k = covers.cover_order(borel.complex_of(borel.borel_spec(len(c), [face])), c)
        a, r, b = borel.decompose_principal(face, c, k)
        payload["cover"] = ",".join(map(str, c))
        payload["k"] = k
        payload["squarefree_part"] = {"vector": ",".join(map(str, a)), "degree": r}
        payload["residual"] = {"vector": ",".join(map(str, b)), "degree": k - r}
        return 0, payload
    if args.action == "top-gen":
        has = borel.has_top_degree_generator(face)
        payload["top_degree_generator"] = has
        return 0, payload
    raise InputError(f"unknown borel action {args.action}")


def _cmd_poset(args):
    poset, text = _load_poset(args.poset)
    payload = {"command": f"poset {args.action}", "digest": _digest(text),
               "m": poset.m, "r": args.r}
    if args.action == "build":
        sc = posets.delta_r(poset, args.r)
        payload["n"] = sc.n
        payload["facets"] = _facet_strings(sc)
        return 0, payload
    if args.action == "decompose":
        if not args.matrix:
            raise InputError("decompose needs --matrix")
        grid = _grid(args.matrix)
        c = posets.grid_to_vector(grid)
        sc = posets.delta_r(poset, args.r)
        k = covers.cover_order(sc, c) if args.k is None else args.k
        a, b = posets.decompose_poset_cover(poset, args.r, c, k)
        payload["cover"] = ",".join(map(str, c))
        payload["k"] = k
        payload["one_cover"] = ",".join(map(str, a))
        payload["residual"] = ",".join(map(str, b))
        return 0, payload
    if args.action == "verify":
        bound = _max_degree(args, 3)
        report = posets.verify_standard_graded_delta_r(poset, args.r, bound)
        payload.update(report.to_dict())
        return 0, payload
    raise InputError(f"unknown poset action {args.action}")


def _build_parser():
    top = argparse.ArgumentParser(
        prog="coveralg",
        description="Vertex cover algebras of simplicial complexes.",
    )
    top.add_argument("--json", action="store_true", help="emit JSON instead of text")
    top.add_argument("--threads", type=int, default=1, help="accepted, ignored")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("info", help="basic facts about a complex")
    p.add_argument("complex")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("skeleton", help="q-skeleton of a complex")
    p.add_argument("complex")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_skeleton)

    p = sub.add_parser("dual", help="Alexander dual of the facet ideal")
    p.add_argument("complex")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("covers", help="generators of jk, lk and lk_sq")
    p.add_argument("complex")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_covers)

    p = sub.add_parser("indecomposable", help="indecomposable covers up to a degree")
    p.add_argument("complex")
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=_cmd_indecomposable)

    p = sub.add_parser("decompose", help="split one cover")
    p.add_argument("complex")
    p.add_argument("--cover", required=True)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("check", help="graded / equality verdicts")
    p.add_argument("property", choices=["equal", "a-graded", "b-graded"])
    p.add_argument("complex")
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify-duality", help="skeleton duality identities")
    p.add_argument("complex")
    p.set_defaults(func=_cmd_verify_duality)

    pc = sub.add_parser("classify", help="structure-driven verdicts")
    csub = pc.add_subparsers(dest="what", required=True)
    p = csub.add_parser("graph", help="bipartiteness and algebra equality")
    p.add_argument("graph")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=_cmd_classify_graph)
    p = csub.add_parser("complex", help="special odd cycles and intersections")
    p.add_argument("complex")
    p.add_argument("--max-cycle-len", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=_cmd_classify_complex)
    p = csub.add_parser("cover-ideal", help="minimal-cover complex of a graph")
    p.add_argument("graph")
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=_cmd_classify_cover_ideal)

    p = sub.add_parser("borel", help="Borel sets of faces")
    p.add_argument(
        "action",
        choices=["expand", "skeleton", "dual", "cover-gens", "decompose", "top-gen", "recognize"],
    )
    p.add_argument("--gen", action="append", default=[])
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--cover", default="")
    p.add_argument("--ideal", default="")
    p.set_defaults(func=_cmd_borel)

    p = sub.add_parser("poset", help="multichain complexes of posets")
    p.add_argument("action", choices=["build", "decompose", "verify"])
    p.add_argument("poset")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--matrix", default="")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=_cmd_poset)

    return top


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code, payload = args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    _emit(payload, args.json)
    print(f"elapsed: {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
