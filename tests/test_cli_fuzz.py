"""Fuzzing of every subcommand through ``cli.main``.

Malformed complex, graph and poset files (JSON and text) and bad vector
and bound arguments must end in exit 0, 1 or 2, never in an escaping
exception.  Exit 2 is argparse's own ``SystemExit(2)`` or the package's
one-line ``error:`` message.  Numbers stay small (vertex counts up to 7,
bounds up to 3) so that every well-formed input is cheap to answer.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from coveralg import cli

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 8), st.floats(-3, 8), st.text(max_size=3)
)
junk = st.recursive(
    scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.dictionaries(st.text(max_size=3), kids, max_size=3)
    ),
    max_leaves=10,
)


def paths(doc, prefix=()):
    """Every position in a nested dict/list document."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, prefix + (key,))


@st.composite
def spoiled(draw, doc):
    """A valid document half the time; otherwise one of its values is
    replaced by any JSON value, or one of its keys is dropped."""
    if draw(st.booleans()):
        return doc
    path = draw(st.sampled_from(list(paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(junk)
    return doc


def faces(n, size, count, exact=False):
    return st.lists(
        st.lists(st.integers(1, n), min_size=size if exact else 1, max_size=size, unique=True),
        min_size=1, max_size=count,
    )


@st.composite
def as_file(draw, doc):
    """JSON text of the document, sometimes cut short, or for a complex
    its text format, sometimes with a token swapped for a bad one."""
    text = json.dumps(doc)
    form = draw(st.sampled_from(["json", "json", "cut"] + ["text"] * 2 * ("facets" in doc)))
    if form == "cut":
        return text[: draw(st.integers(0, len(text)))]
    if form == "json":
        return text
    lines = [[str(doc.get("n"))]] + [
        list(map(str, f)) if isinstance(f, list) else [str(f)]
        for f in (doc["facets"] if isinstance(doc["facets"], list) else [doc["facets"]])
    ]
    if draw(st.booleans()):
        row = draw(st.sampled_from([row for row in lines if row]))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(TOKENS))
    return "\n".join(" ".join(row) for row in lines)


TOKENS = ["0", "8", "-1", "1.5", "x", "1_0", "\u0663", "#", ",", ""]
complex_files = st.integers(1, 7).flatmap(
    lambda n: st.fixed_dictionaries({"n": st.just(n), "facets": faces(n, 4, 5)})
).flatmap(spoiled).flatmap(as_file)
graph_files = st.integers(2, 7).flatmap(
    lambda n: st.fixed_dictionaries({"n": st.just(n), "edges": faces(n, 2, 6, exact=True)})
).flatmap(spoiled).flatmap(as_file)
poset_files = st.integers(2, 3).flatmap(
    lambda m: st.one_of(
        st.fixed_dictionaries({"m": st.just(m), "covers": faces(m, 2, 3, exact=True)}),
        st.fixed_dictionaries(
            {"m": st.just(m), "relation": st.lists(
                st.lists(st.integers(0, 1), min_size=m, max_size=m), min_size=m, max_size=m)}
        ),
    )
).flatmap(spoiled).flatmap(as_file)

# "@" is the input file, "#" a bound, "%" a vector, "&" a grid of vectors
BOUND = st.sampled_from(["1", "2", "3", "-2", "0", "x", "2.5", ""])
DIGIT = st.sampled_from(["0", "1", "2", "3"])
VECTOR = st.lists(
    st.one_of(DIGIT, DIGIT, DIGIT, st.sampled_from(TOKENS)),
    min_size=1, max_size=7,
).map(",".join)
GRID = st.lists(VECTOR, max_size=3).map(";".join)
COMPLEX_ARGV = [
    ["info", "@"],
    ["skeleton", "@", "--q", "#"],
    ["dual", "@"],
    ["covers", "@", "--k", "#"],
    ["indecomposable", "@", "--max-degree", "#"],
    ["decompose", "@", "--cover", "%"],
    ["decompose", "@", "--cover", "%", "--k", "#"],
    ["check", "equal", "@", "--max-degree", "#"],
    ["check", "a-graded", "@", "--max-degree", "#"],
    ["check", "b-graded", "@"],
    ["verify-duality", "@"],
    ["classify", "complex", "@", "--max-cycle-len", "#", "--max-degree", "#"],
]
GRAPH_ARGV = [
    ["classify", "graph", "@"],
    ["classify", "cover-ideal", "@", "--max-degree", "#"],
]
POSET_ARGV = [
    ["poset", "build", "@", "--r", "#"],
    ["poset", "decompose", "@", "--r", "#", "--matrix", "&"],
    ["poset", "decompose", "@", "--r", "#", "--matrix", "&", "--k", "#"],
    ["poset", "verify", "@", "--r", "#", "--max-degree", "#"],
]
BOREL_ARGV = [
    ["borel", "expand", "--gen", "%", "--gen", "%"],
    ["borel", "skeleton", "--gen", "%", "--q", "#"],
    ["borel", "dual", "--gen", "%", "-n", "#"],
    ["borel", "cover-gens", "--gen", "%", "--k", "#"],
    ["borel", "decompose", "--gen", "%", "--cover", "%", "--k", "#"],
    ["borel", "top-gen", "--gen", "%"],
    ["borel", "recognize", "--ideal", "&"],
]
FILL = {"#": BOUND, "%": VECTOR, "&": GRID}


def assert_exits_cleanly(data, templates, text=None):
    argv = data.draw(st.sampled_from(templates))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        if text is not None:
            path.write_text(text)
        argv = [str(path) if a == "@" else data.draw(FILL[a]) if a in FILL else a
                for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejecting an argument
                assert exc.code == 2, argv
                return
    assert code in (0, 1, 2), (argv, text, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", (argv, text)
        assert err.getvalue().startswith("error: "), (argv, text, err.getvalue())
        assert err.getvalue().count("\n") == 1, (argv, text, err.getvalue())


@settings(deadline=None, max_examples=300)
@given(st.data(), complex_files)
def test_complex_subcommands(data, text):
    assert_exits_cleanly(data, COMPLEX_ARGV, text)


@settings(deadline=None, max_examples=150)
@given(st.data(), graph_files)
def test_graph_subcommands(data, text):
    assert_exits_cleanly(data, GRAPH_ARGV, text)


@settings(deadline=None, max_examples=150)
@given(st.data(), poset_files)
def test_poset_subcommands(data, text):
    assert_exits_cleanly(data, POSET_ARGV, text)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_borel_subcommands(data):
    assert_exits_cleanly(data, BOREL_ARGV)


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_missing_input_file(data):
    assert_exits_cleanly(data, COMPLEX_ARGV + GRAPH_ARGV + POSET_ARGV)
