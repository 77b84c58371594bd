"""Mutation fuzzing of the CLI's JSON documents.

Each example changes one node of the E1/E2 action documents or of an F0(R)
element: the node is replaced by a small JSON value, deleted from its parent,
or given one more key or item. Whatever the mutation, a command must end with
a documented exit code, never with an exception, and a document error must be
reported on exactly one stderr line.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from skewrel.cli import main

E1_DOC = {
    "field": {"kind": "rationals"},
    "group": {"kind": "cyclic", "n": 2},
    "set": ["a", "b", "c"],
    "maps": [{"t": "1", "pairs": [["a", "b"], ["b", "a"]]}],
}

E2_DOC = {
    "field": {"kind": "rationals"},
    "group": {"kind": "integers"},
    "set": ["1", "2", "3"],
    "maps": [
        {"t": "1", "pairs": [["1", "2"], ["2", "3"]]},
        {"t": "2", "pairs": [["1", "3"]]},
    ],
}

# E1 over GF(5), where a denominator that is a multiple of 5 is zero.
E1_GF5_DOC = dict(E1_DOC, field={"kind": "prime-field", "modulus": 5})

REL_ELEMENT = [{"x": "a", "y": "b", "value": "1/2"}, {"x": "c", "y": "c", "value": "3"}]

# Words the documents use, so that a mutation often stays close to valid, and
# labels with line breaks, which a one-line diagnostic must not pass through.
WORDS = ["a", "b", "c", "1", "2", "3", "0", "-1", "1/2", "1/5", "2/10", "5", "x", "t", "n",
         "pairs", "kind", "cyclic", "integers", "table", "rationals", "prime-field", "modulus",
         "a\nb", "\r", "\x85", "\u2028"]
TEXT = st.sampled_from(WORDS) | st.text(max_size=3)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10 ** 13) | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=4)


def node_paths(node, path=()):
    """Every path from the root to a node, the root included."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from node_paths(child, path + (key,))


@st.composite
def mutants(draw, doc):
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(node_paths(doc))))
    how = draw(st.sampled_from(["replace", "delete", "add"]))
    parent, key, node = None, None, doc
    for step in path:
        parent, key, node = node, step, node[step]
    if how == "add" and isinstance(node, dict):
        node[draw(TEXT)] = draw(JSON)
    elif how == "add" and isinstance(node, list):
        node.append(draw(JSON))
    elif parent is None:
        return draw(JSON)
    elif how == "delete":
        del parent[key]
    else:
        parent[key] = draw(JSON)
    return doc


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check(argv):
    code, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code == 3:
        assert len(err.splitlines()) == 1, err


def write(directory, name, doc):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([E1_DOC, E2_DOC, E1_GF5_DOC]).flatmap(mutants))
def test_mutated_action_document(doc):
    with tempfile.TemporaryDirectory() as directory:
        action = write(directory, "action.json", doc)
        element = write(directory, "element.json", REL_ELEMENT)
        for command in ("validate", "relation", "ideals"):
            check([command, action])
        check(["mul", "--algebra", "rel", action, element, element])


@settings(max_examples=100, deadline=None)
@given(mutants(REL_ELEMENT))
def test_mutated_rel_element(element):
    with tempfile.TemporaryDirectory() as directory:
        lhs = write(directory, "lhs.json", element)
        rhs = write(directory, "rhs.json", REL_ELEMENT)
        for doc in (E1_DOC, E1_GF5_DOC):
            action = write(directory, "action.json", doc)
            check(["mul", "--algebra", "rel", action, lhs, rhs])
            check(["mul", "--algebra", "rel", action, rhs, lhs])
