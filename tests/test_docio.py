"""The document writer against `json.dumps(doc, indent=2)`, its oracle."""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recall_forge.docio import (
    _dumps,
    format_rational,
    serialize_certificate,
    serialize_game,
    structure_as_game,
)
from recall_forge.generators import FamilyParams, gen_lowerbound, gen_pennies, gen_random
from recall_forge.model import ChanceNode, Leaf
from recall_forge.seqsets import extract_histories
from recall_forge.span import minimal_span, realize_sequence_set

# Strings the escaper must get right: quotes, backslashes, control
# characters, DEL, non-ASCII, the JSON-legal line separators and a
# character outside the basic plane (written as a surrogate pair).
AWKWARD = ['"', "\\", "\x00", "\x1f", "\n\t\r\b\f", "\x7f", "\u00e9", "\u2028", "\U0001f600"]

texts = st.one_of(st.text(), st.lists(st.sampled_from(AWKWARD)).map("".join))
scalars = st.one_of(texts, st.integers())
documents = st.recursive(
    scalars,
    lambda kids: st.one_of(
        st.lists(kids),
        st.lists(kids).map(tuple),
        st.dictionaries(texts, kids),
        # one tuple of strings twice, the case the writer encodes once
        st.lists(texts).map(lambda seq: [tuple(seq), [tuple(seq)], tuple(seq)]),
    ),
    max_leaves=40,
)


@given(documents)
@settings(max_examples=200, deadline=None)
@example([])
@example({})
@example([[], {}, ()])
@example({"a": ("x", "y"), "b": [("x", "y"), ("x", "y")], "c": [[("x", "y")]]})
@example([([1],), ([1],), (1, "a"), (1, "a")])
@example(-(10**40))
def test_dumps_matches_json_dumps(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc",
    [1.5, True, None, [1, False], {"a": (None,)}, [("a",), ("a", 0.0)], [(1,), (True,)], {1: "x"}],
)
def test_dumps_rejects_other_types(doc):
    with pytest.raises(TypeError):
        _dumps(doc)


# The builders as they were when they handed their documents to
# `json.dumps(doc, indent=2)`.


def _old_node_doc(game, nid):
    node = game.structure.nodes[nid]
    if isinstance(node, Leaf):
        return {"kind": "leaf", "payoff": format_rational(game.utility[nid])}
    if isinstance(node, ChanceNode):
        return {
            "kind": "chance",
            "children": [
                {"prob": format_rational(p), "node": _old_node_doc(game, c)}
                for p, c in zip(game.chance[nid], node.children)
            ],
        }
    return {
        "kind": "player",
        "infoset": node.infoset,
        "children": [{"action": a, "node": _old_node_doc(game, c)} for a, c in node.children],
    }


def _old_serialize_game(game):
    doc = {
        "version": 1,
        "players": list(game.structure.players()),
        "infosets": [
            {"id": i.id, "owner": i.owner, "actions": list(i.actions)}
            for i in game.structure.infosets
        ],
        "root": _old_node_doc(game, game.structure.root),
    }
    return json.dumps(doc, indent=2) + "\n"


def _old_serialize_certificate(cert):
    doc = {
        "version": 1,
        "infosets": [
            {"id": i.id, "owner": i.owner, "actions": list(i.actions)}
            for i in cert.original.infosets
        ],
        "original": [list(s) for s in cert.original.sorted_sequences()],
        "span": [list(s) for s in cert.span.sorted_sequences()],
        "combinations": [
            {
                "sequence": list(s),
                "generators": sorted([list(g) for g in cert.combinations[s]]),
            }
            for s in cert.original.sorted_sequences()
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


FAMILIES = {
    "pennies": lambda: [gen_pennies(v, n) for v in ("I", "II", "III") for n in range(2, 7)],
    "lowerbound": lambda: [
        structure_as_game(realize_sequence_set(gen_lowerbound(n))) for n in range(1, 7)
    ],
    "random": lambda: [gen_random(FamilyParams(family="random", seed=s)) for s in range(1, 41)],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_serializers_match_old_builders(family):
    for game in FAMILIES[family]():
        assert serialize_game(game) == _old_serialize_game(game)
        cert = minimal_span(extract_histories(game.structure))
        assert serialize_certificate(cert) == _old_serialize_certificate(cert)
        span_game = structure_as_game(realize_sequence_set(cert.span))
        assert serialize_game(span_game) == _old_serialize_game(span_game)
