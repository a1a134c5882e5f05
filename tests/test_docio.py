"""The document writer against `json.dumps(doc, indent=2)`, its oracle,
and the reader's chance-chain fold against the pass it replaced."""

from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recall_forge.docio import (
    DocumentError,
    _dumps,
    format_rational,
    parse_game,
    serialize_certificate,
    serialize_game,
    structure_as_game,
)
from recall_forge.generators import FamilyParams, gen_lowerbound, gen_pennies, gen_random
from recall_forge.model import (
    ChanceNode,
    Game,
    GameStructure,
    InformationSet,
    Leaf,
    PlayerNode,
)
from recall_forge.seqsets import extract_histories
from recall_forge.span import minimal_span, realize_sequence_set

from conftest import TreeBuilder

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


def test_parse_game_folds_chance_chains():
    b = TreeBuilder()
    l1, l2, l3 = b.leaf(1), b.leaf(2), b.leaf(3)
    inner = b.chance_node([(Fraction(1, 3), l1), (Fraction(2, 3), l2)])
    root = b.chance_node([(Fraction(1, 2), inner), (Fraction(1, 2), l3)])
    flat = parse_game(serialize_game(b.game(root, [])))
    node = flat.structure.nodes[flat.structure.root]
    assert isinstance(node, ChanceNode)
    assert len(node.children) == 3
    assert flat.chance[flat.structure.root] == (
        Fraction(1, 6),
        Fraction(1, 3),
        Fraction(1, 2),
    )
    assert all(
        not isinstance(flat.structure.nodes[c], ChanceNode) for c in node.children
    )
    # leaf weights unchanged
    weights = {flat.utility[l]: flat.chance_weights[l] for l in flat.structure.leaves()}
    assert weights == {
        Fraction(1): Fraction(1, 6),
        Fraction(2): Fraction(1, 3),
        Fraction(3): Fraction(1, 2),
    }


# The reference for the reader's fold: a plain preorder reading of a valid
# document, then the second pass that folded chance chains before the
# reader did it itself.


def _unfolded_parse(text):
    doc = json.loads(text)
    nodes, chance, utility = {}, {}, {}

    def walk(raw):
        nid = len(nodes)
        nodes[nid] = None  # keeps `nodes` in preorder
        kids = raw.get("children", [])
        if raw["kind"] == "leaf":
            nodes[nid] = Leaf()
            utility[nid] = Fraction(raw["payoff"])
        elif raw["kind"] == "chance":
            nodes[nid] = ChanceNode(tuple(walk(k["node"]) for k in kids))
            chance[nid] = tuple(Fraction(k["prob"]) for k in kids)
        else:
            nodes[nid] = PlayerNode(raw["infoset"], tuple((k["action"], walk(k["node"])) for k in kids))
        return nid

    root = walk(doc["root"])
    infosets = tuple(InformationSet(i["id"], i["owner"], tuple(i["actions"])) for i in doc["infosets"])
    structure = GameStructure(root=root, nodes=nodes, infosets=infosets)
    return Game(structure=structure, chance=chance, utility=utility)


def _old_normalize_chance(game):
    s = game.structure
    chance = dict(game.chance)
    nodes = dict(s.nodes)

    def flatten(nid):
        node = nodes[nid]
        assert isinstance(node, ChanceNode)
        out = []
        for p, c in zip(chance[nid], node.children):
            if isinstance(nodes[c], ChanceNode):
                out.extend((p * q, gc) for q, gc in flatten(c))
            else:
                out.append((p, c))
        return out

    changed = False
    for nid in list(s.preorder()):
        node = nodes.get(nid)
        if node is None:
            continue  # absorbed by an ancestor already
        if isinstance(node, ChanceNode) and any(
            isinstance(nodes[c], ChanceNode) for c in node.children
        ):
            flat = flatten(nid)
            dropped = set(node.children) - {c for _, c in flat}
            nodes[nid] = ChanceNode(tuple(c for _, c in flat))
            chance[nid] = tuple(p for p, _ in flat)
            for d in dropped | {
                c for c in node.children if isinstance(nodes[c], ChanceNode)
            }:
                nodes.pop(d, None)
                chance.pop(d, None)
            changed = True
    if not changed:
        return game
    reachable = set()
    stack = [s.root]
    while stack:
        nid = stack.pop()
        reachable.add(nid)
        node = nodes[nid]
        if isinstance(node, ChanceNode):
            stack.extend(node.children)
        elif isinstance(node, PlayerNode):
            stack.extend(c for _, c in node.children)
    nodes = {nid: n for nid, n in nodes.items() if nid in reachable}
    chance = {nid: p for nid, p in chance.items() if nid in reachable}
    structure = GameStructure(root=s.root, nodes=nodes, infosets=s.infosets)
    utility = {nid: u for nid, u in game.utility.items() if nid in reachable}
    return Game(structure=structure, chance=chance, utility=utility)


def _chain_depth(game):
    """The most chance nodes on one chance-to-chance path."""
    s = game.structure
    depth = {}
    for nid in reversed(list(s.preorder())):
        node = s.nodes[nid]
        if isinstance(node, ChanceNode):
            below = [depth[c] for c in node.children if isinstance(s.nodes[c], ChanceNode)]
            depth[nid] = 1 + max(below, default=0)
    return max(depth.values(), default=0)


def test_parse_game_fold_matches_second_pass():
    texts = [
        serialize_game(
            gen_random(
                FamilyParams(
                    family="random",
                    seed=seed,
                    depth=2 + seed % 6,
                    branching=2 + seed % 2,
                    players=players,
                )
            )
        )
        for seed in range(1, 200)
        for players in (1, 2)
    ]
    depths = []
    for text in texts:
        unfolded = _unfolded_parse(text)
        depths.append(_chain_depth(unfolded))
        want, got = _old_normalize_chance(unfolded), parse_game(text)
        assert got.structure.root == want.structure.root
        assert list(got.structure.nodes.items()) == list(want.structure.nodes.items())
        assert list(got.chance.items()) == list(want.chance.items())
        assert list(got.utility.items()) == list(want.utility.items())
    assert max(depths) >= 3  # a chain three chance levels deep
    assert sum(d >= 2 for d in depths) >= 100


def _leaf(payoff):
    return {"kind": "leaf", "payoff": payoff}


def _chance(*pairs):
    return {"kind": "chance", "children": [{"prob": p, "node": n} for p, n in pairs]}


def _game_doc(root, infosets=()):
    return json.dumps(
        {
            "version": 1,
            "players": ["max"],
            "infosets": [{"id": i, "owner": "max", "actions": list(a)} for i, a in infosets],
            "root": root,
        }
    )


CHAIN = _chance(("1/2", _chance(("1/2", _leaf("1")), ("1/2", _leaf("2")))), ("1/2", _leaf("3")))


@pytest.mark.parametrize(
    "text, message",
    [
        # a bad chance node after a folded chain keeps its preorder number
        (
            _game_doc(
                {
                    "kind": "player",
                    "infoset": "I",
                    "children": [
                        {"action": "a", "node": CHAIN},
                        {"action": "b", "node": _chance(("1/2", _leaf("4")), ("1/3", _leaf("5")))},
                    ],
                },
                [("I", "ab")],
            ),
            "chance node 6 probabilities sum to 5/6, not 1",
        ),
        # an inner distribution is checked through the folded parent
        (
            _game_doc(_chance(("1/2", _chance(("1/3", _leaf("1")), ("1/3", _leaf("2")))), ("1/2", _leaf("3")))),
            "chance node 0 probabilities sum to 5/6, not 1",
        ),
        (
            _game_doc(_chance(("1/2", _chance(("1/2", _leaf("1")), ("1/2", _leaf("x")))), ("1/2", _leaf("3")))),
            "root.children[0].node.children[1].node.payoff: bad rational 'x' (",
        ),
    ],
    ids=["sum-after-chain", "inner-sum", "payoff-under-chain"],
)
def test_parse_game_errors_under_a_folded_chain(text, message):
    with pytest.raises(DocumentError, match="^" + re.escape(message)):
        parse_game(text)
