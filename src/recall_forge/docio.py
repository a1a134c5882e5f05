"""The on-disk game and certificate formats.

Games are JSON documents: a version tag, the player list, the information
sets (id, owner, ordered actions), and a nested node tree.  Probabilities
and payoffs are strings, either an integer or "num/den", so exact
rationals survive serialization.  The reader folds chance chains while
it reads the document: the children of a chance child join the parent's
distribution, scaled by the child's probability.  Parsed games therefore
have no chance-to-chance edge, and serialize/parse round-trips are
byte-identical.

Certificates list the original sequences, the span sequences, and the
coefficient-1 generator subset for each original sequence.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, count
from json.encoder import encode_basestring_ascii
from typing import Any

from .model import (
    ChanceNode,
    Game,
    GameError,
    GameStructure,
    InformationSet,
    Leaf,
    Node,
    NodeId,
    PlayerNode,
    validate_game,
)
from .seqsets import Sequence, SequenceSet
from .span import SpanCertificate
from .transform import uniform_chance

FORMAT_VERSION = 1


class DocumentError(GameError):
    """Malformed document; the message names the offending field."""


def _parse_rational(raw: Any, where: str) -> Fraction:
    if not isinstance(raw, str):
        raise DocumentError(f"{where}: expected a rational string, got {raw!r}")
    try:
        if "/" in raw:
            num, den = raw.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(raw))
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"{where}: bad rational {raw!r} ({exc})") from None


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _children(raw: dict, where: str) -> list[dict]:
    """The node's nonempty list of child objects."""
    kids = raw.get("children")
    if not isinstance(kids, list) or not kids:
        raise DocumentError(f"{where}.children: expected a nonempty list")
    for j, kid in enumerate(kids):
        if not isinstance(kid, dict):
            raise DocumentError(f"{where}.children[{j}]: expected an object, got {kid!r}")
    return kids


def _nonempty_strings(items: list) -> bool:
    return "" not in items and set(map(type, items)) <= {str}


def _strings(raw: Any, where: str) -> tuple[str, ...]:
    """`raw` as a tuple, if it is a list of nonempty strings."""
    if type(raw) is not list or not _nonempty_strings(raw):
        raise DocumentError(f"{where}: expected a list of nonempty strings")
    return tuple(raw)


def _sequences(raw: Any, where: str) -> frozenset[Sequence]:
    """`raw` as a set of sequences, if it is a list of lists of nonempty
    strings."""
    if (
        type(raw) is not list
        or not set(map(type, raw)) <= {list}
        or not _nonempty_strings(list(chain.from_iterable(raw)))
    ):
        raise DocumentError(f"{where}: expected a list of lists of nonempty strings")
    return frozenset(map(tuple, raw))


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("not valid JSON: nested too deeply") from None


def _infosets(raw_sets: Any) -> tuple[InformationSet, ...]:
    """The `infosets` list of a game or certificate document."""
    if not isinstance(raw_sets, list):
        raise DocumentError("infosets: expected a list")
    infosets = []
    for k, raw in enumerate(raw_sets):
        where = f"infosets[{k}]"
        if not isinstance(raw, dict):
            raise DocumentError(f"{where}: expected an object")
        for key in ("id", "owner", "actions"):
            if key not in raw:
                raise DocumentError(f"{where}: missing {key!r}")
        actions = _strings(raw["actions"], f"{where}.actions")
        try:
            infosets.append(InformationSet(str(raw["id"]), str(raw["owner"]), actions))
        except GameError as exc:
            raise DocumentError(f"{where}: {exc}") from None
    return tuple(infosets)


def _infoset_docs(infosets: tuple[InformationSet, ...]) -> list[dict[str, Any]]:
    """The `infosets` list that `_infosets` reads back."""
    return [{"id": i.id, "owner": i.owner, "actions": i.actions} for i in infosets]


def parse_game(text: str) -> Game:
    """Parse and validate a game document, folding chance chains as they
    are read."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise DocumentError("top level must be an object")
    if doc.get("version") != FORMAT_VERSION:
        raise DocumentError(f"unsupported version {doc.get('version')!r}")

    infosets = _infosets(doc.get("infosets"))
    nodes: dict[NodeId, Node] = {}
    chance: dict[NodeId, tuple[Fraction, ...]] = {}
    utility: dict[NodeId, Fraction] = {}
    counter = count()

    def walk(raw: Any, where: str) -> NodeId:
        if not isinstance(raw, dict) or "kind" not in raw:
            raise DocumentError(f"{where}: expected a node object with 'kind'")
        nid = next(counter)
        kind = raw["kind"]
        if kind == "leaf":
            nodes[nid] = Leaf()
            utility[nid] = _parse_rational(raw.get("payoff"), f"{where}.payoff")
        elif kind == "chance":
            nodes[nid] = ChanceNode(())
            pairs = chance_pairs(raw, where)
            nodes[nid] = ChanceNode(tuple(c for _, c in pairs))
            chance[nid] = tuple(p for p, _ in pairs)
        elif kind == "player":
            if "infoset" not in raw:
                raise DocumentError(f"{where}: missing 'infoset'")
            kids_raw = _children(raw, where)
            nodes[nid] = PlayerNode(str(raw["infoset"]), ())
            pairs = []
            for j, kid in enumerate(kids_raw):
                action = kid.get("action")
                if not isinstance(action, str):
                    raise DocumentError(f"{where}.children[{j}]: missing 'action'")
                pairs.append((action, walk(kid.get("node"), f"{where}.children[{j}].node")))
            nodes[nid] = PlayerNode(str(raw["infoset"]), tuple(pairs))
        else:
            raise DocumentError(f"{where}: unknown kind {kind!r}")
        return nid

    def chance_pairs(raw: dict, where: str) -> list[tuple[Fraction, NodeId]]:
        """The (probability, child) pairs of a chance object.  A chance
        child is folded in: it takes its preorder number but stores no
        node, and its own pairs join the list, scaled by its probability."""
        pairs = []
        for j, kid in enumerate(_children(raw, where)):
            p = _parse_rational(kid.get("prob"), f"{where}.children[{j}].prob")
            node, at = kid.get("node"), f"{where}.children[{j}].node"
            if isinstance(node, dict) and node.get("kind") == "chance":
                next(counter)
                pairs.extend((p * q, c) for q, c in chance_pairs(node, at))
            else:
                pairs.append((p, walk(node, at)))
        return pairs

    try:
        root = walk(doc.get("root"), "root")
    finally:
        del walk, chance_pairs  # they refer to themselves; dropping them frees them now
    structure = GameStructure(root=root, nodes=nodes, infosets=infosets)
    game = Game(structure=structure, chance=chance, utility=utility)
    problems = validate_game(game)
    if problems:
        raise DocumentError("; ".join(problems))
    return game


def _dumps(doc: Any) -> str:
    """`json.dumps(doc, indent=2)`, for documents of str, int, list, tuple
    and str-keyed dict, written in one pass.

    With `indent` set the standard library runs its pure-Python encoder;
    this builds each container with one join and escapes strings with the
    same C escaper.  A tuple of strings (a sequence, which recurs across a
    certificate's span and generator lists) is encoded once per nesting
    level.  Any other type raises `TypeError`, so the text never differs
    from `json.dumps`.
    """
    memo: dict[tuple[tuple[str, ...], int], str] = {}

    def enc(o: Any, level: int) -> str:
        kind = type(o)
        if kind is str:
            return encode_basestring_ascii(o)
        if kind is int:
            return repr(o)
        if kind is tuple:
            key = (o, level)
            try:
                return memo[key]
            except (KeyError, TypeError):  # TypeError: holds a list or dict
                pass
        if kind is list or kind is tuple:
            if not o:
                return "[]"
            inner = "\n" + "  " * (level + 1)
            parts = []
            for x in o:
                parts.append(enc(x, level + 1))
            text = "[" + inner + ("," + inner).join(parts) + inner[:-2] + "]"
            # Only tuples of str are kept: (1,) == (True,), but one is an
            # int and the other a bool the writer must refuse.
            if kind is tuple and all(type(x) is str for x in o):
                memo[key] = text
            return text
        if kind is dict:
            if not o:
                return "{}"
            inner = "\n" + "  " * (level + 1)
            parts = []
            for k, v in o.items():  # the escaper raises TypeError on a non-str key
                parts.append(encode_basestring_ascii(k) + ": " + enc(v, level + 1))
            return "{" + inner + ("," + inner).join(parts) + inner[:-2] + "}"
        raise TypeError(f"cannot write {kind.__name__} to a document")

    try:
        return enc(doc, 0)
    finally:
        del enc  # `enc` refers to itself; dropping it frees it and the memo now


def _node_doc(game: Game, nid: NodeId) -> dict[str, Any]:
    node = game.structure.nodes[nid]
    if isinstance(node, Leaf):
        return {"kind": "leaf", "payoff": format_rational(game.utility[nid])}
    if isinstance(node, ChanceNode):
        return {
            "kind": "chance",
            "children": [
                {"prob": format_rational(p), "node": _node_doc(game, c)}
                for p, c in zip(game.chance[nid], node.children)
            ],
        }
    return {
        "kind": "player",
        "infoset": node.infoset,
        "children": [
            {"action": a, "node": _node_doc(game, c)} for a, c in node.children
        ],
    }


def serialize_game(game: Game) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "players": list(game.structure.players()),
        "infosets": _infoset_docs(game.structure.infosets),
        "root": _node_doc(game, game.structure.root),
    }
    return _dumps(doc) + "\n"


def serialize_certificate(cert: SpanCertificate) -> str:
    """The certificate document: each generator list in plain `sorted()`
    order, found by each generator's rank in the sorted span (generators
    are span sequences, as in every certificate `verify_span` returns)."""
    original = cert.original.sorted_sequences()
    rank = {s: k for k, s in enumerate(sorted(cert.span.sequences))}
    doc = {
        "version": FORMAT_VERSION,
        "infosets": _infoset_docs(cert.original.infosets),
        "original": original,
        "span": cert.span.sorted_sequences(),
        "combinations": [
            {"sequence": s, "generators": sorted(cert.combinations[s], key=rank.__getitem__)}
            for s in original
        ],
    }
    return _dumps(doc) + "\n"


def parse_certificate(text: str) -> SpanCertificate:
    doc = _load_json(text)
    if not isinstance(doc, dict) or doc.get("version") != FORMAT_VERSION:
        raise DocumentError("unsupported certificate document")
    try:
        infosets = _infosets(doc.get("infosets"))
        original = SequenceSet(_sequences(doc["original"], "original"), infosets)
        span = original.with_sequences(_sequences(doc["span"], "span"))
        combos: dict[Sequence, frozenset[Sequence]] = {}
        for k, row in enumerate(doc["combinations"]):
            where = f"combinations[{k}]"
            combos[_strings(row["sequence"], f"{where}.sequence")] = _sequences(
                row["generators"], f"{where}.generators"
            )
    except (KeyError, TypeError, GameError) as exc:
        raise DocumentError(f"malformed certificate: {exc}") from None
    missing = original.sequences - set(combos)
    if missing:
        raise DocumentError(f"certificate misses {len(missing)} original sequence(s)")
    return SpanCertificate(original=original, span=span, combinations=combos)


def structure_as_game(structure: GameStructure) -> Game:
    """Wrap a bare structure as a document-ready game: uniform chance,
    zero payoffs."""
    utility = {nid: Fraction(0) for nid in structure.leaves()}
    return Game(structure=structure, chance=uniform_chance(structure), utility=utility)
