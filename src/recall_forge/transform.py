"""Turning span certificates into equivalent games.

Payoffs move from a source game onto a span structure so that both games
induce the same payoff polynomial: chance in the rebuilt tree is uniform,
and each target leaf receives the chance-weighted sum of the source
payoffs it helps generate, divided by its own chance weight.  The uniform
choice is value-neutral because the division cancels it.

Two-player composition stacks one player's span tree on top of the
other's (a copy of the second tree under every leaf of the first, with
information sets shared across copies) and assigns payoffs from the
product of the two certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import (
    MAX,
    MIN,
    ChanceNode,
    Game,
    GameError,
    GameStructure,
    Leaf,
    Node,
    NodeId,
    PlayerNode,
    history,
)
from .seqsets import Sequence, extract_histories
from .span import SpanCertificate, structure_from_sequences

# target leaf -> [(source leaf, coefficient, source chance weight)]
PayoffTrace = dict[NodeId, list[tuple[NodeId, Fraction, Fraction]]]


@dataclass(frozen=True)
class TransformedGame:
    game: Game
    provenance: SpanCertificate
    payoff_trace: PayoffTrace
    provenance_min: Optional[SpanCertificate] = None


def uniform_chance(structure: GameStructure) -> dict[NodeId, tuple[Fraction, ...]]:
    out: dict[NodeId, tuple[Fraction, ...]] = {}
    for nid, node in structure.nodes.items():
        if isinstance(node, ChanceNode):
            k = len(node.children)
            out[nid] = tuple(Fraction(1, k) for _ in node.children)
    return out


def transfer_payoffs(source: Game, certificate: SpanCertificate) -> TransformedGame:
    """Rebuild the certificate's span as a game equivalent to `source`.

    Every source leaf whose history's combination includes a target
    leaf's sequence contributes chance-weight x payoff there; leaves that
    share a history all contribute.  The resulting payoff polynomial is
    identical to the source's under the strategy constraints.
    """
    players = source.structure.players()
    if len(players) > 1:
        raise GameError("payoff transfer expects a one-player (plus chance) game")
    source_set = extract_histories(source.structure)
    if source_set.sequences != certificate.original.sequences:
        raise GameError("certificate does not match the source's history set")

    target = structure_from_sequences(certificate.span)
    chance = uniform_chance(target)
    game = Game(structure=target, chance=chance, utility={})

    # bucket[target sequence] = accumulated chance-weighted source payoff
    bucket: dict[Sequence, Fraction] = {}
    trace_by_seq: dict[Sequence, list[tuple[NodeId, Fraction, Fraction]]] = {}
    for leaf in source.structure.leaves():
        hist = source.structure.histories[leaf]
        w = source.chance_weight(leaf)
        for target_seq in certificate.combinations[hist]:
            bucket[target_seq] = bucket.get(target_seq, Fraction(0)) + w * source.utility[leaf]
            trace_by_seq.setdefault(target_seq, []).append((leaf, Fraction(1), w))

    utility: dict[NodeId, Fraction] = {}
    trace: PayoffTrace = {}
    for leaf in target.leaves():
        seq = target.histories[leaf]
        weight = game.chance_weight(leaf)
        assert weight > 0  # uniform distributions have full support
        utility[leaf] = bucket.get(seq, Fraction(0)) / weight
        trace[leaf] = trace_by_seq.get(seq, [])

    final = Game(structure=target, chance=chance, utility=utility)
    return TransformedGame(game=final, provenance=certificate, payoff_trace=trace)


def _graft(
    top: GameStructure, bottom: GameStructure, infosets
) -> GameStructure:
    """Copy of `top` with a fresh copy of `bottom` under every leaf.

    Information set ids are preserved, so the copies share them.
    """
    nodes: dict[NodeId, Node] = {}
    next_id = [0]

    def copy(structure: GameStructure, nid: NodeId, graft_leaves: bool) -> NodeId:
        new_id = next_id[0]
        next_id[0] += 1
        node = structure.nodes[nid]
        if isinstance(node, Leaf):
            if graft_leaves:
                # placeholder; replaced by the grafted subtree root below
                next_id[0] -= 1
                return copy(bottom, bottom.root, False)
            nodes[new_id] = Leaf()
            return new_id
        if isinstance(node, ChanceNode):
            nodes[new_id] = ChanceNode(())  # reserve the id before recursing
            kids = tuple(copy(structure, c, graft_leaves) for c in node.children)
            nodes[new_id] = ChanceNode(kids)
            return new_id
        nodes[new_id] = PlayerNode(node.infoset, ())
        kids2 = tuple((a, copy(structure, c, graft_leaves)) for a, c in node.children)
        nodes[new_id] = PlayerNode(node.infoset, kids2)
        return new_id

    root = copy(top, top.root, True)
    return GameStructure(root=root, nodes=nodes, infosets=infosets)


def compose_two_player(
    source: Game, span_max: SpanCertificate, span_min: SpanCertificate
) -> TransformedGame:
    """Equivalent two-player game built from per-player span certificates.

    The composed tree is the Max span with a copy of the Min span at each
    Max leaf; its leaf count is the product of the two span sizes.  A
    composed leaf's payoff collects every source leaf whose Max part and
    Min part both list it in their combinations.
    """
    owners = set(source.structure.players())
    if owners != {MAX, MIN}:
        raise GameError("composition expects a two-player game")
    for player, cert in ((MAX, span_max), (MIN, span_min)):
        proj = extract_histories(source.structure, player)
        # the span may only use the player's own information sets, so that
        # composed histories split by owner
        foreign = set(cert.span.infosets) - set(proj.infosets)
        if proj.sequences != cert.original.sequences or foreign:
            raise GameError(f"{player} certificate does not match the {player} projection")

    top = structure_from_sequences(span_max.span)
    bottom = structure_from_sequences(span_min.span)
    composed = _graft(top, bottom, source.structure.infosets)
    chance = uniform_chance(composed)
    shell = Game(structure=composed, chance=chance, utility={})

    bucket: dict[tuple[Sequence, Sequence], Fraction] = {}
    trace_by_seq: dict[tuple[Sequence, Sequence], list] = {}
    for leaf in source.structure.leaves():
        h_max = history(source.structure, leaf, MAX)
        h_min = history(source.structure, leaf, MIN)
        w = source.chance_weight(leaf)
        for m in span_max.combinations[h_max]:
            for v in span_min.combinations[h_min]:
                key = (m, v)
                bucket[key] = bucket.get(key, Fraction(0)) + w * source.utility[leaf]
                trace_by_seq.setdefault(key, []).append((leaf, Fraction(1), w))

    utility: dict[NodeId, Fraction] = {}
    trace: PayoffTrace = {}
    for leaf in composed.leaves():
        m = history(composed, leaf, MAX)
        v = history(composed, leaf, MIN)
        weight = shell.chance_weight(leaf)
        utility[leaf] = bucket.get((m, v), Fraction(0)) / weight
        trace[leaf] = trace_by_seq.get((m, v), [])

    final = Game(structure=composed, chance=chance, utility=utility)
    return TransformedGame(
        game=final, provenance=span_max, payoff_trace=trace, provenance_min=span_min
    )
