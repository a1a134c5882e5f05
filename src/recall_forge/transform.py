"""Turning span certificates into equivalent games.

One weight step, `sequence_weights`, gives each target sequence the
chance weight x payoff of the source leaves that generate it; the span
route of `solver.solve` reads these weights directly.  The step scales
every leaf's value once, onto the common denominator of all the leaves,
and sums integers: the weights are linear in the leaf values, so this is
exact, and each sequence's `Fraction` is built once, from its
numerator.  Payoffs move onto a span structure through the same step,
so both games induce the same payoff polynomial: chance in the rebuilt
tree is uniform, and each target leaf receives its sequence's weight
divided by its own chance weight, which cancels the uniform choice.

Two-player composition stacks one player's span tree on top of the
other's: a copy of the second tree replaces every leaf of the first, with
information sets shared across copies.  A composed leaf's history is a
Max span sequence followed by a Min one, and it receives the payoffs of
every source leaf whose two combinations list those sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .model import (
    MAX,
    MIN,
    ChanceNode,
    Game,
    GameError,
    GameStructure,
    NodeId,
    PlayerNode,
    history,
)
from .seqsets import Sequence, extract_histories
from .span import SpanCertificate, structure_from_sequences


@dataclass(frozen=True)
class TransformedGame:
    game: Game


def uniform_chance(structure: GameStructure) -> dict[NodeId, tuple[Fraction, ...]]:
    out: dict[NodeId, tuple[Fraction, ...]] = {}
    for nid, node in structure.nodes.items():
        if isinstance(node, ChanceNode):
            k = len(node.children)
            out[nid] = tuple(Fraction(1, k) for _ in node.children)
    return out


def sequence_weights(
    source: Game, generated: Callable[[NodeId], Iterable[Sequence]]
) -> dict[Sequence, Fraction]:
    """Each sequence -> the sum of chance weight x payoff over the source
    leaves that `generated` maps to it.

    The sums are exact integer numerators over one common denominator,
    the lcm of every leaf's chance-weight denominator x payoff
    denominator; each sequence gets one `Fraction` at the end.
    """
    leaves = source.structure.leaves()
    weights, utility = source.chance_weights, source.utility
    scales = [weights[leaf].denominator * utility[leaf].denominator for leaf in leaves]
    d = math.lcm(*scales)
    sums: dict[Sequence, int] = {}
    for leaf, scale in zip(leaves, scales):
        value = weights[leaf].numerator * utility[leaf].numerator * (d // scale)
        for seq in generated(leaf):
            sums[seq] = sums.get(seq, 0) + value
    return {seq: Fraction(n, d) for seq, n in sums.items()}


def _assign_payoffs(
    source: Game,
    target: GameStructure,
    generated: Callable[[NodeId], Iterable[Sequence]],
) -> Game:
    """`target` with uniform chance and the payoffs of `source`, where
    `generated` is as in `sequence_weights`."""
    bucket = sequence_weights(source, generated)
    chance = uniform_chance(target)
    weights = Game(structure=target, chance=chance, utility={}).chance_weights
    utility = {
        leaf: bucket.get(target.histories[leaf], 0) / weights[leaf]
        for leaf in target.leaves()
    }
    return Game(structure=target, chance=chance, utility=utility)


def transfer_payoffs(source: Game, certificate: SpanCertificate) -> TransformedGame:
    """Rebuild the certificate's span as a game equivalent to `source`.

    Every source leaf contributes chance-weight x payoff to each target
    leaf whose sequence is in its history's combination.  The resulting
    payoff polynomial is identical to the source's under the strategy
    constraints.
    """
    players = source.structure.players()
    if len(players) > 1:
        raise GameError("payoff transfer expects a one-player (plus chance) game")
    source_set = extract_histories(source.structure)
    if source_set.sequences != certificate.original.sequences:
        raise GameError("certificate does not match the source's history set")

    target = structure_from_sequences(certificate.span)
    histories = source.structure.histories
    game = _assign_payoffs(source, target, lambda leaf: certificate.combinations[histories[leaf]])
    return TransformedGame(game=game)


def _graft(top: GameStructure, bottom: GameStructure, infosets) -> GameStructure:
    """Copy of `top` with a copy of `bottom` in place of every leaf.

    Each copy shifts `bottom`'s ids past every id used so far, and its
    root takes the id of the leaf it replaces.  Child order is kept, and
    information set ids are preserved, so the copies share them.
    """
    nodes = dict(top.nodes)
    low, high = min(bottom.nodes), max(bottom.nodes)
    shift = max(nodes) + 1 - low
    for leaf in top.leaves():
        ids = {b: b + shift for b in bottom.nodes}
        ids[bottom.root] = leaf
        for b, node in bottom.nodes.items():
            if isinstance(node, ChanceNode):
                node = ChanceNode(tuple(ids[c] for c in node.children))
            elif isinstance(node, PlayerNode):
                node = PlayerNode(node.infoset, tuple((a, ids[c]) for a, c in node.children))
            nodes[ids[b]] = node
        shift += high - low + 1
    return GameStructure(root=top.root, nodes=nodes, infosets=infosets)


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

    def generated(leaf: NodeId) -> list[Sequence]:
        maxes = span_max.combinations[history(source.structure, leaf, MAX)]
        mins = span_min.combinations[history(source.structure, leaf, MIN)]
        return [m + v for m in maxes for v in mins]

    game = _assign_payoffs(source, composed, generated)
    return TransformedGame(game=game)
