"""Exact maxmin for one-player games.

Three routes, all exact:

* brute force over pure strategies (the reference oracle; one-player
  non-absentminded games always have a pure optimum);
* a polynomial route for A-loss recall: a dynamic program over the
  player's own-history prefixes, one choice per (prefix, information
  set) pair, read off by one walk from the empty prefix;
* the span route for everything else: the same dynamic program over the
  minimal span's sequences, weighted from its certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .model import (
    Action,
    MAX,
    SizeLimitError,
    ChanceNode,
    Game,
    GameError,
    GameStructure,
    InformationSet,
    Leaf,
    Node,
    NodeId,
    PlayerNode,
    RecallClass,
    classify_recall,
    history,
    size_limit,
)
from .seqsets import Sequence, extract_histories
from .span import minimal_span
from .transform import sequence_weights

DEFAULT_MAX_PURE = 2**20
MAX_PURE_ENV = "RECALL_FORGE_MAX_PURE"


@dataclass(frozen=True)
class PureStrategy:
    choice: dict[str, Action]  # infoset id -> action


@dataclass(frozen=True)
class SolveResult:
    value: Fraction
    strategy: PureStrategy
    method: str  # bruteforce | refinement | span-pipeline


def _require_one_player_nam(game: Game) -> str:
    players = game.structure.players()
    if len(players) > 1:
        raise GameError("solver expects a one-player (plus chance) game")
    player = players[0] if players else MAX  # chance-only games are fine
    if classify_recall(game.structure, player) is RecallClass.ABSENTMINDED:
        raise GameError("absentminded inputs are not supported")
    return player


def expected_payoff(game: Game, strategy: PureStrategy) -> Fraction:
    """Exact expected payoff of a pure strategy."""

    def walk(nid: NodeId) -> Fraction:
        node = game.structure.nodes[nid]
        if isinstance(node, Leaf):
            return game.utility[nid]
        if isinstance(node, ChanceNode):
            return sum(
                (p * walk(c) for p, c in zip(game.chance[nid], node.children)),
                Fraction(0),
            )
        chosen = strategy.choice[node.infoset]
        for a, c in node.children:
            if a == chosen:
                return walk(c)
        raise GameError(f"strategy picks {chosen!r}, not available at {node.infoset!r}")

    return walk(game.structure.root)


def solve_bruteforce(game: Game) -> SolveResult:
    """Maximum over all pure strategies, enumerated lexicographically in
    declaration order; the first maximizer wins ties."""
    _require_one_player_nam(game)
    infosets = game.structure.infosets
    count = 1
    for i in infosets:
        count *= len(i.actions)
    limit = size_limit(MAX_PURE_ENV, DEFAULT_MAX_PURE)
    if count > limit:
        raise SizeLimitError(f"{count} pure strategies exceed the guard ({limit})")

    best: Optional[tuple[Fraction, PureStrategy]] = None
    for combo in itertools.product(*(i.actions for i in infosets)):
        strat = PureStrategy({i.id: a for i, a in zip(infosets, combo)})
        value = expected_payoff(game, strat)
        if best is None or value > best[0]:
            best = (value, strat)
    assert best is not None
    return SolveResult(value=best[0], strategy=best[1], method="bruteforce")


def refine_alr(structure: GameStructure) -> tuple[GameStructure, dict[str, str]]:
    """Split every information set by the player's own history.

    For A-loss recall this refinement is lossless under pure strategies:
    two histories at a set diverge at an earlier own set, so a pure
    strategy can only reach one of them.  The output has perfect recall.
    Action labels gain a class suffix to stay globally unique; the
    returned map sends refined infoset ids back to the originals.
    """
    players = structure.players()
    if len(players) > 1:
        raise GameError("refinement expects a one-player structure")
    player = players[0] if players else MAX
    if classify_recall(structure, player) not in (RecallClass.PFR, RecallClass.ALR_NOT_PFR):
        raise GameError("refinement needs an A-loss-recall input")

    # class index per (infoset, own history), in preorder discovery order
    classes: dict[tuple[str, tuple[Action, ...]], int] = {}
    node_class: dict[NodeId, int] = {}
    counts: dict[str, int] = {}
    for nid in structure.preorder():
        node = structure.nodes[nid]
        if not isinstance(node, PlayerNode):
            continue
        h = history(structure, nid, player)
        key = (node.infoset, h)
        if key not in classes:
            classes[key] = counts.get(node.infoset, 0)
            counts[node.infoset] = classes[key] + 1
        node_class[nid] = classes[key]

    def refined_id(iid: str, k: int) -> str:
        return iid if counts.get(iid, 1) == 1 else f"{iid}#{k}"

    def refined_action(a: Action, iid: str, k: int) -> Action:
        return a if counts.get(iid, 1) == 1 else f"{a}#{k}"

    new_infosets: list[InformationSet] = []
    back: dict[str, str] = {}
    for info in structure.infosets:
        for k in range(counts.get(info.id, 1)):
            rid = refined_id(info.id, k)
            back[rid] = info.id
            new_infosets.append(
                InformationSet(
                    id=rid,
                    owner=info.owner,
                    actions=tuple(refined_action(a, info.id, k) for a in info.actions),
                )
            )

    new_nodes: dict[NodeId, Node] = {}
    for nid, node in structure.nodes.items():
        if isinstance(node, PlayerNode):
            k = node_class[nid]
            new_nodes[nid] = PlayerNode(
                infoset=refined_id(node.infoset, k),
                children=tuple(
                    (refined_action(a, node.infoset, k), c) for a, c in node.children
                ),
            )
        else:
            new_nodes[nid] = node

    refined = GameStructure(
        root=structure.root, nodes=new_nodes, infosets=tuple(new_infosets)
    )
    return refined, back


def solve_alr(game: Game) -> SolveResult:
    """Polynomial route for perfect- or A-loss-recall one-player games.

    With A-loss recall, two histories at one information set first
    diverge with different actions of a common earlier set, so a pure
    strategy reaches at most one own history of each set.  Hence each
    (own-history prefix, information set) pair takes, on its own, the
    first action of maximal continuation value (`_prefix_dp`).  `method`
    is "refinement": splitting sets by own history is the same decomposition.
    """
    player = _require_one_player_nam(game)
    if not classify_recall(game.structure, player).is_alr:
        raise GameError("input does not have A-loss recall")
    s = game.structure
    # One player, so a node's history is the player's own history.
    weight = sequence_weights(game, lambda leaf: (s.histories[leaf],))
    nodes = ((h, s.nodes[nid]) for nid, h in s.histories.items())
    played = ((h, node.infoset) for h, node in nodes if isinstance(node, PlayerNode))
    return _prefix_dp(game, weight, played, "refinement")


def _prefix_dp(
    game: Game, weight: dict[Sequence, Fraction], played: Iterable[tuple[Sequence, str]], method: str
) -> SolveResult:
    """First-maximum DP: `weight` maps an own-history prefix to the
    chance-weighted payoff that ends there, and `played` pairs a prefix
    with each information set played after it.  Prefixes are solved
    longest first; one walk from the empty prefix reads off the strategy,
    and a set it misses takes its first action."""
    after: dict[Sequence, dict[str, None]] = {}
    for prefix, iid in played:
        after.setdefault(prefix, {})[iid] = None
    info = game.structure.infoset_by_id
    value = dict(weight)
    best: dict[tuple[Sequence, str], Action] = {}
    for prefix in sorted(after, key=len, reverse=True):
        total = value.get(prefix, 0)
        for iid in after[prefix]:
            best_v: Optional[Fraction] = None
            for a in info[iid].actions:
                v = value.get(prefix + (a,), 0)
                if best_v is None or v > best_v:
                    best_v, best[prefix, iid] = v, a
            total += best_v
        value[prefix] = total

    choice: dict[str, Action] = {}
    stack: list[Sequence] = [()]
    while stack:
        prefix = stack.pop()
        for iid in after.get(prefix, ()):
            choice[iid] = best[prefix, iid]
            stack.append(prefix + (choice[iid],))
    strategy = PureStrategy({i.id: choice.get(i.id, i.actions[0]) for i in game.structure.infosets})
    return SolveResult(value=Fraction(value.get((), 0)), strategy=strategy, method=method)


def solve(game: Game, method: str = "auto") -> SolveResult:
    """Dispatch: `bruteforce`, `span`, or `auto` (A-loss recall when the
    structure already has it, otherwise the span route, which runs
    `_prefix_dp` on the minimal span's sequences and the input's sets)."""
    player = _require_one_player_nam(game)
    if method == "bruteforce":
        return solve_bruteforce(game)
    if method == "auto" and classify_recall(game.structure, player).is_alr:
        return solve_alr(game)
    if method not in ("auto", "span"):
        raise GameError(f"unknown method {method!r}")

    s = game.structure
    certificate = minimal_span(extract_histories(s))
    weight = sequence_weights(game, lambda leaf: certificate.combinations[s.histories[leaf]])
    span = certificate.span.sequences
    played = ((seq[:k], s.infoset_of_action[a]) for seq in span for k, a in enumerate(seq))
    return _prefix_dp(game, weight, played, "span-pipeline")
