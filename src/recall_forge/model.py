"""Game trees with information sets, and recall classification.

A game structure is a rooted tree of chance, player, and leaf nodes.
Player nodes are grouped into information sets; every node of an
information set offers the same ordered action list, and action labels
are globally unique, so a history (the sequence of action labels on the
root path) determines which information sets were visited.

A game adds exact-rational chance distributions and leaf payoffs on top
of a structure.  All arithmetic in this package is `fractions.Fraction`;
no floats appear in any result.
"""

from __future__ import annotations

import enum
import itertools
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional

MAX = "max"
MIN = "min"

Action = str
NodeId = int


class GameError(Exception):
    """Raised when an operation is applied outside its domain."""


class SizeLimitError(GameError):
    """Raised when a guarded operation would exceed its size bound."""


def size_limit(env: str, default: int) -> int:
    """The bound that environment variable `env` sets, else `default`."""
    raw = os.environ.get(env)
    try:
        return int(raw) if raw else default
    except ValueError:
        raise GameError(f"{env}={raw!r} is not an integer") from None


@dataclass(frozen=True)
class InformationSet:
    id: str
    owner: str
    actions: tuple[Action, ...]

    def __post_init__(self) -> None:
        if not self.actions:
            raise GameError(f"information set {self.id!r} has no actions")
        if self.owner not in (MAX, MIN):
            raise GameError(f"information set {self.id!r} has unknown owner {self.owner!r}")


@dataclass(frozen=True)
class ChanceNode:
    children: tuple[NodeId, ...]


@dataclass(frozen=True)
class PlayerNode:
    infoset: str
    children: tuple[tuple[Action, NodeId], ...]  # (action, child) in action order


@dataclass(frozen=True)
class Leaf:
    pass


Node = ChanceNode | PlayerNode | Leaf


class RecallClass(enum.Enum):
    PFR = "pfr"
    ALR_NOT_PFR = "alr"
    NAM_NOT_ALR = "nam"
    ABSENTMINDED = "absentminded"

    @property
    def is_alr(self) -> bool:
        return self in (RecallClass.PFR, RecallClass.ALR_NOT_PFR)

    @property
    def is_nam(self) -> bool:
        return self is not RecallClass.ABSENTMINDED


@dataclass(frozen=True)
class GameStructure:
    """Immutable game tree.  Nodes live in `nodes`, keyed by integer id."""

    root: NodeId
    nodes: dict[NodeId, Node]
    infosets: tuple[InformationSet, ...]

    @cached_property
    def infoset_by_id(self) -> dict[str, InformationSet]:
        return {i.id: i for i in self.infosets}

    @cached_property
    def infoset_of_action(self) -> dict[Action, str]:
        out: dict[Action, str] = {}
        for i in self.infosets:
            for a in i.actions:
                out[a] = i.id
        return out

    @cached_property
    def histories(self) -> dict[NodeId, tuple[Action, ...]]:
        """Node -> action labels on its root path, chance edges skipped.

        Filled top-down in one preorder pass; it assumes the structure is
        not mutated after first use.
        """
        out: dict[NodeId, tuple[Action, ...]] = {self.root: ()}
        for nid in self.preorder():
            node = self.nodes[nid]
            if isinstance(node, ChanceNode):
                for c in node.children:
                    out[c] = out[nid]
            elif isinstance(node, PlayerNode):
                for a, c in node.children:
                    out[c] = out[nid] + (a,)
        return out

    @cached_property
    def problems(self) -> tuple[str, ...]:
        """`validate(self)`, computed once."""
        return tuple(validate(self))

    @cached_property
    def recall_classes(self) -> dict[str, RecallClass]:
        """Each player's recall class, computed once the structure validates."""
        if self.problems:
            raise GameError("invalid structure: " + "; ".join(self.problems))
        return {p: _classify(self, p) for p in self.players()}

    def leaves(self) -> list[NodeId]:
        return [nid for nid in self.preorder() if isinstance(self.nodes[nid], Leaf)]

    def preorder(self) -> Iterator[NodeId]:
        stack = [self.root]
        while stack:
            nid = stack.pop()
            yield nid
            node = self.nodes[nid]
            if isinstance(node, ChanceNode):
                stack.extend(reversed(node.children))
            elif isinstance(node, PlayerNode):
                stack.extend(c for _, c in reversed(node.children))

    def members(self, infoset_id: str) -> list[NodeId]:
        return [
            nid
            for nid in self.preorder()
            if isinstance(self.nodes[nid], PlayerNode) and self.nodes[nid].infoset == infoset_id
        ]

    def players(self) -> tuple[str, ...]:
        seen = []
        for i in self.infosets:
            if i.owner not in seen:
                seen.append(i.owner)
        return tuple(seen)


@dataclass(frozen=True)
class Game:
    structure: GameStructure
    chance: dict[NodeId, tuple[Fraction, ...]]  # one weight per child, sums to 1
    utility: dict[NodeId, Fraction]  # one payoff per leaf

    @cached_property
    def chance_weights(self) -> dict[NodeId, Fraction]:
        """Node -> product of chance probabilities on its root path, filled
        top-down in one preorder pass."""
        s = self.structure
        out: dict[NodeId, Fraction] = {s.root: Fraction(1)}
        for nid in s.preorder():
            node = s.nodes[nid]
            if isinstance(node, ChanceNode):
                for p, c in zip(self.chance[nid], node.children):
                    out[c] = out[nid] * p
            elif isinstance(node, PlayerNode):
                for _, c in node.children:
                    out[c] = out[nid]
        return out

    def chance_weight(self, leaf: NodeId) -> Fraction:
        """Product of chance probabilities on the root path to `leaf`."""
        return self.chance_weights[leaf]


def validate(structure: GameStructure) -> list[str]:
    """Check every structural invariant; returns human-readable violations.

    An empty list means the structure is valid.  Violations are data, not
    exceptions, so callers can report all problems at once.
    """
    out: list[str] = []
    counts = Counter(i.id for i in structure.infosets)
    for iid in sorted(i for i, n in counts.items() if n > 1):
        out.append(f"duplicate information set id {iid!r}")

    seen_action: dict[Action, str] = {}
    for i in structure.infosets:
        for a in i.actions:
            if a in seen_action:
                out.append(f"action {a!r} appears in both {seen_action[a]!r} and {i.id!r}")
            else:
                seen_action[a] = i.id
        if len(set(i.actions)) != len(i.actions):
            out.append(f"information set {i.id!r} repeats an action label")

    if structure.root not in structure.nodes:
        out.append(f"root id {structure.root} is not a node")
        return out

    # The edge relation must induce a tree rooted at root.
    seen_child: set[NodeId] = set()
    reached: set[NodeId] = set()
    stack = [structure.root]
    while stack:
        nid = stack.pop()
        if nid in reached:
            out.append(f"node {nid} is reached twice (edge relation is not a tree)")
            continue
        reached.add(nid)
        node = structure.nodes.get(nid)
        if node is None:
            out.append(f"edge points to missing node {nid}")
            continue
        if isinstance(node, ChanceNode):
            if not node.children:
                out.append(f"chance node {nid} has no children")
            kids = list(node.children)
        elif isinstance(node, PlayerNode):
            info = structure.infoset_by_id.get(node.infoset)
            if info is None:
                out.append(f"node {nid} references unknown information set {node.infoset!r}")
                kids = [c for _, c in node.children]
            else:
                if tuple(a for a, _ in node.children) != info.actions:
                    out.append(
                        f"node {nid} actions differ from information set {info.id!r}"
                    )
                kids = [c for _, c in node.children]
        else:
            kids = []
        for c in kids:
            if c in seen_child:
                out.append(f"node {c} has two parents")
            seen_child.add(c)
            stack.append(c)

    for nid in structure.nodes:
        if nid not in reached:
            out.append(f"node {nid} is unreachable from the root")
    if structure.root in seen_child:
        out.append("root node has an incoming edge")
    return out


def validate_game(game: Game) -> list[str]:
    """Structure invariants plus chance/payoff bookkeeping."""
    out = list(game.structure.problems)
    for nid, node in game.structure.nodes.items():
        if isinstance(node, ChanceNode):
            probs = game.chance.get(nid)
            if probs is None:
                out.append(f"chance node {nid} has no distribution")
                continue
            if len(probs) != len(node.children):
                out.append(f"chance node {nid} distribution arity mismatch")
            elif any(p < 0 for p in probs):
                out.append(f"chance node {nid} has a negative probability")
            elif sum(probs) != 1:
                out.append(f"chance node {nid} probabilities sum to {sum(probs)}, not 1")
        elif isinstance(node, Leaf):
            if nid not in game.utility:
                out.append(f"leaf {nid} has no payoff")
    return out


def history(
    structure: GameStructure, node: NodeId, player: Optional[str] = None
) -> tuple[Action, ...]:
    """Action labels on the root path to `node`, chance edges skipped.

    With `player`, only that player's actions are kept.
    """
    try:
        h = structure.histories[node]
    except KeyError:
        raise GameError(f"unknown node id {node}") from None
    if player is None:
        return h
    info, act_info = structure.infoset_by_id, structure.infoset_of_action
    return tuple(a for a in h if info[act_info[a]].owner == player)


def classify_recall(structure: GameStructure, player: str) -> RecallClass:
    """Finest recall class of `player` in `structure`.

    Absentmindedness wins over everything: a node sharing an information
    set with a strict ancestor.  Otherwise perfect recall means one
    history per information set, and A-loss recall is the rule
    `a_loss_recall` on the player's own histories at each of its sets.
    A player without information sets has perfect recall.  The structure
    is validated and classified once; later calls read the result.
    """
    return structure.recall_classes.get(player, RecallClass.PFR)


def _classify(structure: GameStructure, player: str) -> RecallClass:
    """Uncached `classify_recall`; `a_loss_recall` decides A-loss recall."""
    own_ids = {i.id for i in structure.infosets if i.owner == player}
    act_to_info = structure.infoset_of_action

    # A node is absentminded when its history holds an action of its own
    # information set, that is, when an ancestor shares the set.
    hist_sets: dict[str, set[tuple[Action, ...]]] = {iid: set() for iid in own_ids}
    for nid, full in structure.histories.items():
        node = structure.nodes[nid]
        if isinstance(node, PlayerNode) and node.infoset in own_ids:
            infos = [act_to_info[a] for a in full]
            if node.infoset in infos:
                return RecallClass.ABSENTMINDED
            hist_sets[node.infoset].add(tuple(a for a, i in zip(full, infos) if i in own_ids))

    if all(len(hs) <= 1 for hs in hist_sets.values()):
        return RecallClass.PFR
    if a_loss_recall(hist_sets.values(), act_to_info):
        return RecallClass.ALR_NOT_PFR
    return RecallClass.NAM_NOT_ALR


def a_loss_recall(
    reaching: Iterable[Iterable[tuple[Action, ...]]], infoset_of: Mapping[Action, str]
) -> bool:
    """The A-loss-recall rule (Kaneko & Kline 1995), given the histories
    that reach each information set, one collection per set: any two of
    one collection first diverge with two actions of one common set.

    In sorted order two histories fail `one_set_divergence` only if an
    adjacent pair between them does, so the adjacent pairs decide it.
    """
    pairs = (pair for hs in reaching for pair in itertools.pairwise(sorted(hs)))
    return all(one_set_divergence(h, g, infoset_of) for h, g in pairs)


def one_set_divergence(
    h: tuple[Action, ...], g: tuple[Action, ...], infoset_of: Mapping[Action, str]
) -> bool:
    """The A-loss-recall test on two histories of one information set:
    true when they are equal or first diverge with two actions of one set
    (`infoset_of` maps an action to its set's id), false when one is a
    proper prefix of the other or they first diverge in two sets."""
    for a, b in zip(h, g):
        if a != b:
            return infoset_of[a] == infoset_of[b]
    return len(h) == len(g)
