"""Game families for tests and benchmarks.

The pennies family: a fair n-faced die, then Alice picks a coin side,
then Bob; the team scores 1 when the sides match on an even die outcome
or differ on an odd one.  The three variants only differ in what the
team observes, and form an information-refinement chain:

* variant I   - Alice and Bob observe nothing (one set each);
* variant II  - Alice pools die outcomes {2i, 2i+1}, Bob observes nothing;
* variant III - Alice as in II, Bob sees Alice's coin and nothing else.

From n = 3 on they form the ladder: variant I has A-loss recall, variant
II does not but shuffles into it, and variant III does not shuffle and
has shuffle depth 2.  At n <= 2 the ladder collapses: the pooled set
{0, 1} covers the whole die, so variant II coincides with variant I up to
renaming the set, and variant III has perfect recall (shuffle depth 0).

The lower-bound family is a sequence set over n binary infosets whose
smallest A-loss-recall span doubles with every extra infoset.

Random games are seeded and reproducible; information sets merge only
player nodes at the same depth with the same arity, which rules out
absentmindedness by construction.  The A-loss-recall variant relabels
such a tree breadth first, each node taking depth and history from its parent.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    Action,
    ChanceNode,
    Game,
    GameError,
    GameStructure,
    InformationSet,
    Leaf,
    MAX,
    MIN,
    Node,
    NodeId,
    PlayerNode,
    SizeLimitError,
    one_set_divergence,
)
from .seqsets import Sequence, SequenceSet


@dataclass(frozen=True)
class FamilyParams:
    family: str  # pennies-I | pennies-II | pennies-III | lowerbound | random
    seed: int = 0
    depth: int = 4
    branching: int = 3
    players: int = 1
    merge_prob: float = 0.6


def _pennies_alice_sets(variant: str, n: int) -> list[tuple[str, list[int]]]:
    if variant == "I":
        return [("A", list(range(n)))]
    sets = []
    for i in range(0, n, 2):
        sets.append((f"A{i // 2}", [d for d in (i, i + 1) if d < n]))
    return sets


def gen_pennies(variant: str, n: int) -> Game:
    """The n-die matching-unmatching pennies game, one of variants I/II/III."""
    if variant not in ("I", "II", "III"):
        raise GameError(f"unknown pennies variant {variant!r}")
    if n < 1:
        raise GameError("n must be positive")

    alice_sets = _pennies_alice_sets(variant, n)
    alice_of_die = {d: iid for iid, dice in alice_sets for d in dice}
    if variant in ("I", "II"):
        bob_sets = ["B"]
    else:
        bob_sets = ["BH", "BT"]

    infosets = [
        InformationSet(iid, MAX, (f"H_{iid}", f"T_{iid}")) for iid, _ in alice_sets
    ] + [InformationSet(iid, MAX, (f"H_{iid}", f"T_{iid}")) for iid in bob_sets]

    nodes: dict[NodeId, Node] = {}
    chance: dict[NodeId, tuple[Fraction, ...]] = {}
    utility: dict[NodeId, Fraction] = {}
    counter = itertools.count()
    root = next(counter)
    die_kids = []
    for d in range(n):
        a_id = next(counter)
        die_kids.append(a_id)
        a_set = alice_of_die[d]
        a_kids = []
        for side in ("H", "T"):
            b_nid = next(counter)
            if variant == "III":
                b_set = "BH" if side == "H" else "BT"
            else:
                b_set = "B"
            b_kids = []
            for bob_side in ("H", "T"):
                leaf = next(counter)
                nodes[leaf] = Leaf()
                win = (side == bob_side) == (d % 2 == 0)
                utility[leaf] = Fraction(1 if win else 0)
                b_kids.append((f"{bob_side}_{b_set}", leaf))
            nodes[b_nid] = PlayerNode(infoset=b_set, children=tuple(b_kids))
            a_kids.append((f"{side}_{a_set}", b_nid))
        nodes[a_id] = PlayerNode(infoset=a_set, children=tuple(a_kids))
    nodes[root] = ChanceNode(tuple(die_kids))
    chance[root] = tuple(Fraction(1, n) for _ in range(n))

    structure = GameStructure(root=root, nodes=nodes, infosets=tuple(infosets))
    return Game(structure=structure, chance=chance, utility=utility)


def lowerbound_infosets(n: int) -> tuple[InformationSet, ...]:
    return tuple(
        InformationSet(f"L{i}", MAX, (f"a{i}", f"b{i}")) for i in range(1, n + 1)
    )


def gen_lowerbound(n: int) -> SequenceSet:
    """Singletons at every level plus all ordered cross-level pairs.

    Connected, and for n >= 2 no single infoset touches every sequence,
    so the minimal-span recursion must try them all; stripping any one
    level leaves the same family one size down, which forces the 2^n
    span growth.
    """
    if n < 1:
        raise GameError("n must be positive")
    infosets = lowerbound_infosets(n)
    seqs: set[Sequence] = set()
    for i in range(1, n + 1):
        seqs.add((f"a{i}",))
        seqs.add((f"b{i}",))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for x in ("a", "b"):
                for y in ("a", "b"):
                    seqs.add((f"{x}{i}", f"{y}{j}"))
    return SequenceSet(frozenset(seqs), infosets)


def gen_random(params: FamilyParams) -> Game:
    """Seeded random game; never absentminded.

    The tree mixes chance and player nodes down to a random depth.
    Player nodes are then grouped into information sets among same-depth,
    same-owner, same-arity nodes, so no set can contain a node and its
    ancestor.  Chance weights are random positive rationals summing to 1,
    payoffs small integers.
    """
    if params.depth > 8 or params.branching > 3:
        raise SizeLimitError("random-game parameter bounds exceeded (depth <= 8, branching <= 3)")
    if params.players not in (1, 2):
        raise GameError("players must be 1 or 2")
    if params.branching < 2:
        raise GameError("branching must be at least 2")
    rng = random.Random(params.seed)

    nodes: dict[NodeId, Node] = {}
    chance: dict[NodeId, tuple[Fraction, ...]] = {}
    utility: dict[NodeId, Fraction] = {}
    counter = itertools.count()
    player_nodes: list[tuple[NodeId, int, str, tuple[NodeId, ...]]] = []  # id, depth, owner, kids

    def build(depth: int) -> NodeId:
        nid = next(counter)
        stop = depth >= params.depth or (depth > 0 and rng.random() < 0.25)
        if stop:
            nodes[nid] = Leaf()
            utility[nid] = Fraction(rng.randint(-3, 6))
            return nid
        arity = rng.randint(2, params.branching)
        if rng.random() < 0.3:
            kids = tuple(build(depth + 1) for _ in range(arity))
            nodes[nid] = ChanceNode(kids)
            weights = [rng.randint(1, 5) for _ in range(arity)]
            total = sum(weights)
            chance[nid] = tuple(Fraction(w, total) for w in weights)
        else:
            owner = MAX if params.players == 1 else rng.choice((MAX, MIN))
            kids = tuple(build(depth + 1) for _ in range(arity))
            player_nodes.append((nid, depth, owner, kids))
        return nid

    try:
        root = build(0)
    finally:
        del build  # `build` refers to itself; dropping it frees it now

    # group same-depth same-arity same-owner nodes into information sets
    infosets: list[InformationSet] = []
    groups: dict[tuple[int, int, str], list[InformationSet]] = {}
    for nid, depth, owner, kids in player_nodes:
        existing = groups.setdefault((depth, len(kids), owner), [])
        if existing and rng.random() < params.merge_prob:
            info = rng.choice(existing)
        else:
            iid = f"I{len(infosets)}"
            info = InformationSet(iid, owner, tuple(f"x{iid}_{j}" for j in range(len(kids))))
            infosets.append(info)
            existing.append(info)
        nodes[nid] = PlayerNode(infoset=info.id, children=tuple(zip(info.actions, kids)))

    structure = GameStructure(root=root, nodes=nodes, infosets=tuple(infosets))
    return Game(structure=structure, chance=chance, utility=utility)


def gen_random_alr(params: FamilyParams) -> Game:
    """Seeded random game whose (single) player has A-loss recall.

    Same tree process as `gen_random`, relabelled in one breadth-first
    pass: each node inherits its depth and its relabelled history from
    its parent, and a player node only joins an existing information set
    of its depth and arity when `one_set_divergence` holds between its
    history and every member's.
    """
    if params.players != 1:
        raise GameError("the A-loss-recall generator is one-player only")
    base = gen_random(params)
    rng = random.Random(params.seed ^ 0x5EED)
    s = base.structure

    nodes = {nid: n for nid, n in s.nodes.items() if not isinstance(n, PlayerNode)}
    sets: list[tuple[InformationSet, int, list[tuple[Action, ...]]]] = []  # set, depth, histories
    infoset_of: dict[Action, str] = {}
    queue: deque[tuple[NodeId, int, tuple[Action, ...]]] = deque([(s.root, 0, ())])
    while queue:
        nid, depth, h = queue.popleft()
        node = s.nodes[nid]
        if isinstance(node, ChanceNode):
            queue.extend((c, depth + 1, h) for c in node.children)
        elif isinstance(node, PlayerNode):
            arity = len(node.children)
            candidates = [
                (info, hists)
                for info, d, hists in sets
                if d == depth
                and len(info.actions) == arity
                and all(one_set_divergence(h, g, infoset_of) for g in hists)
            ]
            if candidates and rng.random() < params.merge_prob:
                info, hists = rng.choice(candidates)
            else:
                iid = f"J{len(sets)}"
                info = InformationSet(iid, MAX, tuple(f"y{iid}_{j}" for j in range(arity)))
                hists = []
                sets.append((info, depth, hists))
                infoset_of.update(dict.fromkeys(info.actions, iid))
            hists.append(h)
            children = tuple(zip(info.actions, (c for _, c in node.children)))
            nodes[nid] = PlayerNode(infoset=info.id, children=children)
            queue.extend((c, depth + 1, h + (a,)) for a, c in children)

    structure = GameStructure(root=s.root, nodes=nodes, infosets=tuple(i for i, _, _ in sets))
    return Game(structure=structure, chance=base.chance, utility=base.utility)


def pennies_value(n: int) -> Fraction:
    """Best guaranteed score for any variant: win every even outcome (or
    every odd one, whichever is more frequent)."""
    return Fraction(max((n + 1) // 2, n // 2), n)
