"""Shared fixtures: small hand-built games exercising each recall class.

The demo games mirror the package's running examples: a perfect-recall
tree, an absentminded tree, a structure that is fixable by reordering
actions (shuffle_demo), one that needs a genuine span (span_demo), and a
two-player game whose Min side is the shuffle_demo pattern.  The tuple
branch step and the `sequence_sets` strategy are references and inputs
that several test modules share.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import strategies as st

from recall_forge.model import (
    MAX,
    MIN,
    Action,
    ChanceNode,
    Game,
    GameStructure,
    InformationSet,
    Leaf,
    PlayerNode,
)
from recall_forge.seqsets import SequenceSet
from recall_forge.oracles import MinimalityOracle


class TreeBuilder:
    """Tiny helper to assemble node tables without id bookkeeping."""

    def __init__(self) -> None:
        self.nodes = {}
        self.chance = {}
        self.utility = {}
        self._next = 0

    def _fresh(self) -> int:
        self._next += 1
        return self._next - 1

    def leaf(self, payoff=0) -> int:
        nid = self._fresh()
        self.nodes[nid] = Leaf()
        self.utility[nid] = Fraction(payoff)
        return nid

    def player(self, infoset: str, children) -> int:
        nid = self._fresh()
        self.nodes[nid] = PlayerNode(infoset, tuple(children))
        return nid

    def chance_node(self, weighted_children) -> int:
        nid = self._fresh()
        self.nodes[nid] = ChanceNode(tuple(c for _, c in weighted_children))
        self.chance[nid] = tuple(Fraction(p) for p, _ in weighted_children)
        return nid

    def game(self, root: int, infosets) -> Game:
        structure = GameStructure(root=root, nodes=self.nodes, infosets=tuple(infosets))
        return Game(structure=structure, chance=self.chance, utility=self.utility)


def parent_edges(structure: GameStructure) -> dict[int, tuple[int, Optional[str]]]:
    """Child id -> (parent id, action label or None for a chance edge), the
    table the reference walks climb to the root, apart from `histories`."""
    out = {}
    for nid, node in structure.nodes.items():
        if isinstance(node, ChanceNode):
            for c in node.children:
                out[c] = (nid, None)
        elif isinstance(node, PlayerNode):
            for a, c in node.children:
                out[c] = (nid, a)
    return out


def player_chain(depth: int) -> Game:
    """One player, one information set per level: `a{k}` goes a level
    deeper and `b{k}` exits to a leaf paying k; the chain's end pays
    `depth`."""
    nodes = {}
    infosets = []
    utility = {}
    for k in range(depth):
        infosets.append(InformationSet(f"I{k}", MAX, (f"a{k}", f"b{k}")))
        nodes[depth + k] = Leaf()
        utility[depth + k] = Fraction(k)
        on = k + 1 if k < depth - 1 else 2 * depth
        nodes[k] = PlayerNode(f"I{k}", ((f"a{k}", on), (f"b{k}", depth + k)))
    nodes[2 * depth] = Leaf()
    utility[2 * depth] = Fraction(depth)
    structure = GameStructure(root=0, nodes=nodes, infosets=tuple(infosets))
    return Game(structure=structure, chance={}, utility=utility)


def seqs(*words: str) -> frozenset[tuple[str, ...]]:
    """'a c|abar d' style shorthand: words are space-separated actions."""
    return frozenset(tuple(w.split()) if w else () for w in words)


def tuple_branches(
    seqs_: frozenset[tuple[str, ...]], info: InformationSet
) -> list[tuple[Action, frozenset[tuple[str, ...]]]]:
    """The branch step on tuples of actions, the reference the tuple
    oracles use: for each action a of `info`, in declaration order, the
    sequences that contain a, with a removed, plus the residual, the
    sequences sharing no action with `info`."""
    out = []
    for a in info.actions:
        quotient = {tuple(x for x in s if x != a) for s in seqs_ if a in s}
        residual = {s for s in seqs_ if not set(info.actions) & set(s)}
        out.append((a, frozenset(quotient | residual)))
    return out


def components_oracle(ss: SequenceSet) -> list[frozenset[tuple[str, ...]]]:
    """Connected components on tuples of actions, the reference the tuple
    oracles use: sort the sequences, join the infosets of adjacent
    actions, and bucket the sequences by the root of their first infoset
    in first-seen order; epsilon forms its own bucket, moved to the front."""
    key = {a: (i, j) for i, info in enumerate(ss.infosets) for j, a in enumerate(info.actions)}
    owner = {a: info.id for info in ss.infosets for a in info.actions}
    ordered = sorted(ss.sequences, key=lambda s: [key[a] for a in s])
    parent = {owner[a]: owner[a] for s in ordered for a in s}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for s in ordered:
        for a, b in zip(s, s[1:]):
            parent[find(owner[b])] = find(owner[a])
    buckets: dict = {}
    for s in ordered:
        buckets.setdefault(find(owner[s[0]]) if s else None, []).append(s)
    if None in buckets:
        buckets = {None: buckets.pop(None), **buckets}
    return [frozenset(b) for b in buckets.values()]


# five infosets, so short sequences often fall into several components
FIVE = tuple(InformationSet(f"J{k}", MAX, (f"x{k}", f"y{k}", f"z{k}")) for k in range(5))


@st.composite
def sequence_sets(draw) -> SequenceSet:
    """Up to 8 sequences over FIVE, each up to 3 actions from distinct
    infosets in any order; the empty sequence is drawn too."""
    out = set()
    for _ in range(draw(st.integers(0, 8))):
        order = draw(st.permutations(range(len(FIVE))))
        length = draw(st.integers(0, 3))
        out.add(tuple(draw(st.sampled_from(FIVE[k].actions)) for k in order[:length]))
    return SequenceSet(frozenset(out), FIVE)


@pytest.fixture(scope="session")
def minimality_oracle() -> MinimalityOracle:
    """One oracle for the whole run, so each universe's enumeration is
    built once (about 178,000 candidate sets over THREE_BINARY)."""
    return MinimalityOracle()


@pytest.fixture
def perfect_recall_demo() -> Game:
    """Player root {a,b}; chance; then {c,d} after a and {e,f} after b."""
    b = TreeBuilder()
    u3 = b.player("I2", [("c", b.leaf(1)), ("d", b.leaf(0))])
    u4 = b.player("I2", [("c", b.leaf(0)), ("d", b.leaf(1))])
    u5 = b.player("I3", [("e", b.leaf(0)), ("f", b.leaf(1))])
    u6 = b.player("I3", [("e", b.leaf(1)), ("f", b.leaf(0))])
    c1 = b.chance_node([(Fraction(1, 2), u3), (Fraction(1, 2), u4)])
    c2 = b.chance_node([(Fraction(1, 2), u5), (Fraction(1, 2), u6)])
    root = b.player("I1", [("a", c1), ("b", c2)])
    return b.game(
        root,
        [
            InformationSet("I1", MAX, ("a", "b")),
            InformationSet("I2", MAX, ("c", "d")),
            InformationSet("I3", MAX, ("e", "f")),
        ],
    )


@pytest.fixture
def absentminded_demo() -> Game:
    """Root and its first child share one information set."""
    b = TreeBuilder()
    inner = b.player("I1", [("a", b.leaf(1)), ("b", b.leaf(0))])
    root = b.player("I1", [("a", inner), ("b", b.leaf(0))])
    return b.game(root, [InformationSet("I1", MAX, ("a", "b"))])


def build_shuffle_demo(z=None, p1=Fraction(1, 2), p2=Fraction(1, 2)) -> Game:
    """Chance into {b,bbar} or {c,cbar}, then a shared {a,abar} set.

    Not A-loss recall (four histories meet at I3), but reordering each
    history to put the I3 action first repairs it.
    """
    z = z or [0] * 8
    b = TreeBuilder()
    u3 = b.player("I3", [("a", b.leaf(z[0])), ("abar", b.leaf(z[1]))])
    u4 = b.player("I3", [("a", b.leaf(z[2])), ("abar", b.leaf(z[3]))])
    u5 = b.player("I3", [("a", b.leaf(z[4])), ("abar", b.leaf(z[5]))])
    u6 = b.player("I3", [("a", b.leaf(z[6])), ("abar", b.leaf(z[7]))])
    u1 = b.player("I1", [("b", u3), ("bbar", u4)])
    u2 = b.player("I2", [("c", u5), ("cbar", u6)])
    root = b.chance_node([(p1, u1), (p2, u2)])
    return b.game(
        root,
        [
            InformationSet("I1", MAX, ("b", "bbar")),
            InformationSet("I2", MAX, ("c", "cbar")),
            InformationSet("I3", MAX, ("a", "abar")),
        ],
    )


@pytest.fixture
def shuffle_demo() -> Game:
    return build_shuffle_demo()


def build_span_demo(z=None, p1=Fraction(1, 2), p2=Fraction(1, 2)) -> Game:
    """Chance into {a,abar} or {b,bbar}; a/b lead to {c,cbar}, the bars
    to {d,dbar}.  No reordering repairs this one."""
    z = z or [0] * 8
    b = TreeBuilder()
    u3 = b.player("I3", [("c", b.leaf(z[0])), ("cbar", b.leaf(z[1]))])
    u4 = b.player("I4", [("d", b.leaf(z[2])), ("dbar", b.leaf(z[3]))])
    u5 = b.player("I3", [("c", b.leaf(z[4])), ("cbar", b.leaf(z[5]))])
    u6 = b.player("I4", [("d", b.leaf(z[6])), ("dbar", b.leaf(z[7]))])
    u1 = b.player("I1", [("a", u3), ("abar", u4)])
    u2 = b.player("I2", [("b", u5), ("bbar", u6)])
    root = b.chance_node([(p1, u1), (p2, u2)])
    return b.game(
        root,
        [
            InformationSet("I1", MAX, ("a", "abar")),
            InformationSet("I2", MAX, ("b", "bbar")),
            InformationSet("I3", MAX, ("c", "cbar")),
            InformationSet("I4", MAX, ("d", "dbar")),
        ],
    )


@pytest.fixture
def span_demo() -> Game:
    return build_span_demo()


SPAN_DEMO_SET = seqs(
    "a c", "a cbar", "abar d", "abar dbar", "b c", "b cbar", "bbar d", "bbar dbar"
)

SHUFFLE_DEMO_SET = seqs(
    "b a", "b abar", "bbar a", "bbar abar", "c a", "c abar", "cbar a", "cbar abar"
)

SHUFFLE_DEMO_WITNESS = seqs(
    "a b", "a bbar", "a c", "a cbar", "abar b", "abar bbar", "abar c", "abar cbar"
)


def wide_span_set(infosets) -> SequenceSet:
    """The 16-sequence layered span of the span_demo set: both {c,cbar}
    and {d,dbar} first, then one of the four chance-side actions."""
    out = set()
    for g in ("c", "cbar"):
        for d in ("d", "dbar"):
            for al in ("a", "abar", "b", "bbar"):
                out.add((g, d, al))
    return SequenceSet(frozenset(out), tuple(infosets))


def build_two_player_demo(z) -> Game:
    """Max picks d/dbar; Min sees the pick ({b,bbar} vs {c,cbar}) but
    forgets it at the final {a,abar} set."""
    b = TreeBuilder()
    u3 = b.player("I3", [("a", b.leaf(z[0])), ("abar", b.leaf(z[1]))])
    u4 = b.player("I3", [("a", b.leaf(z[2])), ("abar", b.leaf(z[3]))])
    u5 = b.player("I3", [("a", b.leaf(z[4])), ("abar", b.leaf(z[5]))])
    u6 = b.player("I3", [("a", b.leaf(z[6])), ("abar", b.leaf(z[7]))])
    u1 = b.player("I1", [("b", u3), ("bbar", u4)])
    u2 = b.player("I2", [("c", u5), ("cbar", u6)])
    root = b.player("D", [("d", u1), ("dbar", u2)])
    return b.game(
        root,
        [
            InformationSet("D", MAX, ("d", "dbar")),
            InformationSet("I1", MIN, ("b", "bbar")),
            InformationSet("I2", MIN, ("c", "cbar")),
            InformationSet("I3", MIN, ("a", "abar")),
        ],
    )


THREE_BINARY = (
    InformationSet("I1", MAX, ("a", "b")),
    InformationSet("I2", MAX, ("c", "d")),
    InformationSet("I3", MAX, ("e", "f")),
)


def random_realizable_set(rng: random.Random, infosets=THREE_BINARY, max_size: int = 8):
    """History set of a random tree over the given infosets.

    Built as an actual (implicit) tree: player nodes consume an infoset
    and branch on both actions; chance nodes union their children's sets;
    leaves contribute the empty continuation.  Realizable by construction.
    """

    def grow(avail: tuple, depth: int) -> frozenset:
        if not avail or depth > 3 or rng.random() < 0.25:
            return frozenset({()})
        if rng.random() < 0.35:
            k = rng.randint(2, 3)
            out = set()
            for _ in range(k):
                out |= grow(avail, depth + 1)
            return frozenset(out)
        info = rng.choice(avail)
        rest = tuple(i for i in avail if i.id != info.id)
        out = set()
        for a in info.actions:
            out |= {(a,) + t for t in grow(rest, depth + 1)}
        return frozenset(out)

    for _ in range(200):
        got = grow(infosets, 0)
        if got != frozenset({()}) and len(got) <= max_size:
            return SequenceSet(got, infosets)
    raise AssertionError("could not draw a nontrivial set")


def strategy_point(game: Game, strategy) -> dict[str, Fraction]:
    """The 0/1 polytope point a pure strategy corresponds to."""
    point = {}
    for info in game.structure.infosets:
        for a in info.actions:
            point[a] = Fraction(1 if strategy.choice[info.id] == a else 0)
    return point
