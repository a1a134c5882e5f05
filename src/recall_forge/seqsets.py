"""Sets of action sequences and the A-loss-recall calculus on them.

A sequence is a word of action labels with at most one action per
information set (histories of non-absentminded players have this shape).
Everything here is pure and order-deterministic: infosets keep their
declaration order, and sequences are iterated in a fixed total order
derived from that declaration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .model import (
    Action,
    GameError,
    GameStructure,
    InformationSet,
    Leaf,
    RecallClass,
    classify_recall,
    history,
)

Sequence = tuple[Action, ...]
EPSILON: Sequence = ()


@dataclass(frozen=True)
class SequenceSet:
    """A deduplicated set of sequences over a fixed infoset universe."""

    sequences: frozenset[Sequence]
    infosets: tuple[InformationSet, ...]

    def __post_init__(self) -> None:
        known = self.alphabet
        for s in self.sequences:
            seen: set[str] = set()
            for a in s:
                info = known.get(a)
                if info is None:
                    raise GameError(f"sequence uses unknown action {a!r}")
                if info in seen:
                    raise GameError(
                        f"sequence {' '.join(s)!r} repeats information set {info!r}"
                    )
                seen.add(info)

    @cached_property
    def alphabet(self) -> dict[Action, str]:
        out: dict[Action, str] = {}
        for i in self.infosets:
            for a in i.actions:
                out[a] = i.id
        return out

    @cached_property
    def _sort_key(self) -> dict[Action, tuple[int, int]]:
        return {
            a: (i, j)
            for i, info in enumerate(self.infosets)
            for j, a in enumerate(info.actions)
        }

    def seq_key(self, s: Sequence) -> tuple[tuple[int, int], ...]:
        return tuple(self._sort_key[a] for a in s)

    def sorted_sequences(self) -> list[Sequence]:
        return sorted(self.sequences, key=self.seq_key)

    def with_sequences(self, sequences: Iterable[Sequence]) -> SequenceSet:
        return SequenceSet(frozenset(sequences), self.infosets)

    def infoset_of(self, action: Action) -> str:
        return self.alphabet[action]

    def present_infosets(self) -> list[InformationSet]:
        """Infosets with at least one action occurring in some sequence."""
        used = {a for s in self.sequences for a in s}
        return [i for i in self.infosets if any(a in used for a in i.actions)]

    def __len__(self) -> int:
        return len(self.sequences)

    def __contains__(self, s: Sequence) -> bool:
        return s in self.sequences


def extract_histories(structure: GameStructure, player: Optional[str] = None) -> SequenceSet:
    """The deduplicated set of leaf histories, optionally one player's.

    Rejects absentminded inputs: a repeated information set on a path
    would break the one-action-per-infoset invariant.
    """
    checked = structure.players() if player is None else (player,)
    for p in checked:
        if classify_recall(structure, p) is RecallClass.ABSENTMINDED:
            raise GameError(f"player {p!r} is absentminded")
    seqs = {
        history(structure, leaf, player)
        for leaf in structure.preorder()
        if isinstance(structure.nodes[leaf], Leaf)
    }
    if player is None:
        infosets = structure.infosets
    else:
        infosets = tuple(i for i in structure.infosets if i.owner == player)
    return SequenceSet(frozenset(seqs), infosets)


def _components(ss: SequenceSet) -> list[frozenset[Sequence]]:
    """Connected components; the empty sequence is always its own component."""
    seqs = ss.sorted_sequences()
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: str, y: str) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for s in seqs:
        for a in s:
            parent.setdefault(ss.infoset_of(a), ss.infoset_of(a))
        for a, b in zip(s, s[1:]):
            union(ss.infoset_of(a), ss.infoset_of(b))

    buckets: dict[Optional[str], list[Sequence]] = {}
    order: list[Optional[str]] = []
    for s in seqs:
        root = find(ss.infoset_of(s[0])) if s else None
        if root not in buckets:
            buckets[root] = []
            order.append(root)
        buckets[root].append(s)
    if None in buckets and len(order) > 1:
        # keep epsilon first for a stable layout
        order.remove(None)
        order.insert(0, None)
    return [frozenset(buckets[k]) for k in order]


def components(ss: SequenceSet) -> list[SequenceSet]:
    """Partition into maximal connected components of the connection graph."""
    return [ss.with_sequences(c) for c in _components(ss)]


def branches(
    seqs: frozenset[Sequence], info: InformationSet
) -> list[tuple[Action, frozenset[Sequence]]]:
    """The branch step of the set recursions: fix `info`.

    For each action a of `info`, in declaration order: the sequences that
    contain a, with a removed, plus the residual, the sequences sharing no
    action with `info` (empty when `info` covers the set).
    """
    acts = set(info.actions)
    residual = frozenset(s for s in seqs if acts.isdisjoint(s))
    return [
        (a, residual.union(tuple(x for x in s if x != a) for s in seqs if a in s))
        for a in info.actions
    ]


def covering_infoset(ss: SequenceSet) -> Optional[InformationSet]:
    """First infoset (declaration order) touching every sequence, if any."""
    for info in ss.infosets:
        acts = set(info.actions)
        if ss.sequences and all(acts & set(s) for s in ss.sequences):
            return info
    return None


def leading_infoset(ss: SequenceSet) -> Optional[InformationSet]:
    """The infoset whose actions start every sequence, if there is one."""
    firsts = {s[0] for s in ss.sequences if s}
    if not firsts or any(not s for s in ss.sequences):
        return None
    ids = {ss.infoset_of(a) for a in firsts}
    if len(ids) != 1:
        return None
    lead_id = ids.pop()
    return next(i for i in ss.infosets if i.id == lead_id)


def _continuations(seqs: frozenset[Sequence], action: Action) -> frozenset[Sequence]:
    return frozenset(s[1:] for s in seqs if s and s[0] == action)


def is_alr_set(ss: SequenceSet) -> bool:
    """Recursive A-loss-recall test on a sequence set.

    Base cases: the empty set and {eps} qualify.  A disconnected set
    qualifies componentwise.  A connected set needs a common leading
    infoset whose per-action continuations all qualify.
    """
    memo: dict[frozenset[Sequence], bool] = {}

    def rec(seqs: frozenset[Sequence]) -> bool:
        if not seqs or seqs == frozenset({EPSILON}):
            return True
        got = memo.get(seqs)
        if got is not None:
            return got
        sub = ss.with_sequences(seqs)
        comps = _components(sub)
        if len(comps) > 1:
            ans = all(rec(c) for c in comps)
        else:
            lead = leading_infoset(sub)
            if lead is None:
                ans = False
            else:
                ans = all(rec(_continuations(seqs, a)) for a in lead.actions)
        memo[seqs] = ans
        return ans

    return rec(ss.sequences)


def is_strongly_branching(ss: SequenceSet) -> bool:
    """True iff the set is {eps} or splits as a full one-infoset branch
    with strongly branching continuations.

    Equivalently (for A-loss-recall sets): the sum of the set's monomials
    collapses to the constant 1 under the per-infoset sum-to-one
    constraints.
    """

    def rec(seqs: frozenset[Sequence]) -> bool:
        if seqs == frozenset({EPSILON}):
            return True
        if not seqs or EPSILON in seqs:
            return False
        lead = leading_infoset(ss.with_sequences(seqs))
        if lead is None:
            return False
        for a in lead.actions:
            cont = _continuations(seqs, a)
            if not cont or not rec(cont):
                return False
        return True

    return rec(ss.sequences)


def find_strongly_branching_subset(ss: SequenceSet) -> Optional[SequenceSet]:
    """A strongly branching subset of the set, or None.

    Deterministic: an epsilon member is preferred, then infosets are
    tried in declaration order and the first full branch wins.
    """

    memo: dict[frozenset[Sequence], Optional[frozenset[Sequence]]] = {}

    def rec(seqs: frozenset[Sequence]) -> Optional[frozenset[Sequence]]:
        if EPSILON in seqs:
            return frozenset({EPSILON})
        if not seqs:
            return None
        if seqs in memo:
            return memo[seqs]
        firsts = {s[0] for s in seqs}
        first_ids = {ss.infoset_of(a) for a in firsts}
        found: Optional[frozenset[Sequence]] = None
        for info in ss.infosets:
            if info.id not in first_ids:
                continue
            picked: list[Sequence] = []
            ok = True
            for a in info.actions:
                cont = _continuations(seqs, a)
                sub = rec(cont)
                if sub is None:
                    ok = False
                    break
                picked.extend((a,) + t for t in sub)
            if ok:
                found = frozenset(picked)
                break
        memo[seqs] = found
        return found

    got = rec(ss.sequences)
    if got is None:
        return None
    return ss.with_sequences(got)
