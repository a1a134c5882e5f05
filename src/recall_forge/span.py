"""A-loss-recall spans: construction, minimality, and verification.

A span of a sequence set S is an A-loss-recall set S' whose monomials
generate every monomial of S by a coefficient-{0,1} sum that collapses
under the per-infoset sum-to-one constraints.  The minimal-span recursion
mirrors the shuffle detection: a covering infoset fixes the first level;
with no covering infoset, every information set is tried and the
smallest candidate wins (declaration order breaks ties).

The minimal-span and shuffle-depth searches start from the set's
monomials (`SequenceSet.monomials`), as the shuffle detection of
`shuffle.salr_witness` does.  Every step of these recursions
(components, the covering infoset, the present infosets, the branch
step, dropping epsilon) reads only which actions a sequence holds, and
the span's sequences are built as `(a,) + t` from the infosets fixed on
the way down.  So a subproblem's answer depends only on its set of
monomials, and sequences that differ only in action order are one
subproblem.  Both searches run the one memoized recursion
`_memo_search` and differ only in how they join components and answer a
connected set.  Where they try every present infoset, they skip those
that `Monomials.candidates` finds to be an earlier one renamed, which
gives the same size or depth and so only ties; this keeps families of
interchangeable infosets, such as pennies-III, polynomial.
`realize_sequence_set` reads the first action of each sequence, so order
matters to it: it recurses on tuples through the one first-action split
of `seqsets`, and builds no `SequenceSet` per recursion node.

The verifier is independent of the construction and reads action order
too: it checks that the candidate has A-loss recall, builds the
candidate's prefix tree once, and for each original sequence s walks
that tree for a set of candidates that divide by s into a strongly
branching set (the subset `seqsets.find_strongly_branching_subset`
picks from those quotients).  The walk follows s's actions where they
lead and branches on full information sets elsewhere; its memo on
(node, actions of s still to pass) serves every s, and no quotient is
built.  It returns a certificate or raises for the first failure.
Certificates store those subsets, so payoff transfer can replay them
without re-deriving anything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, TypeVar

from .model import (
    Action,
    ChanceNode,
    GameError,
    GameStructure,
    InformationSet,
    Leaf,
    Node,
    PlayerNode,
    SizeLimitError,
    size_limit,
)
from .seqsets import (
    EPSILON,
    Sequence,
    SequenceSet,
    _lead,
    is_alr_set,
)


@dataclass(frozen=True)
class SpanCertificate:
    original: SequenceSet
    span: SequenceSet
    combinations: dict[Sequence, frozenset[Sequence]]


class NotAlrCandidateError(GameError):
    """Raised when a span candidate is not an A-loss-recall set."""


class UnspannedSequenceError(GameError):
    """Raised by `verify_span` for the first original sequence that the
    candidate cannot generate."""

    def __init__(self, sequence: Sequence) -> None:
        super().__init__(f"no generator set for {' '.join(sequence)!r}")
        self.sequence = sequence


@dataclass
class SpanStats:
    """Memo-table bookkeeping for the minimal-span recursion."""

    subproblems: int = 0
    lookups: int = 0


def canonical_full_span(infosets: Iterable[InformationSet]) -> SequenceSet:
    """All action tuples with one action per infoset, in declaration order.

    This is the always-available span: one player level per information
    set.  Its size is the product of the action counts.
    """
    infosets = tuple(infosets)
    if not infosets:
        raise GameError("need at least one information set")
    seqs = {tuple(combo) for combo in itertools.product(*(i.actions for i in infosets))}
    return SequenceSet(frozenset(seqs), infosets)


_EPSILON_ONLY = frozenset({0})  # the monomial of the empty sequence
MAX_SUBPROBLEMS_ENV = "RECALL_FORGE_MAX_SUBPROBLEMS"  # memo entries per search; 2**17 if unset

T = TypeVar("T")


def _memo_search(
    ss: SequenceSet,
    base: tuple[T, T],
    join: Callable[..., T],
    connected: Callable[[frozenset[int], Callable[[frozenset[int]], T]], T],
    stats: Optional[SpanStats] = None,
) -> T:
    """The memoized recursion of the span search and the shuffle depth,
    on the set's monomials.  Epsilon is dropped from any larger set; the
    empty set and {eps} answer `base[0]` and `base[1]`; components answer
    `join(*answers)`; a connected set answers `connected(ms, rec)`, where
    `rec` answers its branches.  `stats` counts subproblems and memo hits.
    """
    kernel = ss.universe
    memo: dict[frozenset[int], T] = {}
    limit = size_limit(MAX_SUBPROBLEMS_ENV, 2**17)

    def rec(ms: frozenset[int]) -> T:
        if 0 in ms and len(ms) > 1:
            ms = ms - _EPSILON_ONLY
        if ms <= _EPSILON_ONLY:
            return base[len(ms)]
        got = memo.get(ms)
        if got is not None:
            if stats:
                stats.lookups += 1
            return got
        if stats:
            stats.subproblems += 1
        if len(memo) > limit:
            raise SizeLimitError(f"the search passed {limit} subproblems ({MAX_SUBPROBLEMS_ENV})")
        comps = kernel.components(ms)
        memo[ms] = got = join(*map(rec, comps)) if len(comps) > 1 else connected(ms, rec)
        return got

    try:
        return rec(frozenset(ss.monomials.values()))
    finally:
        del rec  # `rec` refers to itself; dropping it frees it and the memo now


def _minimal_span_set(ss: SequenceSet, stats: Optional[SpanStats] = None) -> frozenset[Sequence]:
    """Smallest A-loss-recall span of the set, as a set of sequences.

    Runs on monomials (see the module docstring).  The candidates for the
    actions of one infoset start with distinct actions, so a candidate's
    size is the sum of its branch spans' sizes; only the winner's
    sequences are built.  Without a covering infoset, the infosets that
    `Monomials.candidates` skips are not tried: each could only tie.
    """
    kernel = ss.universe

    def connected(ms, rec):
        cover = kernel.covering(ms)
        tried = kernel.candidates(ms) if cover is None else [(cover, kernel.branches(ms, cover))]
        best: list[tuple[Action, frozenset[Sequence]]] = []
        best_size = -1
        for k, branches in tried:
            spans, size = [], 0  # a loop, not a comprehension: no extra stack frame per level
            for a, q in zip(ss.infosets[k].actions, branches):
                spans.append((a, span := rec(q)))
                size += len(span)
            if best_size < 0 or size < best_size:  # the first smallest wins ties
                best, best_size = spans, size
        return frozenset((a,) + t for a, span in best for t in span)

    base = (frozenset(), frozenset({EPSILON}))  # the spans of {} and {eps}
    return _memo_search(ss, base, frozenset().union, connected, stats)


def minimal_span(ss: SequenceSet, stats: Optional[SpanStats] = None) -> SpanCertificate:
    """Smallest A-loss-recall span, with a verified generation certificate."""
    return verify_span(ss, ss.with_sequences(_minimal_span_set(ss, stats)))


def shuffle_depth(ss: SequenceSet) -> int:
    """How many levels of first-infoset fixing are needed before every
    remaining subproblem has shuffled A-loss recall.

    Zero exactly when the set itself has shuffled A-loss recall; the
    disconnected case takes the maximum over components.  A connected set
    has depth 0 exactly when it has a covering infoset and every branch of
    that infoset has depth 0: this is the shuffled-A-loss-recall recursion
    of `salr_witness`, whose verdict does not depend on which covering
    infoset is fixed.  Those branch depths are also candidates of the
    `1 + min(max ...)` step, so the memo computes them once; that step
    skips the infosets the span search skips, since renaming keeps a
    depth.  Runs on monomials, like the span search.
    """
    kernel = ss.universe

    def connected(ms, rec):
        cover = kernel.covering(ms)
        if cover is not None:
            for q in kernel.branches(ms, cover):  # a call from C costs two levels of depth
                if rec(q):
                    break
            else:
                return 0
        return 1 + min(max(map(rec, branches)) for _, branches in kernel.candidates(ms))

    return _memo_search(ss, (0, 0), max, connected)


def verify_span(original: SequenceSet, candidate: SequenceSet) -> SpanCertificate:
    """Check that the candidate generates every original monomial.

    For each original sequence s, a set of candidate sequences holding
    all of s's actions whose quotients by s are strongly branching
    certifies that those candidates sum to the monomial of s; the prefix
    walk of `_generator_sets` finds it.  Returns the certificate.  A
    candidate without A-loss recall raises `NotAlrCandidateError`, and
    one that cannot generate some original monomial raises
    `UnspannedSequenceError`, naming the first such sequence in
    `sorted_sequences` order.
    """
    if not is_alr_set(candidate):
        raise NotAlrCandidateError("candidate is not an A-loss-recall set")
    combos, missing = _generator_sets(original, candidate)
    if missing is not None:
        raise UnspannedSequenceError(missing)
    return SpanCertificate(original=original, span=candidate, combinations=combos)


def _generator_sets(
    original: SequenceSet, candidate: SequenceSet
) -> tuple[dict[Sequence, frozenset[Sequence]], Optional[Sequence]]:
    """The generator set of each original sequence in `sorted_sequences`
    order, up to the first that has none; that sequence, or None.

    The caller has checked that the candidate has A-loss recall.  Walks
    the candidate's prefix tree, with candidates numbered in
    `sorted_sequences` order, once per original sequence s, carrying the
    mask of s's actions not yet passed.  Where one of those actions
    leads out of a node, the walk takes that child only: lead groups of
    an A-loss-recall set touch disjoint information sets, so no other
    branch holds the action.  Elsewhere the node's fully branching lead
    infosets are tried in declaration order, and the first whose every
    action's child answers wins; with the mask empty, a node where a
    candidate ends answers that candidate.  Answers are bitsets of
    candidate numbers, with one memo on (node, mask) for the whole call.
    An action the candidate's universe lacks leaves s without a
    generator set.
    """
    kernel = candidate.universe
    bit = kernel.action_bit
    ordered = candidate.sorted_sequences()
    ends = [-1]  # per node: the number of the candidate ending there, or -1
    kids: list[dict[int, int]] = [{}]  # per node: action bit -> child node
    for i, c in enumerate(ordered):
        v = 0
        for b in map(bit.__getitem__, c):
            child = kids[v].get(b)
            if child is None:
                child = kids[v][b] = len(ends)
                ends.append(-1)
                kids.append({})
            v = child
        ends[v] = i
    leads: list[int] = []  # per node: the OR of its children's action bits
    groups: list[list[tuple[int, ...]]] = []  # per node: its full lead groups
    for children in kids:
        leads.append(sum(children))
        by_infoset: dict[int, list[int]] = {}
        for b, child in children.items():  # built in sorted order: declaration order
            by_infoset.setdefault(kernel.infoset_mask(b), []).append(child)
        groups.append([
            tuple(g)
            for low, g in by_infoset.items()
            if len(g) == len(candidate.infosets[kernel.position[low]].actions)
        ])
    memo: dict[tuple[int, int], int] = {}

    def walk(v: int, m: int) -> int:
        got = memo.get((v, m))
        if got is None:
            hit = leads[v] & m
            if not m and ends[v] >= 0:
                got = 1 << ends[v]
            elif hit:
                low = hit & -hit
                got = walk(kids[v][low], m ^ low)
            else:
                got = 0
                for group in groups[v]:
                    picked = 0
                    for child in group:
                        sub = walk(child, m)
                        if not sub:
                            break
                        picked |= sub
                    else:
                        got = picked
                        break
            memo[(v, m)] = got
        return got

    combos: dict[Sequence, frozenset[Sequence]] = {}
    missing: Optional[Sequence] = None
    try:
        for s in original.sorted_sequences():
            found = walk(0, sum(map(bit.__getitem__, s))) if all(map(bit.__contains__, s)) else 0
            if not found:
                missing = s
                break
            picked = []
            while found:
                low = found & -found
                picked.append(ordered[low.bit_length() - 1])
                found ^= low
            combos[s] = frozenset(picked)
    finally:
        del walk  # `walk` refers to itself; dropping it frees it and the memo now
    return combos, missing


def realize_sequence_set(ss: SequenceSet) -> GameStructure:
    """Build a game tree whose leaf histories are exactly the given set.

    Works for any sibling-complete set (whenever one action of an
    information set continues a prefix, all of them do).  Prefixes with
    several continuing infosets, or a sequence ending where others
    continue, become chance splits.
    """
    if not ss.sequences:
        raise GameError("cannot realize an empty sequence set")
    nodes: dict[int, Node] = {}
    counter = itertools.count()
    universe = ss.universe

    def build(ends_here: bool, groups: dict[int, dict[Action, frozenset[Sequence]]]) -> int:
        """Number the node of a set split by `_lead`, then its subtree."""
        nid = next(counter)
        if not groups:
            nodes[nid] = Leaf()
        elif len(groups) == 1 and not ends_here:
            ((low, conts),) = groups.items()
            info = ss.infosets[universe.position[low]]
            if len(conts) != len(info.actions):
                missing = sorted(set(info.actions) - set(conts))
                raise GameError(
                    f"set is not realizable: information set {info.id!r} is entered "
                    f"but actions {missing} never continue"
                )
            kids = []
            for a in info.actions:
                kids.append((a, build(EPSILON in conts[a], _lead(conts[a], universe))))
            nodes[nid] = PlayerNode(infoset=info.id, children=tuple(kids))
        else:
            kids_ids: list[int] = []
            if ends_here:
                kids_ids.append(next(counter))
                nodes[kids_ids[-1]] = Leaf()
            for low in sorted(groups):  # declaration order
                kids_ids.append(build(False, {low: groups[low]}))
            nodes[nid] = ChanceNode(children=tuple(kids_ids))
        return nid

    try:
        root = build(EPSILON in ss.sequences, _lead(ss.sequences, universe))
    finally:
        del build  # `build` refers to itself; dropping it frees it now
    return GameStructure(root=root, nodes=nodes, infosets=tuple(ss.present_infosets()))


def structure_from_sequences(ss: SequenceSet) -> GameStructure:
    """Realize an A-loss-recall set as a game tree.

    Connected sets become a player node on the leading infoset; components
    of a disconnected set hang under a chance node (an epsilon component
    is a bare leaf).  The result classifies as A-loss recall.
    """
    if not is_alr_set(ss):
        raise GameError("input set does not have A-loss recall")
    return realize_sequence_set(ss)
