"""A-loss-recall spans: construction, minimality, and verification.

A span of a sequence set S is an A-loss-recall set S' whose monomials
generate every monomial of S by a coefficient-{0,1} sum that collapses
under the per-infoset sum-to-one constraints.  The minimal-span recursion
mirrors the shuffle detection: a covering infoset fixes the first level;
with no covering infoset, every information set is tried and the
smallest candidate wins (declaration order breaks ties).

The minimal-span and shuffle-depth searches run on monomials, the
integer codes of the set's universe (a `seqsets.Monomials`), as the
shuffle detection of `shuffle.salr_witness` does.  Every step of these
recursions (components, the covering infoset, the present infosets, the
branch step, dropping epsilon) reads only which actions a sequence holds,
and the span's sequences are built as `(a,) + t` from the infosets fixed
on the way down.  So a subproblem's answer depends only on its set of
monomials, and sequences that differ only in action order are one
subproblem.  The verifier, the A-loss-recall test and
`realize_sequence_set` read the first action of each sequence, so order
matters to them: they recurse on tuples through the one first-action
split of `seqsets`, and build no `SequenceSet` per recursion node.

The verifier is independent of the construction: for each original
sequence s it finds the candidate's supersequences of s by a bit test on
the candidate's monomials, divides s out of them, and searches the
quotients for a strongly branching subset with the recursion of
`seqsets.find_strongly_branching_subset`, whose memo one verification
shares across every s.  Certificates store those subsets, so payoff
transfer can replay them without re-deriving anything.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

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
)
from .seqsets import (
    EPSILON,
    Sequence,
    SequenceSet,
    _branching_search,
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
    """Raised by a strict `verify_span` for the first original sequence
    that the candidate cannot generate."""

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


def _strip_epsilon(ms: frozenset[int]) -> frozenset[int]:
    if 0 in ms and len(ms) > 1:
        return ms - {0}
    return ms


def _minimal_span_set(ss: SequenceSet, stats: Optional[SpanStats] = None) -> frozenset[Sequence]:
    """Smallest A-loss-recall span of the set, as a set of sequences.

    Runs on monomials (see the module docstring).  The candidates for the
    actions of one infoset start with distinct actions, so a candidate's
    size is the sum of its branch spans' sizes; only the winner's
    sequences are built.
    """
    kernel = ss.universe
    memo: dict[frozenset[int], frozenset[Sequence]] = {}

    def rec(ms: frozenset[int]) -> frozenset[Sequence]:
        ms = _strip_epsilon(ms)
        if ms <= _EPSILON_ONLY:
            return frozenset({EPSILON}) if ms else frozenset()
        got = memo.get(ms)
        if got is not None:
            if stats:
                stats.lookups += 1
            return got
        if stats:
            stats.subproblems += 1
        comps = kernel.components(ms)
        if len(comps) > 1:
            result = frozenset().union(*map(rec, comps))
        else:
            masks = list(map(kernel.infoset_mask, ms))
            cover = kernel.covering(masks)
            best: list[tuple[Action, frozenset[Sequence]]] = []
            best_size = -1
            for k in [cover] if cover is not None else kernel.present(masks):
                spans = []  # a loop, not a comprehension: one stack frame per level
                for a, q in zip(ss.infosets[k].actions, kernel.branches(ms, k)):
                    spans.append((a, rec(q)))
                size = sum(len(t) for _, t in spans)
                if best_size < 0 or size < best_size:  # the first smallest wins ties
                    best, best_size = spans, size
            result = frozenset((a,) + t for a, span in best for t in span)
        memo[ms] = result
        return result

    result = rec(kernel.encode(ss.sequences))
    memo.clear()  # see seqsets.is_alr_set
    return result


def minimal_span(ss: SequenceSet, stats: Optional[SpanStats] = None) -> SpanCertificate:
    """Smallest A-loss-recall span, with a verified generation certificate."""
    span_seqs = _minimal_span_set(ss, stats)
    span = ss.with_sequences(span_seqs)
    cert = verify_span(ss, span)
    if cert is None:
        raise GameError("internal error: computed span failed verification")
    return cert


def shuffle_depth(ss: SequenceSet) -> int:
    """How many levels of first-infoset fixing are needed before every
    remaining subproblem has shuffled A-loss recall.

    Zero exactly when the set itself has shuffled A-loss recall; the
    disconnected case takes the maximum over components.  A connected set
    has depth 0 exactly when it has a covering infoset and every branch of
    that infoset has depth 0: this is the shuffled-A-loss-recall recursion
    of `salr_witness`, whose verdict does not depend on which covering
    infoset is fixed.  Those branch depths are also candidates of the
    `1 + min(max ...)` step, so the memo computes them once.  Runs on
    monomials, like the span search.
    """
    kernel = ss.universe
    memo: dict[frozenset[int], int] = {}

    def rec(ms: frozenset[int]) -> int:
        ms = _strip_epsilon(ms)
        if ms <= _EPSILON_ONLY:
            return 0
        got = memo.get(ms)
        if got is not None:
            return got
        comps = kernel.components(ms)
        if len(comps) > 1:
            ans = max(map(rec, comps))
        else:
            masks = list(map(kernel.infoset_mask, ms))
            cover = kernel.covering(masks)
            if cover is not None and not any(map(rec, kernel.branches(ms, cover))):
                ans = 0
            else:
                ans = 1 + min(
                    max(map(rec, kernel.branches(ms, k))) for k in kernel.present(masks)
                )
        memo[ms] = ans
        return ans

    result = rec(kernel.encode(ss.sequences))
    memo.clear()  # see seqsets.is_alr_set
    return result


def verify_span(
    original: SequenceSet, candidate: SequenceSet, *, strict: bool = False
) -> Optional[SpanCertificate]:
    """Check that the candidate generates every original monomial.

    For each original sequence s, the candidate sequences containing all
    of s's actions are divided by s; a strongly branching subset of the
    quotients certifies that the matching candidates sum to the monomial
    of s.  Returns the certificate, or None if some monomial is out of
    reach; with `strict`, that answer raises `UnspannedSequenceError`
    naming the first such sequence instead.  A candidate without A-loss
    recall raises `NotAlrCandidateError`.
    """
    combos, missing = _generator_sets(original, candidate)
    if missing is None:
        return SpanCertificate(original=original, span=candidate, combinations=combos)
    if strict:
        raise UnspannedSequenceError(missing)
    return None


def _generator_sets(
    original: SequenceSet, candidate: SequenceSet
) -> tuple[dict[Sequence, frozenset[Sequence]], Optional[Sequence]]:
    """The generator set of each original sequence in `sorted_sequences`
    order, up to the first that has none; that sequence, or None.

    Runs on the candidate's universe: a candidate sequence holds every
    action of s exactly when its monomial holds s's monomial, so only
    those candidates are divided by s.  When two give the same quotient,
    the first in sort order stands for it.  An action the candidate's
    universe lacks leaves s without a generator set.  The quotients are
    subsequences of the validated candidate's sequences, so the strongly
    branching search takes them as plain frozensets, with one memo for
    the whole call.
    """
    if not is_alr_set(candidate):
        raise NotAlrCandidateError("candidate is not an A-loss-recall set")
    bit = candidate.universe.action_bit
    coded = [(sum(map(bit.__getitem__, c)), c) for c in candidate.sorted_sequences()]
    memo: dict[frozenset[Sequence], Optional[frozenset[Sequence]]] = {}
    branching = _branching_search(candidate.infosets, candidate.universe, memo)
    combos: dict[Sequence, frozenset[Sequence]] = {}
    missing: Optional[Sequence] = None
    for s in original.sorted_sequences():
        if not all(map(bit.__contains__, s)):
            missing = s
            break
        m = sum(map(bit.__getitem__, s))  # distinct actions, so distinct bits
        held = frozenset(s).__contains__
        source: dict[Sequence, Sequence] = {}
        for cm, c in coded:
            if cm & m == m:
                source.setdefault(tuple(itertools.filterfalse(held, c)), c)
        found = branching(frozenset(source))
        if found is None:
            missing = s
            break
        combos[s] = frozenset(map(source.__getitem__, found))
    memo.clear()  # see seqsets.is_alr_set
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

    root = build(EPSILON in ss.sequences, _lead(ss.sequences, universe))
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


def _all_alr_sets(
    infosets: tuple[InformationSet, ...], size_cap: int
) -> list[frozenset[Sequence]]:
    """Every nonempty epsilon-free A-loss-recall set over the universe,
    up to `size_cap` sequences.

    Generated from the recursive shape of such sets: a connected set is a
    leading infoset with per-action continuations (each empty, {eps}, a
    smaller set, or a smaller set plus eps); a disconnected set is a
    union of connected sets over pairwise disjoint infoset supports.
    """

    ids = tuple(i.id for i in infosets)
    memo_conn: dict[frozenset[str], dict[frozenset[Sequence], frozenset[str]]] = {}
    memo_all: dict[frozenset[str], dict[frozenset[Sequence], frozenset[str]]] = {}

    def all_over(avail: frozenset[str]) -> dict[frozenset[Sequence], frozenset[str]]:
        got = memo_all.get(avail)
        if got is not None:
            return got
        out = dict(connected_over(avail))
        # unions of connected parts over pairwise disjoint supports
        by_support: dict[frozenset[str], list[frozenset[Sequence]]] = {}
        for seqs, supp in connected_over(avail).items():
            by_support.setdefault(supp, []).append(seqs)
        supports = sorted(by_support, key=sorted)

        def grow(start: int, acc: frozenset[Sequence], used: frozenset[str], parts: int):
            if parts >= 2 and len(acc) <= size_cap:
                out.setdefault(acc, used)
            for k in range(start, len(supports)):
                supp = supports[k]
                if supp & used:
                    continue
                for seqs in by_support[supp]:
                    if len(acc) + len(seqs) <= size_cap:
                        grow(k + 1, acc | seqs, used | supp, parts + 1)

        grow(0, frozenset(), frozenset(), 0)
        memo_all[avail] = out
        return out

    def connected_over(avail: frozenset[str]) -> dict[frozenset[Sequence], frozenset[str]]:
        got = memo_conn.get(avail)
        if got is not None:
            return got
        result: dict[frozenset[Sequence], frozenset[str]] = {}
        for lead in infosets:
            if lead.id not in avail:
                continue
            others = avail - {lead.id}
            base: list[tuple[Optional[frozenset[Sequence]], frozenset[str], int]] = [
                (None, frozenset(), 0),
                (frozenset({EPSILON}), frozenset(), 1),
            ]
            for s, supp in all_over(others).items():
                base.append((s, supp, len(s)))
                base.append((s | {EPSILON}, supp, len(s) + 1))
            # prefix every option by every action of the lead once
            prefixed: list[list[tuple[Optional[frozenset[Sequence]], frozenset[str], int]]] = []
            for a in lead.actions:
                row = []
                for s, supp, size in base:
                    if s is None:
                        row.append((None, supp, 0))
                    else:
                        row.append((frozenset((a,) + t for t in s), supp, size))
                prefixed.append(row)
            for combo in itertools.product(*prefixed):
                total = sum(c[2] for c in combo)
                if total == 0 or total > size_cap:
                    continue
                seqs: frozenset[Sequence] = frozenset()
                supp: frozenset[str] = frozenset({lead.id})
                for branch, bsupp, _ in combo:
                    if branch is None:
                        continue
                    seqs |= branch
                    supp |= bsupp
                result[seqs] = supp
        memo_conn[avail] = result
        return result

    return list(all_over(frozenset(ids)))


# (monomial -> bit, [per size: [(sequences, coverage mask)]])
_OracleIndex = tuple[dict[frozenset[Action], int], list[list[tuple[frozenset[Sequence], int]]]]


def _oracle_index(present: tuple[InformationSet, ...]) -> _OracleIndex:
    cap = 1
    for i in present:
        cap *= len(i.actions)
    # bit per nonempty monomial of the universe
    bit_of: dict[frozenset[Action], int] = {}
    for combo in itertools.product(*((None, *i.actions) for i in present)):
        mono = frozenset(a for a in combo if a is not None)
        if mono and mono not in bit_of:
            bit_of[mono] = len(bit_of)
    # every nonempty sub-monomial of a candidate sequence is coverable
    seq_mask: dict[Sequence, int] = {}

    def mask_of(s: Sequence) -> int:
        got = seq_mask.get(s)
        if got is None:
            got = 0
            for r in range(1, len(s) + 1):
                for sub in itertools.combinations(s, r):
                    got |= 1 << bit_of[frozenset(sub)]
            seq_mask[s] = got
        return got

    by_size: list[list[tuple[frozenset[Sequence], int]]] = [[] for _ in range(cap + 1)]
    for seqs in _all_alr_sets(present, cap):
        if len(seqs) > cap:
            continue
        mask = 0
        for s in seqs:
            mask |= mask_of(s)
        by_size[len(seqs)].append((seqs, mask))
    return bit_of, by_size


class MinimalityOracle:
    """Exhaustive minimal-span size: enumerate every A-loss-recall set over
    the present infosets by increasing size and return the first size at
    which verification succeeds.

    Guarded to tiny universes (binary infosets only); meant purely as an
    independent check of the minimal-span recursion.  An oracle keeps the
    enumeration of each universe it has seen for as long as its caller
    keeps the oracle.
    """

    def __init__(self) -> None:
        self._indexes: dict[tuple, _OracleIndex] = {}

    def __call__(self, ss: SequenceSet, max_infosets: int = 3, max_size: int = 8) -> int:
        present = tuple(ss.present_infosets())
        if len(present) > max_infosets or len(ss) > max_size:
            raise SizeLimitError("instance too large for the minimality oracle")
        if any(len(i.actions) != 2 for i in present):
            raise SizeLimitError("the minimality oracle only handles binary infosets")

        key = tuple((i.id, i.actions) for i in present)
        if key not in self._indexes:
            self._indexes[key] = _oracle_index(present)
        bit_of, by_size = self._indexes[key]
        want = 0
        for s in ss.sequences:
            if s:
                want |= 1 << bit_of[frozenset(s)]
        for size in range(1, len(by_size)):
            for cand_seqs, mask in by_size[size]:
                if want & ~mask:
                    continue
                cand = ss.with_sequences(cand_seqs)
                if verify_span(ss, cand) is not None:
                    return size
        raise GameError("no span found within the enumeration bound")
