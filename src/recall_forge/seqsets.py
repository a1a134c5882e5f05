"""Sets of action sequences and the A-loss-recall calculus on them.

A sequence is a word of action labels with at most one action per
information set (histories of non-absentminded players have this shape).
Everything here is pure and order-deterministic: infosets keep their
declaration order, and sequences are iterated in a fixed total order
derived from that declaration order.

Every set carries its universe, a `Monomials` built once from the infoset
tuple and shared by every derived subset, and each sequence's monomial:
the kernel codes and validates every sequence once, when the set is
built.  The recursions that ignore the order of actions (components, the
minimal-span search, the shuffle depth and shuffled-A-loss-recall
detection) start from those monomials and run through the kernel's one
component step, covering infoset and branch step.

The recursions that read the order of actions (strongly branching
subsets and `span.realize_sequence_set`) share one first-action split,
`_lead`: it groups a set's sequences by the infoset of their first action
and each action by its continuations.  They recurse on plain frozensets
of suffixes of the validated input, so no recursion node builds or
validates a `SequenceSet`.  The A-loss-recall test is a loop: it applies
`model.a_loss_recall`, the rule that classifies game trees, to the
prefixes that reach each infoset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NoReturn, Optional

from .model import (
    Action,
    GameError,
    GameStructure,
    InformationSet,
    RecallClass,
    a_loss_recall,
    classify_recall,
    history,
)

Sequence = tuple[Action, ...]
EPSILON: Sequence = ()


class Monomials:
    """The universe of every sequence set, and the integer kernel of the
    span searches.

    Each action is one bit, the actions of an information set in
    consecutive bits (declaration order), so action bits increase in
    (infoset, action) declaration order.  A sequence is coded as the OR of
    its action bits: its monomial.  An infoset mask marks each information
    set a sequence touches by that infoset's lowest action bit.

    Components, the covering infoset, the present infosets and the branch
    step read only which actions a sequence holds, never their order, so
    on a set of monomials they are a few integer operations: the quotient
    on action bit A is `m ^ A` for every `m` with `m & A`, and the
    residual is every `m` with no bit of that infoset.  A monomial's
    infoset mask is computed by folding every action bit down to the
    lowest bit of its infoset, a few shifts in all however long the
    sequence.  Each distinct monomial is checked once, when its infoset
    mask is first computed: one action per information set, and no bit
    outside the universe.
    """

    def __init__(self, infosets: tuple[InformationSet, ...]) -> None:
        self.infoset_id: dict[Action, str] = {}  # action -> infoset id
        self.action_bit: dict[Action, int] = {}
        self.infoset_bit: dict[Action, int] = {}  # action -> its infoset's lowest bit
        self.position: dict[int, int] = {}  # an infoset's lowest bit -> its position
        self._blocks: list[tuple[int, tuple[int, ...]]] = []  # per infoset: (OR, bits)
        ids: set[str] = set()
        bit = 1
        for k, info in enumerate(infosets):
            if info.id in ids:
                raise GameError(f"duplicate information set id {info.id!r}")
            ids.add(info.id)
            bits = tuple(bit << j for j in range(len(info.actions)))
            for a, b in zip(info.actions, bits):
                if a in self.infoset_id:
                    raise GameError(
                        f"action {a!r} appears in both {self.infoset_id[a]!r} and {info.id!r}"
                    )
                self.infoset_id[a] = info.id
                self.action_bit[a] = b
                self.infoset_bit[a] = bit
            self._blocks.append((sum(bits), bits))
            self.position[bit] = k
            bit <<= len(bits)
        self._universe = bit - 1
        self._firsts = sum(self.position)
        # (shift, the bits that stay in their infoset when moved down by it),
        # for shift = 1, 2, 4, ... below the largest action count
        self._folds: list[tuple[int, int]] = []
        shift = 1
        while any(len(bits) > shift for _, bits in self._blocks):
            stay = sum(b for _, bits in self._blocks for b in bits[shift:])
            self._folds.append((shift, stay))
            shift *= 2
        self._masks: dict[int, int] = {0: 0}  # monomial -> infoset mask

    def infoset_mask(self, m: int) -> int:
        """The lowest action bit of each infoset the monomial touches."""
        got = self._masks.get(m)
        if got is None:
            if m & ~self._universe:
                raise GameError(f"monomial {m:#x} has a bit outside the universe")
            folded = m
            for shift, stay in self._folds:
                folded |= (folded & stay) >> shift
            got = folded & self._firsts
            if got.bit_count() != m.bit_count():
                raise GameError(f"monomial {m:#x} repeats an information set")
            self._masks[m] = got
        return got

    def components(self, ms: frozenset[int]) -> list[frozenset[int]]:
        """Connected components, as in `components`, in no fixed order.

        Merges the infoset masks into disjoint unions, then buckets each
        monomial under the union holding its mask.  A zero mask
        (epsilon's) overlaps nothing and is a component of its own.
        """
        masks = {m: self.infoset_mask(m) for m in ms}
        groups: list[int] = []  # disjoint unions of overlapping masks
        for mask in set(masks.values()):
            rest = []
            for g in groups:
                if g & mask:
                    mask |= g
                else:
                    rest.append(g)
            rest.append(mask)
            groups = rest
        if len(groups) <= 1:
            return [ms] if groups else []
        buckets: dict[int, list[int]] = {g: [] for g in groups}
        for m, mask in masks.items():
            buckets[next(g for g in groups if g & mask or g == mask)].append(m)
        return [frozenset(b) for b in buckets.values()]

    def covering(self, ms: Iterable[int]) -> Optional[int]:
        """Position of the first infoset every monomial touches; None if
        there is none, or no monomial."""
        common = -1
        for m in ms:
            common &= self.infoset_mask(m)
            if not common:
                return None
        return None if common < 0 else self.position[common & -common]

    def present(self, ms: Iterable[int]) -> list[int]:
        """Positions, in declaration order, of the infosets some monomial
        touches."""
        used = 0
        for m in ms:
            used |= self.infoset_mask(m)
        out = []
        while used:
            low = used & -used
            out.append(self.position[low])
            used ^= low
        return out

    def branches(self, ms: frozenset[int], k: int) -> list[frozenset[int]]:
        """The branch step of the order-free set recursions: fix
        `infosets[k]`.

        For each of its actions, in declaration order: the monomials that
        hold it, with it removed, plus the residual, the monomials with no
        bit of that infoset (empty when the infoset covers the set).
        """
        block, bits = self._blocks[k]
        quotients: dict[int, list[int]] = {b: [] for b in bits}
        residual: list[int] = []
        for m in ms:
            a = m & block
            if a:
                quotients[a].append(m ^ a)
            else:
                residual.append(m)
        return [frozenset(residual + q) for q in quotients.values()]

    def candidates(self, ms: frozenset[int]) -> Iterator[tuple[int, list[frozenset[int]]]]:
        """The present infosets in declaration order, each with its
        `branches`, except each k for which an infoset j yielded before
        it has k's branch sizes and a swap with k, action i for action i,
        that maps `ms` onto itself.  That swap maps j's branches onto k's,
        so an answer that renaming keeps (a span's size, a shuffle depth)
        is the same for both.  Only equal sizes are swapped.
        """
        tried: dict[tuple[int, ...], list[int]] = {}
        for k in self.present(ms):
            branches = self.branches(ms, k)
            same = tried.setdefault(tuple(map(len, branches)), [])
            if not (same and any(self._swaps(ms, j, k) for j in same)):
                same.append(k)
                yield k, branches

    def _swaps(self, ms: frozenset[int], j: int, k: int) -> bool:
        """Whether swapping infosets j < k, of equal action counts, maps
        `ms` onto itself."""
        bj, bk = self._blocks[j][0], self._blocks[k][0]
        shift, both = (bk & -bk).bit_length() - (bj & -bj).bit_length(), bj | bk
        return all(m & ~both | (m & bj) << shift | (m & bk) >> shift in ms for m in ms if m & both)


@dataclass(frozen=True)
class SequenceSet:
    """A deduplicated set of sequences over a fixed infoset universe.

    Construction codes every sequence as its monomial and checks it: each
    action must belong to an infoset of the universe, and no two actions
    to the same one.
    """

    sequences: frozenset[Sequence]
    infosets: tuple[InformationSet, ...]
    # the shared universe, not part of the value (== and hash ignore it)
    universe: Optional[Monomials] = field(default=None, compare=False, repr=False)
    # each sequence's monomial (see `Monomials`)
    monomials: dict[Sequence, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.universe is None:
            object.__setattr__(self, "universe", Monomials(self.infosets))
        kernel = self.universe
        get = kernel.action_bit.__getitem__
        # n distinct action bits sum to n set bits and a repeated action
        # carries into fewer; the kernel rejects two actions of one infoset
        # and keeps a bit per infoset, so the totals agree iff all are valid
        try:
            monomials = {s: sum(map(get, s)) for s in self.sequences}
            masks = map(kernel.infoset_mask, monomials.values())
            valid = sum(map(int.bit_count, masks)) == sum(map(len, monomials))
        except (KeyError, GameError):
            valid = False
        if not valid:
            self._reject()
        object.__setattr__(self, "monomials", monomials)

    def _reject(self) -> NoReturn:
        """Raise for the first invalid sequence."""
        known = self.universe.infoset_id
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
        raise AssertionError("every sequence is valid")

    def seq_key(self, s: Sequence) -> tuple[int, ...]:
        return tuple(map(self.universe.action_bit.__getitem__, s))

    def sorted_sequences(self) -> list[Sequence]:
        return sorted(self.sequences, key=self.seq_key)

    def with_sequences(self, sequences: Iterable[Sequence]) -> SequenceSet:
        return SequenceSet(frozenset(sequences), self.infosets, self.universe)

    def present_infosets(self) -> list[InformationSet]:
        """Infosets with at least one action occurring in some sequence."""
        return [self.infosets[k] for k in self.universe.present(self.monomials.values())]

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
    seqs = {history(structure, leaf, player) for leaf in structure.leaves()}
    if player is None:
        infosets = structure.infosets
    else:
        infosets = tuple(i for i in structure.infosets if i.owner == player)
    return SequenceSet(frozenset(seqs), infosets)


def components(ss: SequenceSet) -> list[SequenceSet]:
    """Connected components; the empty sequence is always its own component.

    Sequences connect when their infoset masks overlap.  Components are
    ordered by their smallest member in `seq_key` order, so an epsilon
    component comes first.
    """
    comps = ss.universe.components(frozenset(ss.monomials.values()))
    if len(comps) <= 1:
        return [ss] if comps else []
    groups = [[s for s, m in ss.monomials.items() if m in comp] for comp in comps]
    ordered = sorted(groups, key=lambda b: min(map(ss.seq_key, b)))
    return [ss.with_sequences(b) for b in ordered]


def covering_infoset(ss: SequenceSet) -> Optional[InformationSet]:
    """First infoset (declaration order) touching every sequence, if any."""
    k = ss.universe.covering(ss.monomials.values())
    return None if k is None else ss.infosets[k]


def _lead(
    seqs: frozenset[Sequence], universe: Monomials
) -> dict[int, dict[Action, frozenset[Sequence]]]:
    """The first-action split of the recursions that read action order.

    For each infoset that starts some sequence, keyed by its lowest action
    bit: each of its actions that starts a sequence -> the continuations
    after that action.  Epsilon starts no group.  The sequences are
    suffixes of validated ones, so none is checked again.
    """
    groups: dict[int, dict[Action, list[Sequence]]] = {}
    low = universe.infoset_bit
    for s in seqs:
        if s:
            groups.setdefault(low[s[0]], {}).setdefault(s[0], []).append(s[1:])
    return {k: {a: frozenset(c) for a, c in g.items()} for k, g in groups.items()}


def is_alr_set(ss: SequenceSet) -> bool:
    """A-loss-recall test on a sequence set: the rule `model.a_loss_recall`
    on the prefixes that reach each information set.

    The prefix `s[:k]` reaches the infoset of `s[k]`.  Each sequence's
    prefixes are walked longest first, and the walk stops at the first
    one already recorded: the sequence that recorded it shares every
    shorter prefix, and recorded those too.
    """
    infoset_of = ss.universe.infoset_id
    reaching: dict[str, set[Sequence]] = {}
    for s in ss.sequences:
        for k in range(len(s) - 1, -1, -1):
            hs, prefix = reaching.setdefault(infoset_of[s[k]], set()), s[:k]
            if prefix in hs:
                break
            hs.add(prefix)
    return a_loss_recall(reaching.values(), infoset_of)


def is_strongly_branching(ss: SequenceSet) -> bool:
    """True iff the set is {eps} or splits as a full one-infoset branch
    with strongly branching continuations.

    Equivalently (for A-loss-recall sets): the sum of the set's monomials
    collapses to the constant 1 under the per-infoset sum-to-one
    constraints.  The subset `find_strongly_branching_subset` picks is
    strongly branching, and in a strongly branching set it is the whole
    set.
    """
    found = find_strongly_branching_subset(ss)
    return found is not None and found.sequences == ss.sequences


def find_strongly_branching_subset(ss: SequenceSet) -> Optional[SequenceSet]:
    """A strongly branching subset of the set, or None.

    Deterministic: an epsilon member is preferred, then infosets are
    tried in declaration order and the first full branch wins.  The
    recursion is `_branching`, which `span.verify_span` runs too.
    """
    got = _branching(ss.sequences, ss.infosets, ss.universe, {})
    return None if got is None else ss.with_sequences(got)


def _branching(
    seqs: frozenset[Sequence],
    infosets: tuple[InformationSet, ...],
    universe: Monomials,
    memo: dict[frozenset[Sequence], Optional[frozenset[Sequence]]],
) -> Optional[frozenset[Sequence]]:
    """The strongly-branching recursion over one universe: the strongly
    branching subset of `seqs` (subsequences of validated sequences) that
    `find_strongly_branching_subset` picks, or None.  Answers depend only
    on the set, so every set searched with one `memo` shares them.
    """
    if EPSILON in seqs:
        return frozenset({EPSILON})
    if seqs in memo:
        return memo[seqs]
    memo[seqs] = None  # until a full branch is found
    groups = _lead(seqs, universe)
    for low in sorted(groups):  # declaration order
        conts = groups[low]
        picked: list[Sequence] = []
        for a in infosets[universe.position[low]].actions:
            sub = _branching(conts[a], infosets, universe, memo) if a in conts else None
            if sub is None:
                break
            picked.extend((a,) + t for t in sub)
        else:
            memo[seqs] = frozenset(picked)
            break
    return memo[seqs]
