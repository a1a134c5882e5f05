"""Reference checks that the tests compare the production recursions
against: the exhaustive minimal-span size and shuffled-A-loss-recall
search.  No CLI command or production path calls anything here.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .model import Action, GameError, InformationSet, SizeLimitError
from .seqsets import EPSILON, Sequence, SequenceSet, is_alr_set
from .span import NotAlrCandidateError, _generator_sets


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


# (monomial -> bit, [per size: [(sequences, coverage mask)]], the
# candidates found to have A-loss recall)
_BySize = list[list[tuple[frozenset[Sequence], int]]]
_OracleIndex = tuple[dict[frozenset[Action], int], _BySize, set[frozenset[Sequence]]]


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
    return bit_of, by_size, set()


class MinimalityOracle:
    """Exhaustive minimal-span size: enumerate every A-loss-recall set over
    the present infosets by increasing size and return the first size at
    which verification succeeds.

    Guarded to tiny universes (binary infosets only); meant purely as an
    independent check of the minimal-span recursion.  An oracle keeps the
    enumeration of each universe it has seen for as long as its caller
    keeps the oracle, and checks each candidate's A-loss recall, the
    entry check of `verify_span`, once: the first time it is tried.  A
    candidate without it raises `NotAlrCandidateError`.
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
        bit_of, by_size, alr = self._indexes[key]
        want = 0
        for s in ss.sequences:
            if s:
                want |= 1 << bit_of[frozenset(s)]
        for size in range(1, len(by_size)):
            for cand_seqs, mask in by_size[size]:
                if want & ~mask:
                    continue
                cand = ss.with_sequences(cand_seqs)
                if cand_seqs not in alr and not is_alr_set(cand):
                    raise NotAlrCandidateError("candidate is not an A-loss-recall set")
                alr.add(cand_seqs)
                if _generator_sets(ss, cand)[1] is None:
                    return size
        raise GameError("no span found within the enumeration bound")


def salr_bruteforce_oracle(ss: SequenceSet, max_size: int = 8) -> bool:
    """Exhaustive check: some choice of one permutation per sequence makes
    the (deduplicated) image an A-loss-recall set.

    Only intended for small inputs; the search is factorial per sequence.
    """
    if len(ss) > max_size:
        raise SizeLimitError(f"instance too large for the oracle (|S| > {max_size})")
    seqs = ss.sorted_sequences()
    if any(len(s) > 6 for s in seqs):
        raise SizeLimitError("instance too large for the oracle (sequence length > 6)")
    perms = [sorted({p for p in itertools.permutations(s)}) for s in seqs]
    for combo in itertools.product(*perms):
        if is_alr_set(ss.with_sequences(combo)):
            return True
    return False
