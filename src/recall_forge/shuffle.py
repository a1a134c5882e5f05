"""Shuffled A-loss recall: detection and witness construction.

A set of histories has shuffled A-loss recall when each history can be
reordered (one permutation per history) so that the resulting set has
A-loss recall.  Detection recurses on connectivity: a connected set
qualifies iff some information set touches every sequence and all its
per-action quotients qualify; a disconnected set qualifies componentwise.
The witness is assembled on the way back up by fronting the chosen
infoset's action in each branch.

Distinct histories can collapse onto one witness sequence (two
reorderings of the same multiset), so the witness may be smaller than
the input; the set of leaf monomials is preserved either way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .model import GameError, GameStructure, RecallClass, SizeLimitError, classify_recall
from .seqsets import (
    EPSILON,
    Sequence,
    SequenceSet,
    _components,
    branches,
    covering_infoset,
    extract_histories,
    is_alr_set,
)
from .span import structure_from_sequences


@dataclass(frozen=True)
class SalrResult:
    has_salr: bool
    witness: Optional[SequenceSet]
    permutation_map: Optional[dict[Sequence, Sequence]]
    failure: Optional[SequenceSet] = None  # connected subset with no covering infoset


def salr_witness(ss: SequenceSet) -> SalrResult:
    """Decide shuffled A-loss recall and build a witness set.

    The covering infoset is always the first qualifying one in
    declaration order; any qualifying choice yields a valid witness, so
    this is purely a determinism convention.
    """
    failure: list[SequenceSet] = []

    def rec(seqs: frozenset[Sequence]) -> Optional[dict[Sequence, Sequence]]:
        if not seqs:
            return {}
        if seqs == frozenset({EPSILON}):
            return {EPSILON: EPSILON}
        sub = ss.with_sequences(seqs)
        comps = _components(sub)
        if len(comps) > 1:
            out: dict[Sequence, Sequence] = {}
            for comp in comps:
                got = rec(comp)
                if got is None:
                    return None
                out.update(got)
            return out
        info = covering_infoset(sub)
        if info is None:
            if not failure:
                failure.append(sub)
            return None
        out = {}
        for a, quot in branches(seqs, info):
            if not quot:
                continue
            got = rec(quot)
            if got is None:
                return None
            out.update((s, (a,) + got[tuple(x for x in s if x != a)]) for s in seqs if a in s)
        # the covering set touches every sequence, each in one action's branch
        assert len(out) == len(seqs)
        return out

    mapping = rec(ss.sequences)
    if mapping is None:
        return SalrResult(False, None, None, failure[0] if failure else None)
    witness = ss.with_sequences(mapping.values())
    return SalrResult(True, witness, mapping)


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


def shuffle_structure(structure: GameStructure) -> Optional[GameStructure]:
    """Rebuild the game tree on a shuffled-history witness, if one exists.

    The returned structure has A-loss recall and the same set of leaf
    monomials as the input.  Returns None when the input's histories do
    not have shuffled A-loss recall.
    """
    for p in structure.players():
        if classify_recall(structure, p) is RecallClass.ABSENTMINDED:
            raise GameError(f"player {p!r} is absentminded")
    res = salr_witness(extract_histories(structure))
    if not res.has_salr:
        return None
    assert res.witness is not None
    return structure_from_sequences(res.witness)
