"""Shuffled A-loss recall: detection and witness construction.

A set of histories has shuffled A-loss recall when each history can be
reordered (one permutation per history) so that the resulting set has
A-loss recall.  Detection recurses on connectivity: a connected set
qualifies iff some information set touches every sequence and all its
per-action quotients qualify; a disconnected set qualifies componentwise.
The witness is assembled on the way back up by fronting the chosen
infoset's action in each branch.

None of these steps reads the order of actions, so detection runs on the
set's monomials (`SequenceSet.monomials`) with the steps of the span
searches: `Monomials.components`, `covering` and `branches`.  Each
monomial gets one witness sequence, and each history the witness of its
monomial.  So distinct histories can collapse onto one witness sequence
(two reorderings of the same multiset), and the witness may be smaller
than the input; the set of leaf monomials is preserved either way.  The
exhaustive reference check lives in `oracles`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import GameStructure
from .seqsets import EPSILON, Sequence, SequenceSet, extract_histories
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
    this is purely a determinism convention.  Components are visited in
    `seq_key` order of their smallest sequence, so the failure reported is
    the first in that order.
    """
    kernel = ss.universe
    bit = kernel.action_bit
    histories: dict[int, list[Sequence]] = {}  # monomial -> the histories over it
    for s, m in ss.monomials.items():
        histories.setdefault(m, []).append(s)

    def node_sequences(ms: frozenset[int], path: int) -> list[Sequence]:
        """The sequences of the node reached by fixing the actions in `path`:
        every branch is on a covering infoset, so each history over one of
        the node's monomials holds all of them."""
        return [
            tuple(a for a in s if not bit[a] & path) for m in ms for s in histories[m | path]
        ]

    failure: Optional[tuple[frozenset[int], int]] = None

    def rec(ms: frozenset[int], path: int) -> Optional[dict[int, Sequence]]:
        """Each monomial's witness sequence, or None if the set has no
        shuffled A-loss recall."""
        nonlocal failure
        if ms <= {0}:
            return dict.fromkeys(ms, EPSILON)
        comps = kernel.components(ms)
        if len(comps) > 1:
            comps.sort(key=lambda c: min(map(ss.seq_key, node_sequences(c, path))))
            out: dict[int, Sequence] = {}
            for comp in comps:
                got = rec(comp, path)
                if got is None:
                    return None
                out.update(got)
            return out
        k = kernel.covering(ms)
        if k is None:
            failure = (ms, path)
            return None
        out = {}
        for a, quot in zip(ss.infosets[k].actions, kernel.branches(ms, k)):
            if not quot:
                continue
            got = rec(quot, path | bit[a])
            if got is None:
                return None
            # the covering infoset leaves no residual: each key is m ^ bit[a]
            out.update((m | bit[a], (a,) + w) for m, w in got.items())
        return out

    witnesses = rec(frozenset(histories), 0)
    if witnesses is None:
        return SalrResult(False, None, None, ss.with_sequences(node_sequences(*failure)))
    mapping = {s: witnesses[m] for m, group in histories.items() for s in group}
    return SalrResult(True, ss.with_sequences(mapping.values()), mapping)


def shuffle_structure(structure: GameStructure) -> Optional[GameStructure]:
    """Rebuild the game tree on a shuffled-history witness, if one exists.

    The returned structure has A-loss recall and the same set of leaf
    monomials as the input.  Returns None when the input's histories do
    not have shuffled A-loss recall.
    """
    res = salr_witness(extract_histories(structure))
    if not res.has_salr:
        return None
    assert res.witness is not None
    return structure_from_sequences(res.witness)
