from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recall_forge.model import MAX, GameError, RecallClass, classify_recall
from recall_forge.generators import FamilyParams, gen_lowerbound, gen_pennies, gen_random
from recall_forge.polynomials import leaf_monomials
from recall_forge.seqsets import (
    SequenceSet,
    covering_infoset,
    extract_histories,
    is_alr_set,
)
from recall_forge.oracles import salr_bruteforce_oracle
from recall_forge.shuffle import (
    SalrResult,
    salr_witness,
    shuffle_structure,
)

from conftest import (
    FIVE,
    SHUFFLE_DEMO_SET,
    SHUFFLE_DEMO_WITNESS,
    SPAN_DEMO_SET,
    build_shuffle_demo,
    build_span_demo,
    components_oracle,
    random_realizable_set,
    sequence_sets,
    seqs,
    tuple_branches,
)


def shuffle_demo_set() -> SequenceSet:
    return SequenceSet(SHUFFLE_DEMO_SET, build_shuffle_demo().structure.infosets)


def span_demo_set() -> SequenceSet:
    return SequenceSet(SPAN_DEMO_SET, build_span_demo().structure.infosets)


def test_witness_on_shuffle_demo():
    res = salr_witness(shuffle_demo_set())
    assert res.has_salr
    assert res.witness.sequences == SHUFFLE_DEMO_WITNESS
    assert is_alr_set(res.witness)
    # every image is a permutation of its source
    for src, dst in res.permutation_map.items():
        assert sorted(src) == sorted(dst)
    assert len(res.permutation_map) == len(SHUFFLE_DEMO_SET)
    assert set(res.permutation_map.values()) == set(SHUFFLE_DEMO_WITNESS)


def test_alr_input_is_its_own_witness(perfect_recall_demo):
    ss = extract_histories(perfect_recall_demo.structure)
    res = salr_witness(ss)
    assert res.has_salr
    assert res.witness.sequences == ss.sequences


def test_no_witness_on_span_demo():
    res = salr_witness(span_demo_set())
    assert not res.has_salr
    assert res.witness is None
    assert res.failure is not None and len(res.failure) == 8


def test_pennies_two_has_salr_all_sizes():
    for n in range(2, 7):
        ss = extract_histories(gen_pennies("II", n).structure)
        assert salr_witness(ss).has_salr


def test_oracle_agreement_on_demos():
    assert salr_bruteforce_oracle(shuffle_demo_set()) is True
    assert salr_bruteforce_oracle(span_demo_set()) is False
    singleton = SequenceSet(seqs("a c"), build_span_demo().structure.infosets)
    assert salr_bruteforce_oracle(singleton) is True


def test_oracle_size_guard():
    ss = extract_histories(gen_pennies("II", 5).structure)
    with pytest.raises(GameError):
        salr_bruteforce_oracle(ss, max_size=8)


def test_shuffle_structure_demo(shuffle_demo):
    witness = shuffle_structure(shuffle_demo.structure)
    assert witness is not None
    assert classify_recall(witness, MAX) in (RecallClass.PFR, RecallClass.ALR_NOT_PFR)
    assert extract_histories(witness).sequences == SHUFFLE_DEMO_WITNESS
    assert leaf_monomials(witness) == leaf_monomials(shuffle_demo.structure)


def test_shuffle_structure_negative(span_demo):
    assert shuffle_structure(span_demo.structure) is None


def test_shuffle_structure_rejects_absentminded(absentminded_demo):
    with pytest.raises(GameError):
        shuffle_structure(absentminded_demo.structure)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_witness_agrees_with_bruteforce_oracle(seed):
    rng = random.Random(seed)
    ss = random_realizable_set(rng, max_size=6)
    res = salr_witness(ss)
    assert res.has_salr == salr_bruteforce_oracle(ss)
    if res.has_salr:
        assert is_alr_set(res.witness)
        for src, dst in res.permutation_map.items():
            assert sorted(src) == sorted(dst)
        # same monomials either way
        assert {frozenset(s) for s in ss.sequences} == {
            frozenset(s) for s in res.witness.sequences
        }


def _tuple_salr_witness(ss: SequenceSet) -> SalrResult:
    """`salr_witness` on tuples of actions, as it ran before the monomial
    kernel: a `SequenceSet` at every node, components in
    `components_oracle` order and the tuple branch step."""
    failure = []

    def rec(seqs_: frozenset):
        if not seqs_:
            return {}
        if seqs_ == seqs(""):
            return {(): ()}
        sub = ss.with_sequences(seqs_)
        comps = components_oracle(sub)
        if len(comps) > 1:
            out = {}
            for comp in comps:
                got = rec(comp)
                if got is None:
                    return None
                out.update(got)
            return out
        info = covering_infoset(sub)
        if info is None:
            failure.append(sub)
            return None
        out = {}
        for a, quot in tuple_branches(seqs_, info):
            if not quot:
                continue
            got = rec(quot)
            if got is None:
                return None
            out.update((s, (a,) + got[tuple(x for x in s if x != a)]) for s in seqs_ if a in s)
        return out

    mapping = rec(ss.sequences)
    if mapping is None:
        return SalrResult(False, None, None, failure[0])
    return SalrResult(True, ss.with_sequences(mapping.values()), mapping)


def _assert_same_answer(ss: SequenceSet) -> None:
    got, want = salr_witness(ss), _tuple_salr_witness(ss)
    assert got.has_salr == want.has_salr
    assert got.witness == want.witness
    assert got.permutation_map == want.permutation_map
    if want.failure is None:
        assert got.failure is None
    else:
        assert got.failure.sequences == want.failure.sequences


def test_salr_witness_matches_tuple_recursion():
    """Same verdict, witness, permutation map and failure as the tuple
    recursion.  The failure depends on the order components are visited
    in: random seed 353 (one player, depth 4, branching 3) reports a
    different failing subset when they are taken in the kernel's order."""
    cases = [
        extract_histories(gen_pennies(variant, n).structure)
        for variant in ("I", "II", "III")
        for n in range(2, 9)
    ]
    cases += [gen_lowerbound(n) for n in range(1, 8)]
    for seed in range(1, 400):
        for players in (1, 2):
            for depth, branching in ((4, 3), (5, 2), (6, 3)):
                params = FamilyParams(
                    family="random", seed=seed, depth=depth, branching=branching, players=players
                )
                cases.append(extract_histories(gen_random(params).structure))
    assert len(cases) == 2422  # 21 pennies, 7 lowerbound, 2,394 random
    for ss in cases:
        _assert_same_answer(ss)


@given(sequence_sets())
@example(SequenceSet(seqs("", "x0 x1", "x1 x0", "y2"), FIVE))
@settings(max_examples=300, deadline=None)
def test_salr_witness_matches_tuple_recursion_on_drawn_sets(ss):
    _assert_same_answer(ss)


def test_salr_witness_builds_one_sequence_set(monkeypatch):
    # the recursion runs on monomials: the witness is the only set built
    params = FamilyParams(family="random", seed=155, depth=6, branching=3)
    ss = extract_histories(gen_random(params).structure)
    assert len(ss) == 149
    built = []
    post_init = SequenceSet.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SequenceSet, "__post_init__", counting)
    res = salr_witness(ss)
    assert res.has_salr
    assert len(built) == 1 and built[0] is res.witness
