from __future__ import annotations

import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recall_forge.model import MAX, GameError, InformationSet, RecallClass, classify_recall
from recall_forge.generators import FamilyParams, gen_pennies, gen_random
from recall_forge.seqsets import (
    Monomials,
    SequenceSet,
    covering_infoset,
    extract_histories,
    find_strongly_branching_subset,
    is_alr_set,
    is_strongly_branching,
)
from recall_forge.generators import gen_lowerbound

from conftest import (
    FIVE,
    SHUFFLE_DEMO_SET,
    SPAN_DEMO_SET,
    THREE_BINARY,
    build_shuffle_demo,
    components_oracle,
    random_realizable_set,
    sequence_sets,
    seqs,
    tuple_branches,
)

PAIR = (
    InformationSet("I1", MAX, ("a", "b")),
    InformationSet("I2", MAX, ("c", "d")),
    InformationSet("I3", MAX, ("e", "f")),
)


def encoder(infosets):
    """The set's universe, and a function that codes a set of sequences
    over it as the monomials `SequenceSet` gives them."""
    empty = SequenceSet(frozenset(), infosets)
    return empty.universe, lambda s: frozenset(empty.with_sequences(s).monomials.values())


def test_extract_histories_perfect_recall(perfect_recall_demo):
    ss = extract_histories(perfect_recall_demo.structure)
    assert ss.sequences == seqs("a c", "a d", "b e", "b f")


def test_extract_histories_shuffle_demo(shuffle_demo):
    assert extract_histories(shuffle_demo.structure).sequences == SHUFFLE_DEMO_SET


def test_extract_histories_span_demo(span_demo):
    assert extract_histories(span_demo.structure).sequences == SPAN_DEMO_SET


def test_extract_histories_dedupes_pennies():
    # variant II at n=3: twelve leaves collapse onto eight histories
    game = gen_pennies("II", 3)
    ss = extract_histories(game.structure)
    assert len(game.structure.leaves()) == 12
    assert len(ss) == 8
    # variant I pools everything: four histories
    assert len(extract_histories(gen_pennies("I", 3).structure)) == 4


def test_extract_rejects_absentminded(absentminded_demo):
    with pytest.raises(GameError):
        extract_histories(absentminded_demo.structure)


def _monomial_components(ss: SequenceSet) -> set[frozenset[int]]:
    """The kernel's components of the set's monomials, as a set."""
    comps = ss.universe.components(frozenset(ss.monomials.values()))
    assert len(set(comps)) == len(comps)
    return set(comps)


def _monomial_sets(ss: SequenceSet, groups) -> set[frozenset[int]]:
    """Groups of the set's sequences as a set of monomial sets."""
    return {frozenset(ss.monomials[s] for s in g) for g in groups}


def test_components_split():
    ss = SequenceSet(seqs("a", "b", "c", "d"), PAIR)
    assert _monomial_components(ss) == _monomial_sets(ss, [seqs("a", "b"), seqs("c", "d")])


def test_components_bridging_sequence():
    # ac and eb share no actions, but eb is connected to both sides
    ss = SequenceSet(seqs("a c", "e b", "e"), PAIR)
    assert len(_monomial_components(ss)) == 1


def test_components_empty_and_epsilon():
    assert _monomial_components(SequenceSet(frozenset(), PAIR)) == set()
    ss = SequenceSet(seqs("", "a"), PAIR)
    assert _monomial_components(ss) == _monomial_sets(ss, [seqs(""), seqs("a")])


def test_is_alr_set_examples():
    assert is_alr_set(SequenceSet(seqs("a c", "a d", "b e", "b f"), PAIR))
    assert not is_alr_set(SequenceSet(SHUFFLE_DEMO_SET, build_shuffle_demo().structure.infosets))
    assert is_alr_set(SequenceSet(seqs(""), PAIR))


def test_branches():
    infos = build_shuffle_demo().structure.infosets
    kernel, enc = encoder(infos)
    ms = enc(SHUFFLE_DEMO_SET)
    # one branch per action, in declaration order
    assert [len(kernel.branches(ms, k)) for k in range(3)] == [2, 2, 2]
    assert kernel.branches(enc(seqs("b a", "c abar")), 2) == [enc(seqs("b")), enc(seqs("c"))]
    # each branch is the quotient on its action plus the residual
    for k, info in enumerate(infos):
        acts = set(info.actions)
        residual = frozenset(s for s in SHUFFLE_DEMO_SET if acts.isdisjoint(s))
        for a, q in zip(info.actions, kernel.branches(ms, k)):
            quotient = frozenset(
                tuple(x for x in s if x != a) for s in SHUFFLE_DEMO_SET if a in s
            )
            assert q == enc(quotient | residual)


def test_quotient_by_action():
    kernel, enc = encoder(build_shuffle_demo().structure.infosets)
    ms = enc(SHUFFLE_DEMO_SET)
    # I3 = {a, abar} touches every sequence: the branches are the quotients
    assert kernel.branches(ms, 2)[0] == enc(seqs("b", "bbar", "c", "cbar"))
    # I1 = {b, bbar} misses the c side, which rides along as the residual
    c_side = seqs("c a", "c abar", "cbar a", "cbar abar")
    assert kernel.branches(ms, 0) == [enc(seqs("a", "abar") | c_side)] * 2
    assert kernel.branches(enc(seqs("a")), 2) == [enc(seqs("")), frozenset()]


def test_residual_without_infoset():
    # fixing L3 keeps lowerbound-2 as the residual; the quotients on a3 and
    # b3 add only epsilon, since every other quotient is a level-1/2 singleton
    lb3 = gen_lowerbound(3)
    lb2 = gen_lowerbound(2)
    kernel = lb3.universe
    l3 = next(k for k, i in enumerate(lb3.infosets) if i.id == "L3")
    lb2_eps = frozenset(lb3.with_sequences(lb2.sequences | seqs("")).monomials.values())
    assert kernel.branches(frozenset(lb3.monomials.values()), l3) == [lb2_eps, lb2_eps]
    # a covered set has an empty residual, and the empty set stays empty
    kernel, enc = encoder(PAIR)
    assert kernel.branches(enc(seqs("a c", "b d")), 0) == [enc(seqs("c")), enc(seqs("d"))]
    assert kernel.branches(frozenset(), 0) == [frozenset(), frozenset()]


def test_strongly_branching_basics():
    assert is_strongly_branching(SequenceSet(seqs(""), PAIR))
    assert is_strongly_branching(SequenceSet(seqs("a", "b"), PAIR))
    assert not is_strongly_branching(SequenceSet(seqs("a"), PAIR))
    assert not is_strongly_branching(SequenceSet(frozenset(), PAIR))
    assert not is_strongly_branching(SequenceSet(seqs("", "a"), PAIR))


def test_find_strongly_branching_subset():
    assert find_strongly_branching_subset(SequenceSet(seqs("", "b"), PAIR)).sequences == seqs("")
    whole = SequenceSet(seqs("a c", "a d", "b"), PAIR)
    assert find_strongly_branching_subset(whole).sequences == whole.sequences
    assert find_strongly_branching_subset(SequenceSet(seqs("a"), PAIR)) is None


def _leading_infoset(ss: SequenceSet, seqs_: frozenset):
    """The infoset whose actions start every sequence, if there is one."""
    if () in seqs_:
        return None
    leads = {info for info in ss.infosets for s in seqs_ if s[0] in info.actions}
    return leads.pop() if len(leads) == 1 else None


def _continuations(seqs_: frozenset, a: str) -> frozenset:
    return frozenset(s[1:] for s in seqs_ if s and s[0] == a)


def _alr_reference(ss: SequenceSet) -> bool:
    """A disconnected set qualifies componentwise; a connected one needs a
    leading infoset whose per-action continuations all qualify."""

    def rec(seqs_: frozenset) -> bool:
        if not seqs_ or seqs_ == seqs(""):
            return True
        comps = components_oracle(ss.with_sequences(seqs_))
        if len(comps) > 1:
            return all(rec(c) for c in comps)
        lead = _leading_infoset(ss, seqs_)
        return lead is not None and all(rec(_continuations(seqs_, a)) for a in lead.actions)

    return rec(ss.sequences)


def _strongly_branching_reference(ss: SequenceSet) -> bool:
    """{eps}, or a leading infoset whose every action continues into a
    strongly branching set."""

    def rec(seqs_: frozenset) -> bool:
        if seqs_ == seqs(""):
            return True
        lead = _leading_infoset(ss, seqs_) if seqs_ else None
        return lead is not None and all(
            _continuations(seqs_, a) and rec(_continuations(seqs_, a)) for a in lead.actions
        )

    return rec(ss.sequences)


def _strongly_branching_subset_reference(ss: SequenceSet):
    """{eps} if present, else the first infoset in declaration order whose
    every action continues into a set with a strongly branching subset."""

    def rec(seqs_: frozenset):
        if () in seqs_:
            return seqs("")
        if not seqs_:
            return None
        for info in ss.infosets:
            picked = set()
            for a in info.actions:
                sub = rec(_continuations(seqs_, a))
                if sub is None:
                    break
                picked.update((a,) + t for t in sub)
            else:
                return frozenset(picked)
        return None

    return rec(ss.sequences)


@given(sequence_sets())
@example(SequenceSet(seqs("a c", "c a"), PAIR))  # two groups over one pair of infosets
@example(SequenceSet(seqs("a c", "a d", "b"), PAIR))
@example(SequenceSet(seqs("", "a", "b e", "b f"), PAIR))
@example(SequenceSet(seqs("a", "b", "c", "d"), PAIR))  # two full branches: I1 wins
@example(SequenceSet(seqs("c", "a c"), PAIR))  # one history reaching I2 prefixes another
@example(SequenceSet(seqs("a e", "c e"), PAIR))  # they first diverge in two infosets
@settings(max_examples=300, deadline=None)
def test_order_reading_recursions_match_reference(ss):
    assert is_alr_set(ss) == _alr_reference(ss)
    assert is_strongly_branching(ss) == _strongly_branching_reference(ss)
    found = find_strongly_branching_subset(ss)
    want = _strongly_branching_subset_reference(ss)
    assert (None if found is None else found.sequences) == want


def test_sequence_set_rejects_repeated_infoset():
    base = SequenceSet(seqs("a c"), PAIR)
    bit = base.universe.action_bit
    assert [bit[x] for x in "abc"] == [1, 2, 4]
    # "b b" sums to c's bit, a valid one-action monomial; "a b" holds both
    # I1 actions; z is in no infoset.  Built directly or derived, each set
    # names its first invalid sequence.
    cases = {
        "b b": "sequence 'b b' repeats information set 'I1'",
        "a b": "sequence 'a b' repeats information set 'I1'",
        "a z": "sequence uses unknown action 'z'",
    }
    for word, message in cases.items():
        for build in (lambda s: SequenceSet(s, PAIR), base.with_sequences):
            with pytest.raises(GameError, match=f"^{re.escape(message)}$"):
                build(seqs(word))


def test_derived_sets_are_validated():
    # subsets share the parent's lookup tables and are still checked
    ss = SequenceSet(seqs("a c", "b e"), PAIR)
    assert ss.with_sequences(seqs("c a")).universe is ss.universe
    with pytest.raises(GameError, match="repeats information set 'I1'"):
        ss.with_sequences(seqs("a c", "a b"))
    with pytest.raises(GameError, match="unknown action 'z'"):
        ss.with_sequences(seqs("a z"))
    # the shared tables are not part of the value
    assert ss.with_sequences(ss.sequences) == SequenceSet(ss.sequences, PAIR)


def test_sequence_set_rejects_ambiguous_universe():
    # an action or an id that names two infosets would make the shared
    # universe ambiguous; the universe itself rejects it
    assert isinstance(SequenceSet(seqs("a c"), PAIR).universe, Monomials)
    twice = PAIR + (InformationSet("I4", MAX, ("a", "g")),)
    same_id = PAIR + (InformationSet("I1", MAX, ("g", "h")),)
    cases = [
        (twice, "action 'a' appears in both 'I1' and 'I4'"),
        (same_id, "duplicate information set id 'I1'"),
    ]
    for infosets, message in cases:
        with pytest.raises(GameError, match=message):
            SequenceSet(seqs("a c"), infosets)
        with pytest.raises(GameError, match=message):
            Monomials(infosets)


@given(sequence_sets())
@example(SequenceSet(seqs("", "c", "a", "e"), PAIR))
@example(SequenceSet(seqs("e", "c", "", "a e", "d"), PAIR))
@example(SequenceSet(seqs("x4", "y1 x2", "z0", "x3 y0"), FIVE))
@settings(max_examples=300, deadline=None)
def test_components_order_matches_sorted_buckets(ss):
    # the kernel's components, in no fixed order, are the oracle's buckets
    assert _monomial_components(ss) == _monomial_sets(ss, components_oracle(ss))


@given(sequence_sets())
@settings(max_examples=300, deadline=None)
def test_bitmask_lookups_match_definitions(ss):
    # a sequence's mask holds the first action bit of each infoset it touches
    kernel = ss.universe
    first = {a: kernel.action_bit[i.actions[0]] for i in ss.infosets for a in i.actions}
    masks = {s: kernel.infoset_mask(m) for s, m in ss.monomials.items()}
    assert masks == {s: sum(first[a] for a in s) for s in ss.sequences}
    # a sequence's monomial holds its action bits
    assert ss.monomials == {s: sum(kernel.action_bit[a] for a in s) for s in ss.sequences}
    used = {a for s in ss.sequences for a in s}
    touching = [
        info for info in ss.infosets
        if all(set(info.actions) & set(s) for s in ss.sequences)
    ]
    expected_cover = touching[0] if ss.sequences and touching else None
    assert covering_infoset(ss) == expected_cover
    assert ss.present_infosets() == [
        info for info in ss.infosets if any(a in used for a in info.actions)
    ]


@given(sequence_sets())
@settings(max_examples=300, deadline=None)
def test_sorted_sequences_follow_declaration_order(ss):
    # the certificate order: by (infoset position, action position) per action
    key = {a: (i, j) for i, info in enumerate(ss.infosets) for j, a in enumerate(info.actions)}
    assert ss.sorted_sequences() == sorted(ss.sequences, key=lambda s: [key[a] for a in s])


@given(sequence_sets())
@settings(max_examples=200, deadline=None)
def test_branch_outputs_are_valid_sets(ss):
    # every branch monomial is valid and divides a monomial of the set
    kernel = ss.universe
    ms = frozenset(ss.monomials.values())
    for k in range(len(ss.infosets)):
        for q in kernel.branches(ms, k):
            for m in q:
                kernel.infoset_mask(m)  # raises on an invalid monomial
                assert any(m & x == m for x in ms)


@given(sequence_sets())
@example(SequenceSet(seqs("", "c", "a e", "b"), PAIR))
@settings(max_examples=300, deadline=None)
def test_monomial_kernel_matches_tuple_steps(ss):
    # FIVE has three actions per infoset, so masks take two folds
    kernel = ss.universe
    ms = frozenset(ss.monomials.values())
    # a monomial's folded infoset mask is its sequence's table-sum mask
    table = kernel.infoset_bit
    masks = {s: kernel.infoset_mask(m) for s, m in ss.monomials.items()}
    assert masks == {s: sum(table[a] for a in s) for s in ss.sequences}
    cover = covering_infoset(ss)
    assert kernel.covering(ms) == (None if cover is None else ss.infosets.index(cover))
    assert [ss.infosets[k] for k in kernel.present(ms)] == ss.present_infosets()
    for k, info in enumerate(ss.infosets):
        want = [
            frozenset(ss.with_sequences(q).monomials.values())
            for _, q in tuple_branches(ss.sequences, info)
        ]
        assert kernel.branches(ms, k) == want


def test_monomial_kernel_checks_each_monomial():
    kernel = Monomials(PAIR)
    a, b, c, d = (kernel.action_bit[x] for x in "abcd")
    assert (a, b, c, d) == (1, 2, 4, 8)
    assert [kernel.infoset_bit[x] for x in "abcd"] == [a, a, c, c]
    # an infoset is marked by its lowest action bit
    assert kernel.infoset_mask(b | d) == a | c
    with pytest.raises(GameError, match="monomial 0x3 repeats an information set"):
        kernel.infoset_mask(a | b)
    with pytest.raises(GameError, match="monomial 0x41 has a bit outside the universe"):
        kernel.infoset_mask(a | 1 << 6)
    # the search steps check every monomial they read
    with pytest.raises(GameError, match="repeats an information set"):
        kernel.components(frozenset({c, a | b}))
    # infosets of 1 to 5 actions: every action folds onto its infoset's first
    mixed = tuple(
        InformationSet(f"M{k}", MAX, tuple(f"m{k}_{j}" for j in range(size)))
        for k, size in enumerate((1, 4, 2, 5, 3))
    )
    kernel = Monomials(mixed)
    first = {a: kernel.action_bit[info.actions[0]] for info in mixed for a in info.actions}
    for x, y in itertools.combinations(first, 2):
        m = kernel.action_bit[x] | kernel.action_bit[y]
        if first[x] == first[y]:
            with pytest.raises(GameError, match="repeats an information set"):
                kernel.infoset_mask(m)
        else:
            assert kernel.infoset_mask(m) == first[x] | first[y]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_components_partition_property(seed):
    rng = random.Random(seed)
    ss = random_realizable_set(rng)
    kernel = ss.universe
    ms = frozenset(ss.monomials.values())
    comps = kernel.components(ms)
    assert frozenset().union(*comps) == ms
    assert sum(map(len, comps)) == len(ms)
    # quotients never retain the quotiented infoset
    for k, info in enumerate(THREE_BINARY):
        block = sum(kernel.action_bit[a] for a in info.actions)
        for q in kernel.branches(ms, k):
            assert all(not m & block for m in q)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_structure_alr_iff_history_set_alr(seed):
    # recall classification agrees with the set-level test on histories
    game = gen_random(FamilyParams(family="random", seed=seed, depth=4, branching=2))
    recall = classify_recall(game.structure, MAX)
    assert recall is not RecallClass.ABSENTMINDED
    ss = extract_histories(game.structure)
    assert is_alr_set(ss) == recall.is_alr
