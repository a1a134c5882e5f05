from __future__ import annotations

import gc
import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recall_forge.cli import cli_main
from recall_forge.docio import serialize_game
from recall_forge.model import (
    MAX,
    GameError,
    InformationSet,
    RecallClass,
    classify_recall,
)
from recall_forge.generators import FamilyParams, gen_lowerbound, gen_pennies, gen_random
from recall_forge.polynomials import monomial_sum, canonicalize
from recall_forge import seqsets
from recall_forge.seqsets import (
    SequenceSet,
    components,
    covering_infoset,
    extract_histories,
    find_strongly_branching_subset,
    is_alr_set,
    is_strongly_branching,
)
from recall_forge.shuffle import salr_witness
from recall_forge.solver import solve
from recall_forge.span import (
    NotAlrCandidateError,
    SpanStats,
    UnspannedSequenceError,
    _generator_sets,
    _minimal_span_set,
    canonical_full_span,
    minimal_span,
    realize_sequence_set,
    shuffle_depth,
    structure_from_sequences,
    verify_span,
)

from conftest import (
    SHUFFLE_DEMO_SET,
    SHUFFLE_DEMO_WITNESS,
    SPAN_DEMO_SET,
    THREE_BINARY,
    build_shuffle_demo,
    build_span_demo,
    random_realizable_set,
    seqs,
    tuple_branches,
    wide_span_set,
)


def span_demo_set() -> SequenceSet:
    return SequenceSet(SPAN_DEMO_SET, build_span_demo().structure.infosets)


def test_canonical_full_span_sizes():
    assert len(canonical_full_span(THREE_BINARY)) == 8
    one = canonical_full_span(THREE_BINARY[:1])
    assert one.sequences == seqs("a", "b")
    four = canonical_full_span(build_span_demo().structure.infosets)
    assert len(four) == 16
    assert is_alr_set(four)


def test_minimal_span_of_alr_set_is_itself(perfect_recall_demo):
    ss = extract_histories(perfect_recall_demo.structure)
    cert = minimal_span(ss)
    assert cert.span.sequences == ss.sequences
    assert all(cert.combinations[s] == frozenset({s}) for s in ss.sequences)


def test_minimal_span_demo_beats_layered_span():
    # the layered 16-leaf span is valid but not minimal: the recursion
    # finds a 12-sequence span for the same set
    ss = span_demo_set()
    cert = minimal_span(ss)
    assert len(cert.span) == 12
    assert is_alr_set(cert.span)
    wide = wide_span_set(ss.infosets)
    assert verify_span(ss, wide) is not None


def test_minimal_span_lowerbound_family():
    assert len(minimal_span(gen_lowerbound(2)).span) == 4
    assert len(minimal_span(gen_lowerbound(3)).span) == 8
    assert len(minimal_span(gen_lowerbound(8)).span) == 256


def test_lowerbound_shape():
    assert gen_lowerbound(1).sequences == seqs("a1", "b1")
    assert len(gen_lowerbound(2)) == 8
    for n in (2, 3, 4):
        ss = gen_lowerbound(n)
        assert len(ss) == 2 * n + 2 * n * (n - 1)
        assert len(components(ss)) == 1
        from recall_forge.seqsets import covering_infoset

        assert covering_infoset(ss) is None


def test_shuffle_depth_values():
    assert shuffle_depth(SequenceSet(SHUFFLE_DEMO_WITNESS, build_shuffle_demo().structure.infosets)) == 0
    assert shuffle_depth(span_demo_set()) == 2
    for n in range(1, 6):
        assert shuffle_depth(gen_lowerbound(n)) == n - 1


def test_shuffle_depth_zero_iff_salr():
    for seed in range(40):
        ss = random_realizable_set(random.Random(seed))
        assert (shuffle_depth(ss) == 0) == salr_witness(ss).has_salr


def test_shuffle_depth_zero_iff_salr_on_families():
    # depth 0 is decided by the covering infoset's branches, not by a
    # separate shuffle-witness search; both must agree on every family
    for variant in ("I", "II", "III"):
        for n in range(2, 9):
            ss = extract_histories(gen_pennies(variant, n).structure)
            assert (shuffle_depth(ss) == 0) == salr_witness(ss).has_salr
    for n in range(1, 7):
        ss = gen_lowerbound(n)
        assert (shuffle_depth(ss) == 0) == salr_witness(ss).has_salr
    # a covering infoset alone is not enough: X covers the set below, but
    # its x branch is the span demo, which has no shuffled A-loss recall
    infosets = (InformationSet("X", MAX, ("x", "y")),) + build_span_demo().structure.infosets
    covered = SequenceSet(frozenset({("x",) + s for s in SPAN_DEMO_SET} | {("y",)}), infosets)
    assert covering_infoset(covered).id == "X"
    assert not salr_witness(covered).has_salr
    assert shuffle_depth(covered) == 2


def test_pennies_iii_search_counters():
    # (subproblems, memo lookups) of the span search, which skips the
    # symmetric copies of an infoset, and the shuffle depth
    expected = {8: (33, 83), 14: (60, 176), 16: (69, 209), 20: (87, 278)}
    for n, counters in expected.items():
        ss = extract_histories(gen_pennies("III", n).structure)
        stats = SpanStats()
        minimal_span(ss, stats)
        assert (stats.subproblems, stats.lookups) == counters
        assert shuffle_depth(ss) == 2


def test_searches_use_the_sets_universe(monkeypatch):
    # the searches code monomials with the universe the set already carries
    ss = extract_histories(gen_pennies("III", 6).structure)
    built = []
    init = seqsets.Monomials.__init__

    def counting(self, infosets):
        built.append(infosets)
        init(self, infosets)

    monkeypatch.setattr(seqsets.Monomials, "__init__", counting)
    cert = minimal_span(ss)
    assert (len(cert.span), shuffle_depth(ss)) == (24, 2)
    assert built == []


def test_searches_leave_no_reference_cycles(tmp_path):
    # the searches' recursions and the document walks hold no reference to
    # themselves, so their memos, the sets' universes and the parsed nodes
    # go as soon as each call returns
    game = gen_pennies("III", 8)
    path = tmp_path / "game.json"
    path.write_text(serialize_game(game))
    # (command, exit code): pennies-III has no shuffled A-loss recall
    commands = (("span", 0), ("solve", 0), ("shuffle", 2))
    cli_main(["classify", str(path)], io.StringIO(), io.StringIO())  # builds the parser
    gc.collect()
    gc.disable()
    try:
        solve(game)
        shuffle_depth(extract_histories(game.structure))
        assert gc.collect() == 0
        for command, code in commands:
            assert cli_main([command, str(path)], io.StringIO(), io.StringIO()) == code
            assert gc.collect() == 0, command
    finally:
        gc.enable()


def _tuple_span_search(ss: SequenceSet, stats: SpanStats) -> frozenset:
    """The span search on tuples of actions, as it ran before the monomial
    kernel: every candidate is built in full and the first smallest wins."""
    memo: dict = {}

    def rec(seqs_: frozenset) -> frozenset:
        if () in seqs_ and len(seqs_) > 1:
            seqs_ = seqs_ - {()}
        if not seqs_ or seqs_ == frozenset({()}):
            return seqs_
        if seqs_ in memo:
            stats.lookups += 1
            return memo[seqs_]
        stats.subproblems += 1
        sub = ss.with_sequences(seqs_)
        comps = [c.sequences for c in components(sub)]
        if len(comps) > 1:
            result = frozenset().union(*(rec(c) for c in comps))
        else:
            cover = covering_infoset(sub)
            tried = [cover] if cover is not None else sub.present_infosets()
            candidates = [
                frozenset((a,) + t for a, q in tuple_branches(seqs_, info) for t in rec(q))
                for info in tried
            ]
            result = min(candidates, key=len)
        memo[seqs_] = result
        return result

    return rec(ss.sequences)


def _tuple_shuffle_depth(ss: SequenceSet) -> int:
    """`shuffle_depth` on tuples of actions, as it ran before the kernel."""
    memo: dict = {}

    def rec(seqs_: frozenset) -> int:
        if () in seqs_ and len(seqs_) > 1:
            seqs_ = seqs_ - {()}
        if not seqs_ or seqs_ == frozenset({()}):
            return 0
        if seqs_ in memo:
            return memo[seqs_]
        sub = ss.with_sequences(seqs_)
        comps = [c.sequences for c in components(sub)]
        if len(comps) > 1:
            ans = max(rec(c) for c in comps)
        else:
            cover = covering_infoset(sub)
            if cover is not None and all(rec(q) == 0 for _, q in tuple_branches(seqs_, cover)):
                ans = 0
            else:
                ans = 1 + min(
                    max(rec(q) for _, q in tuple_branches(seqs_, info))
                    for info in sub.present_infosets()
                )
        memo[seqs_] = ans
        return ans

    return rec(ss.sequences)


def _random_history_sets() -> list[SequenceSet]:
    """The history sets of random games seeded 1..60 with the acceptance
    suite's parameters, skipping absentminded games and those with more
    than 2**12 pure strategies (seed 59 has 8,957,952)."""
    out = []
    for seed in range(1, 61):
        game = gen_random(
            FamilyParams(family="random", seed=seed, depth=2 + seed % 5, branching=2 + seed % 2)
        )
        strategies = 1
        for info in game.structure.infosets:
            strategies *= len(info.actions)
        if strategies > 2**12:
            continue
        try:
            out.append(extract_histories(game.structure))
        except GameError:  # absentminded
            pass
    return out


def test_monomial_search_matches_tuple_search():
    """The monomial kernel, which skips symmetric infosets, gives the
    tuple search's span and shuffle depth in no more subproblems; the last
    set holds `b a` and `a b`, one monomial."""
    cases = [
        extract_histories(gen_pennies(variant, n).structure)
        for variant in ("I", "II", "III")
        for n in range(2, 11)
    ]
    cases += [gen_lowerbound(n) for n in range(1, 8)]
    cases += _random_history_sets()
    infosets = build_shuffle_demo().structure.infosets
    cases.append(SequenceSet(SHUFFLE_DEMO_SET | SHUFFLE_DEMO_WITNESS, infosets))
    assert len(cases) == 85  # 27 pennies, 7 lowerbound, 50 random, the demo union
    for ss in cases:
        got, want = SpanStats(), SpanStats()
        assert _minimal_span_set(ss, got) == _tuple_span_search(ss, want)
        assert got.subproblems <= want.subproblems
        assert shuffle_depth(ss) == _tuple_shuffle_depth(ss)


def test_symmetric_searches_grow_polynomially():
    # the skip leaves one of pennies-III's interchangeable infosets per
    # node, so subproblems grow linearly in n (32,747 at n = 24 without it)
    for n in (32, 48, 64):
        ss = extract_histories(gen_pennies("III", n).structure)
        stats = SpanStats()
        assert len(_minimal_span_set(ss, stats)) == 4 * n
        assert stats.subproblems <= 5 * n
        assert shuffle_depth(ss) == 2
    stats = SpanStats()
    assert len(_minimal_span_set(gen_lowerbound(14), stats)) == 2**14
    assert stats.subproblems == 14


def test_verify_span_layered_combinations():
    ss = span_demo_set()
    cert = verify_span(ss, wide_span_set(ss.infosets))
    assert cert is not None
    for s in ss.sorted_sequences():
        combo = cert.combinations[s]
        assert len(combo) == 2
        assert all(set(s) <= set(c) for c in combo)
    assert cert.combinations[("a", "cbar")] == seqs("cbar d a", "cbar dbar a")


def test_verify_span_identity():
    alr = SequenceSet(seqs("a c", "a d", "b e", "b f"), THREE_BINARY)
    cert = verify_span(alr, alr)
    assert cert is not None
    assert all(cert.combinations[s] == frozenset({s}) for s in alr.sequences)


def test_verify_span_rejects_non_alr_candidate():
    ss = span_demo_set()
    with pytest.raises(GameError):
        verify_span(ss, ss)


def test_verify_span_missing_action():
    ss = span_demo_set()
    # drop every dbar sequence from the layered span: still an A-loss-recall
    # set, but monomials containing dbar become unreachable
    partial = ss.with_sequences(
        s for s in wide_span_set(ss.infosets).sequences if "dbar" not in s
    )
    assert is_alr_set(partial)
    with pytest.raises(UnspannedSequenceError):
        verify_span(ss, partial)


def test_verify_span_foreign_action_is_a_negative_answer():
    # an original sequence holding an action the candidate's universe
    # lacks has no generator set; the sequences before it still get theirs
    ss = span_demo_set()
    foreign = InformationSet("Z", MAX, ("z", "zbar"))
    original = SequenceSet(ss.sequences | {("z",)}, ss.infosets + (foreign,))
    candidate = wide_span_set(ss.infosets)
    ordered = original.sorted_sequences()
    assert ordered.index(("z",)) == len(ordered) - 1 > 0
    with pytest.raises(UnspannedSequenceError) as info:
        verify_span(original, candidate)
    assert info.value.sequence == ("z",)
    assert str(info.value) == "no generator set for 'z'"
    combos, missing = _generator_sets(original, candidate)
    assert missing == ("z",)
    assert combos == verify_span(ss, candidate).combinations
    assert list(combos) == ordered[:-1]


def _first_branching_subset(seqs: frozenset, infosets, memo: dict):
    """A strongly branching subset by its definition, on tuples: {eps} if
    eps is a member, else the first infoset in declaration order all of
    whose actions continue into one.  Written apart from `seqsets`, whose
    recursion the verifier and `find_strongly_branching_subset` share."""
    if () in seqs:
        return frozenset({()})
    if not seqs:
        return None
    if seqs not in memo:
        memo[seqs] = None
        for info in infosets:
            picked = set()
            for a in info.actions:
                sub = _first_branching_subset(
                    frozenset(s[1:] for s in seqs if s[0] == a), infosets, memo
                )
                if sub is None:
                    break
                picked |= {(a,) + t for t in sub}
            else:
                memo[seqs] = frozenset(picked)
                break
    return memo[seqs]


def _tuple_generator_sets(original: SequenceSet, candidate: SequenceSet):
    """`span._generator_sets` as it ran before it moved to the candidate's
    monomials: a subset test per (original, candidate) pair, and one
    quotient `SequenceSet` per original sequence."""
    if not is_alr_set(candidate):
        raise NotAlrCandidateError("candidate is not an A-loss-recall set")
    combos = {}
    memo: dict = {}
    ordered = [(cand, frozenset(cand)) for cand in candidate.sorted_sequences()]
    for s in original.sorted_sequences():
        needed = set(s)
        quot_source = {}
        for cand, acts in ordered:
            if needed <= acts:
                q = tuple(a for a in cand if a not in needed)
                quot_source.setdefault(q, cand)
        quotients = candidate.with_sequences(quot_source.keys())
        sb = _first_branching_subset(quotients.sequences, candidate.infosets, memo)
        public = find_strongly_branching_subset(quotients)
        assert sb == (None if public is None else public.sequences)
        if sb is None:
            return combos, s
        combos[s] = frozenset(quot_source[q] for q in sb)
    return combos, None


def test_generator_sets_match_tuple_scan():
    """The monomial verifier picks the tuple scan's generator sets and
    names the same first unspanned sequence: on own spans, on spans with
    one sequence dropped, on cross-game pairs (foreign actions included)
    and on candidates without A-loss recall."""
    sets = [gen_lowerbound(n) for n in range(1, 8)]
    sets += [
        extract_histories(gen_pennies(variant, n).structure)
        for variant in ("I", "II", "III")
        for n in range(2, 9)
    ]
    sets += _random_history_sets()
    spans = [ss.with_sequences(_minimal_span_set(ss)) for ss in sets]
    rng = random.Random(15)
    pairs = list(zip(sets, spans))
    for ss, span in zip(sets, spans):
        dropped = span.sequences - {rng.choice(span.sorted_sequences())}
        pairs.append((ss, span.with_sequences(dropped)))
    pairs += [(rng.choice(sets), rng.choice(spans)) for _ in range(800)]
    pairs += [(ss, ss) for ss in sets if not is_alr_set(ss)]
    outcomes = {"spanned": 0, "unspanned": 0, "not alr": 0, "foreign": 0}
    for original, candidate in pairs:
        try:
            want = _tuple_generator_sets(original, candidate)
        except NotAlrCandidateError:
            with pytest.raises(NotAlrCandidateError):
                verify_span(original, candidate)
            outcomes["not alr"] += 1
            continue
        assert _generator_sets(original, candidate) == want
        # each monomial of an A-loss-recall set is one sequence, so two
        # supersequences of s never leave the same quotient
        assert len(set(candidate.monomials.values())) == len(candidate)
        outcomes["spanned" if want[1] is None else "unspanned"] += 1
        known = candidate.universe.action_bit
        outcomes["foreign"] += any(a not in known for s in original.sequences for a in s)
    assert outcomes == {"spanned": 124, "unspanned": 832, "not alr": 27, "foreign": 638}


def test_verify_span_builds_no_sequence_set(monkeypatch):
    # the verifier runs on the candidate's monomials and plain frozensets
    # of quotients: no quotient set is built or validated
    ss = gen_lowerbound(6)
    span = ss.with_sequences(_minimal_span_set(ss))
    built = []
    init = SequenceSet.__post_init__

    def counting(self):
        built.append(len(self.sequences))
        init(self)

    monkeypatch.setattr(SequenceSet, "__post_init__", counting)
    cert = verify_span(ss, span)
    assert cert is not None and len(cert.combinations) == len(ss)
    assert built == []


def test_structure_from_sequences_round_trip():
    witness = SequenceSet(SHUFFLE_DEMO_WITNESS, build_shuffle_demo().structure.infosets)
    st_ = structure_from_sequences(witness)
    assert classify_recall(st_, MAX) in (RecallClass.PFR, RecallClass.ALR_NOT_PFR)
    assert extract_histories(st_).sequences == witness.sequences
    # shape: player root over {a, abar}, chance just below
    from recall_forge.model import ChanceNode, PlayerNode

    root = st_.nodes[st_.root]
    assert isinstance(root, PlayerNode) and root.infoset == "I3"
    assert all(isinstance(st_.nodes[c], ChanceNode) for _, c in root.children)


def test_structure_from_sequences_single_infoset():
    one = SequenceSet(seqs("a", "b"), THREE_BINARY[:1])
    st_ = structure_from_sequences(one)
    assert len(st_.leaves()) == 2


def test_structure_from_sequences_rejects_non_alr():
    with pytest.raises(GameError):
        structure_from_sequences(span_demo_set())


def test_structure_from_layered_span_shape():
    ss = span_demo_set()
    st_ = structure_from_sequences(wide_span_set(ss.infosets))
    from recall_forge.model import ChanceNode, PlayerNode

    root = st_.nodes[st_.root]
    assert isinstance(root, PlayerNode) and root.infoset == "I3"
    second = st_.nodes[root.children[0][1]]
    assert isinstance(second, PlayerNode) and second.infoset == "I4"
    third = st_.nodes[second.children[0][1]]
    assert isinstance(third, ChanceNode)
    assert len(st_.leaves()) == 16
    assert extract_histories(st_).sequences == wide_span_set(ss.infosets).sequences


def test_realize_sequence_set_rejections():
    with pytest.raises(GameError, match="cannot realize an empty sequence set"):
        realize_sequence_set(SequenceSet(frozenset(), THREE_BINARY))
    with pytest.raises(
        GameError,
        match=r"information set 'I1' is entered but actions \['b'\] never continue",
    ):
        realize_sequence_set(SequenceSet(seqs("a c", "a d"), THREE_BINARY))


def test_realize_sequence_set_node_table():
    """Preorder ids; an ending sequence and each first infoset in
    declaration order hang under one chance node."""
    from recall_forge.model import ChanceNode, Leaf, PlayerNode

    st_ = realize_sequence_set(SequenceSet(seqs("", "a", "b"), THREE_BINARY))
    assert (st_.root, [i.id for i in st_.infosets]) == (0, ["I1"])
    assert st_.nodes == {
        0: ChanceNode(children=(1, 2)),
        1: Leaf(),
        2: PlayerNode(infoset="I1", children=(("a", 3), ("b", 4))),
        3: Leaf(),
        4: Leaf(),
    }
    st_ = realize_sequence_set(SequenceSet(seqs("a c", "a d", "b", "c", "d"), THREE_BINARY))
    assert (st_.root, [i.id for i in st_.infosets]) == (0, ["I1", "I2"])
    assert st_.nodes == {
        0: ChanceNode(children=(1, 6)),
        1: PlayerNode(infoset="I1", children=(("a", 2), ("b", 5))),
        2: PlayerNode(infoset="I2", children=(("c", 3), ("d", 4))),
        3: Leaf(),
        4: Leaf(),
        5: Leaf(),
        6: PlayerNode(infoset="I2", children=(("c", 7), ("d", 8))),
        7: Leaf(),
        8: Leaf(),
    }


def test_minimality_oracle_examples(minimality_oracle):
    alr = SequenceSet(seqs("a c", "a d", "b e", "b f"), THREE_BINARY)
    assert minimality_oracle(alr) == 4
    assert minimality_oracle(gen_lowerbound(2)) == 4
    single = SequenceSet(seqs("a c"), THREE_BINARY)
    assert minimality_oracle(single) == 1
    with pytest.raises(GameError):
        minimality_oracle(gen_lowerbound(4))


def test_oracle_enumeration_matches_definition():
    # over two binary infosets, compare against filtering all subsets
    import itertools
    from recall_forge.oracles import _all_alr_sets

    two = THREE_BINARY[:2]
    words = [(x,) for x in "abcd"] + [
        (x, y) for x in "ab" for y in "cd"
    ] + [(y, x) for x in "ab" for y in "cd"]
    brute = set()
    for k in range(1, 5):
        for combo in itertools.combinations(words, k):
            if is_alr_set(SequenceSet(frozenset(combo), two)):
                brute.add(frozenset(combo))
    assert set(_all_alr_sets(two, 4)) == brute


def test_minimal_span_is_componentwise_additive():
    for seed in range(30):
        drawn = random_realizable_set(random.Random(seed))
        ss = drawn.with_sequences(s for s in drawn.sequences if s)  # spans never need eps
        if not ss.sequences:
            continue
        comps = components(ss)
        total = sum(len(minimal_span(c).span) for c in comps)
        assert len(minimal_span(ss).span) == total


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_minimal_span_certificate_and_minimality(minimality_oracle, seed):
    rng = random.Random(seed)
    ss = random_realizable_set(rng)
    cert = minimal_span(ss)  # raises if self-verification fails
    assert is_alr_set(cert.span)
    assert len(cert.span) == minimality_oracle(ss)
    # strongly-branching invariant of certificate combinations
    for s, combo in cert.combinations.items():
        quotients = frozenset(tuple(a for a in c if a not in set(s)) for c in combo)
        assert is_strongly_branching(ss.with_sequences(quotients))


def test_sd_bounded_recursion_count():
    # with depth-two recursion the subproblem count stays polynomial;
    # n = 2 pools both die outcomes into one set, so the team has perfect
    # recall there and the depth only reaches 2 from n = 3 on
    for n in range(2, 9):
        ss = extract_histories(gen_pennies("III", n).structure)
        stats = SpanStats()
        minimal_span(ss, stats)
        assert shuffle_depth(ss) == (2 if n >= 3 else 0)
        assert stats.subproblems <= 4 * len(ss) ** 3


def test_strongly_branching_iff_sum_collapses_to_one():
    rng = random.Random(5)
    from recall_forge.oracles import _all_alr_sets

    family = sorted(_all_alr_sets(THREE_BINARY, 8), key=sorted)
    picked = rng.sample(family, 120)
    picked.extend(random_realizable_set(random.Random(s)).sequences for s in range(40))
    checked = 0
    for seqs_ in picked:
        ss = SequenceSet(seqs_, THREE_BINARY)
        if not is_alr_set(ss):
            continue
        checked += 1
        poly = canonicalize(monomial_sum((frozenset(s) for s in seqs_), THREE_BINARY))
        assert is_strongly_branching(ss) == poly.is_constant(Fraction(1))
    assert checked >= 120


def _sd_oracle(ss: SequenceSet) -> int:
    """Definitional shuffle depth, with the permutation oracle deciding
    the base case; only usable on tiny sets."""
    from recall_forge.oracles import salr_bruteforce_oracle

    seqs_ = ss.sequences
    if () in seqs_ and len(seqs_) > 1:
        seqs_ = seqs_ - {()}
    if not seqs_ or seqs_ == frozenset({()}):
        return 0
    sub = ss.with_sequences(seqs_)
    comps = components(sub)
    if len(comps) > 1:
        return max(_sd_oracle(c) for c in comps)
    if salr_bruteforce_oracle(sub):
        return 0
    best = None
    for info in sub.present_infosets():
        worst = 0
        for _, nxt in tuple_branches(seqs_, info):
            worst = max(worst, _sd_oracle(sub.with_sequences(nxt)))
        if best is None or worst < best:
            best = worst
    return 1 + best


def test_shuffle_depth_against_definitional_oracle():
    for seed in range(40):
        ss = random_realizable_set(random.Random(seed), max_size=6)
        assert shuffle_depth(ss) == _sd_oracle(ss)


def test_full_span_always_verifies():
    # the one-level-per-infoset span exists for every drawn set
    for seed in range(40):
        ss = random_realizable_set(random.Random(seed))
        present = tuple(ss.present_infosets())
        if not present:
            continue
        full = ss.with_sequences(canonical_full_span(present).sequences)
        cert = verify_span(ss, full)
        assert cert is not None
        assert len(minimal_span(ss).span) <= len(full)


def _premise_corpus():
    yield from (gen_lowerbound(n) for n in range(1, 8))
    for variant in ("I", "II", "III"):
        yield from (extract_histories(gen_pennies(variant, n).structure) for n in range(2, 9))
    for seed in range(1, 300):
        game = gen_random(FamilyParams(family="random", seed=seed, depth=4, branching=3))
        strategies = 1
        for info in game.structure.infosets:
            strategies *= len(info.actions)
        if strategies <= 2**12:
            yield extract_histories(game.structure)


def test_span_quotient_sets_have_alr():
    # the premise of a certificate check on monomials: for each original
    # sequence s, the span sequences holding s, with s's actions removed,
    # form an A-loss-recall set
    sets = quotients = 0
    for ss in _premise_corpus():
        span = minimal_span(ss).span
        for s in ss.sequences:
            acts = set(s)
            quotient = span.with_sequences(
                tuple(a for a in c if a not in acts) for c in span.sequences if acts <= set(c)
            )
            assert is_alr_set(quotient), (ss.sorted_sequences()[:3], s)
            quotients += 1
        sets += 1
    assert (sets, quotients) == (291, 4405)
