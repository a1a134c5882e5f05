from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recall_forge.model import (
    MAX,
    ChanceNode,
    Game,
    GameError,
    GameStructure,
    InformationSet,
    PlayerNode,
    RecallClass,
    SizeLimitError,
    classify_recall,
    history,
)
from recall_forge.generators import FamilyParams, gen_pennies, gen_random, gen_random_alr
from recall_forge.polynomials import payoff_polynomial
from recall_forge.seqsets import SequenceSet, extract_histories
from recall_forge.solver import (
    PureStrategy,
    expected_payoff,
    refine_alr,
    solve,
    solve_alr,
    solve_bruteforce,
)
from recall_forge.span import minimal_span, structure_from_sequences
from recall_forge.transform import transfer_payoffs

from conftest import build_shuffle_demo, build_span_demo, player_chain, seqs, strategy_point, TreeBuilder


def test_bruteforce_pennies_one():
    result = solve_bruteforce(gen_pennies("I", 3))
    assert result.value == Fraction(2, 3)
    # all four pure strategies, for the record: HH and TT win two die rolls
    game = gen_pennies("I", 3)
    payoffs = {
        (a, b): expected_payoff(game, PureStrategy({"A": a, "B": b}))
        for a in ("H_A", "T_A")
        for b in ("H_B", "T_B")
    }
    assert sorted(payoffs.values()) == [
        Fraction(1, 3),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(2, 3),
    ]
    assert payoffs[("H_A", "H_B")] == Fraction(2, 3)


def test_bruteforce_all_variants_match():
    for variant in ("I", "II", "III"):
        assert solve_bruteforce(gen_pennies(variant, 3)).value == Fraction(2, 3)


def test_bruteforce_single_leaf():
    b = TreeBuilder()
    game = b.game(b.leaf(Fraction(5, 7)), [])
    assert solve_bruteforce(game).value == Fraction(5, 7)


def test_bruteforce_guard(monkeypatch):
    monkeypatch.setenv("RECALL_FORGE_MAX_PURE", "2")
    with pytest.raises(SizeLimitError):
        solve_bruteforce(gen_pennies("I", 3))
    monkeypatch.setenv("RECALL_FORGE_MAX_PURE", "4")
    assert solve_bruteforce(gen_pennies("I", 3)).value == Fraction(2, 3)


def test_refine_pennies_one():
    structure = gen_pennies("I", 3).structure
    refined, back = refine_alr(structure)
    assert classify_recall(refined, MAX) is RecallClass.PFR
    # Alice's set survives, Bob's splits in two
    ids = [i.id for i in refined.infosets]
    assert ids == ["A", "B#0", "B#1"]
    assert back == {"A": "A", "B#0": "B", "B#1": "B"}


def test_refine_perfect_recall_is_identity(perfect_recall_demo):
    refined, back = refine_alr(perfect_recall_demo.structure)
    assert refined.infosets == perfect_recall_demo.structure.infosets
    assert back == {"I1": "I1", "I2": "I2", "I3": "I3"}


def test_refine_witness_structure():
    # the repaired shuffle_demo: the root set has one history, the two
    # chance-side sets split by the first move
    from conftest import SHUFFLE_DEMO_WITNESS, build_shuffle_demo

    witness = structure_from_sequences(
        SequenceSet(SHUFFLE_DEMO_WITNESS, build_shuffle_demo().structure.infosets)
    )
    refined, back = refine_alr(witness)
    by_original = {}
    for rid, oid in back.items():
        by_original.setdefault(oid, []).append(rid)
    assert len(by_original["I3"]) == 1
    assert len(by_original["I1"]) == 2
    assert len(by_original["I2"]) == 2
    assert classify_recall(refined, MAX) is RecallClass.PFR


def test_refine_rejects_non_alr(span_demo):
    with pytest.raises(GameError):
        refine_alr(span_demo.structure)


def test_solve_alr_pennies_one():
    result = solve_alr(gen_pennies("I", 3))
    assert result.value == Fraction(2, 3)
    assert result.method == "refinement"
    game = gen_pennies("I", 3)
    assert expected_payoff(game, result.strategy) == Fraction(2, 3)


def test_solve_alr_backward_induction_no_chance():
    # perfect-recall tree over {a,b} then {c,d}/{e,f}, payoffs 1,0,0,1
    from recall_forge.model import Game, InformationSet, history

    ss = SequenceSet(
        seqs("a c", "a d", "b e", "b f"),
        (
            InformationSet("I1", MAX, ("a", "b")),
            InformationSet("I2", MAX, ("c", "d")),
            InformationSet("I3", MAX, ("e", "f")),
        ),
    )
    structure = structure_from_sequences(ss)
    utility = {}
    for leaf in structure.leaves():
        h = history(structure, leaf)
        utility[leaf] = Fraction(1 if h in (("a", "c"), ("b", "f")) else 0)
    game = Game(structure=structure, chance={}, utility=utility)
    result = solve_alr(game)
    assert result.value == Fraction(1)
    assert result.strategy.choice["I1"] == "a"
    assert result.strategy.choice["I2"] == "c"


def test_solve_dispatch_and_span_route():
    for variant in ("II", "III"):
        game = gen_pennies(variant, 3)
        via_span = solve(game, method="span")
        assert via_span.value == Fraction(2, 3)
        assert via_span.method == "span-pipeline"
        auto = solve(game, method="auto")
        assert auto.value == Fraction(2, 3)
        assert expected_payoff(game, via_span.strategy) == Fraction(2, 3)


def test_solve_rejects_absentminded(absentminded_demo):
    with pytest.raises(GameError):
        solve(absentminded_demo)


def test_strategy_achieves_reported_value_via_polynomial():
    game = build_span_demo([Fraction(k) for k in (3, -1, 2, 0, 5, 1, -2, 4)])
    result = solve(game, method="span")
    poly = payoff_polynomial(game)
    assert poly.evaluate(strategy_point(game, result.strategy)) == result.value
    assert result.value == solve_bruteforce(game).value


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=80, deadline=None)
def test_solve_auto_matches_bruteforce(seed):
    game = gen_random(FamilyParams(family="random", seed=seed, depth=4, branching=2))
    auto = solve(game, method="auto")
    brute = solve_bruteforce(game)
    assert auto.value == brute.value
    assert expected_payoff(game, auto.strategy) == auto.value


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=80, deadline=None)
def test_solve_alr_matches_bruteforce_on_alr_games(seed):
    from hypothesis import assume

    game = gen_random_alr(FamilyParams(family="random", seed=seed, depth=4, branching=3))
    assert classify_recall(game.structure, MAX).is_alr
    count = 1
    for info in game.structure.infosets:
        count *= len(info.actions)
    assume(count <= 2**14)
    assert solve_alr(game).value == solve_bruteforce(game).value


def test_shuffle_demo_with_pennies_payoffs():
    # the shuffle demo instantiated as the pooled two-outcome pennies game:
    # the 2/3 branch pools an even and an odd die roll (payoff 1/2 however
    # the coins land), the 1/3 branch is a bare matching round
    half = Fraction(1, 2)
    game = build_shuffle_demo(
        z=[half, half, half, half, 1, 0, 0, 1],
        p1=Fraction(2, 3),
        p2=Fraction(1, 3),
    )
    for method in ("bruteforce", "auto", "span"):
        assert solve(game, method=method).value == Fraction(2, 3)


@pytest.mark.parametrize(
    "variant, n, method, structures",
    [("III", 8, "span-pipeline", 1), ("I", 3, "refinement", 1)],
)
def test_solve_validates_each_structure_once(monkeypatch, variant, n, method, structures):
    # both routes classify the source only, once; the span route builds
    # no span structure
    import recall_forge.model as model

    game = gen_pennies(variant, n)
    seen = []
    real = model.validate

    def counting(structure):
        seen.append(structure)
        return real(structure)

    monkeypatch.setattr(model, "validate", counting)
    assert solve(game).method == method
    assert len({id(s) for s in seen}) == len(seen) == structures


def _refined_pfr(game, player):
    # the perfect-recall DP that solved the refined game before the prefix DP
    s = game.structure
    leaf_weight = {}
    prefixes = {()}
    branching = {}
    act_info = {a: i for i in s.infosets for a in i.actions}
    for leaf in s.leaves():
        h = history(s, leaf, player)
        leaf_weight[h] = leaf_weight.get(h, Fraction(0)) + game.chance_weights[leaf] * game.utility[leaf]
        for k in range(1, len(h) + 1):
            prefixes.add(h[:k])
    for p in prefixes:
        if p:
            info = act_info[p[-1]]
            lst = branching.setdefault(p[:-1], [])
            if info not in lst:
                lst.append(info)
    index = {i.id: k for k, i in enumerate(s.infosets)}
    choice = {}

    def value(prefix):
        total = leaf_weight.get(prefix, Fraction(0))
        for info in sorted(branching.get(prefix, []), key=lambda i: index[i.id]):
            best_v = best_a = None
            for a in info.actions:
                nxt = prefix + (a,)
                if nxt not in prefixes:
                    continue
                v = value(nxt)
                if best_v is None or v > best_v:
                    best_v, best_a = v, a
            choice[info.id] = best_a
            total += best_v
        return total

    total = value(())
    for info in s.infosets:
        choice.setdefault(info.id, info.actions[0])
    return total, choice


def _refinement_route(game):
    """Value and choices of the A-loss-recall route that solved the game
    `refine_alr` builds and projected the choices of its reachable sets
    back; the reference for `solve_alr`."""
    player = (game.structure.players() or (MAX,))[0]
    refined, back = refine_alr(game.structure)
    refined_game = Game(structure=refined, chance=game.chance, utility=game.utility)
    value, refined_choice = _refined_pfr(refined_game, player)
    reachable = set()
    stack = [refined.root]
    while stack:
        node = refined.nodes[stack.pop()]
        if isinstance(node, ChanceNode):
            stack.extend(node.children)
        elif isinstance(node, PlayerNode):
            reachable.add(node.infoset)
            stack.extend(c for a, c in node.children if a == refined_choice[node.infoset])
    choice = {}
    for info in game.structure.infosets:
        live = [rid for rid in refined_choice if back[rid] == info.id and rid in reachable]
        assert len(live) <= 1
        if live:
            picked = refined_choice[live[0]]
            choice[info.id] = info.actions[refined.infoset_by_id[live[0]].actions.index(picked)]
        else:
            choice[info.id] = info.actions[0]
    return value, choice


def _span_target(game):
    return transfer_payoffs(game, minimal_span(extract_histories(game.structure))).game


def _pure_count(game):
    count = 1
    for info in game.structure.infosets:
        count *= len(info.actions)
    return count


ALR_SEEDS = 200  # per depth/branching pair
SPAN_SEEDS = 100


def _alr_route_cases():
    """Named A-loss-recall games: two without a player move, random ones,
    pennies I, and span-pipeline targets."""
    b = TreeBuilder()
    yield "single leaf", b.game(b.leaf(Fraction(5, 7)), [])
    b = TreeBuilder()
    root = b.chance_node([(Fraction(1, 3), b.leaf(2)), (Fraction(2, 3), b.leaf(-1))])
    yield "chance only", b.game(root, [])
    for depth, branching in ((3, 3), (4, 3), (5, 2), (6, 2)):
        for seed in range(ALR_SEEDS):
            params = FamilyParams(family="random", seed=seed, depth=depth, branching=branching)
            yield f"alr {depth}/{branching} seed {seed}", gen_random_alr(params)
    for n in range(1, 12):
        yield f"pennies I n={n}", gen_pennies("I", n)
    for seed in range(SPAN_SEEDS):
        game = gen_random(FamilyParams(family="random", seed=seed, depth=4, branching=3))
        if _pure_count(game) <= 2**12:
            yield f"span of random seed {seed}", _span_target(game)
    for n in (3, 6, 10):
        yield f"span of pennies III n={n}", _span_target(gen_pennies("III", n))


def test_solve_alr_matches_refinement_route():
    mismatches = []
    for name, game in _alr_route_cases():
        result = solve_alr(game)
        value, choice = _refinement_route(game)
        if (result.value, list(result.strategy.choice.items())) != (value, list(choice.items())):
            mismatches.append(name)
    assert mismatches == []


@pytest.mark.parametrize(
    "target", ["pennies I n=5", "span of pennies III n=3", "span route on pennies III n=8"]
)
def test_solve_alr_builds_no_game(monkeypatch, target):
    # once `minimal_span` returns, the span route builds nothing more
    import recall_forge.solver as solver

    run = solve_alr
    if target == "pennies I n=5":
        game = gen_pennies("I", 5)
    elif target == "span of pennies III n=3":
        game = _span_target(gen_pennies("III", 3))
    else:
        game, run = gen_pennies("III", 8), lambda g: solve(g, "span")
    built = []
    for cls in (GameStructure, InformationSet, Game):
        real = cls.__init__

        def counting(self, *args, _real=real, **kwargs):
            built.append(type(self).__name__)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    certificates = []

    def spanned(ss, _real=solver.minimal_span):
        certificates.append(_real(ss))
        built.clear()
        return certificates[-1]

    monkeypatch.setattr(solver, "minimal_span", spanned)
    run(game)
    assert built == []
    assert len(certificates) == (run is not solve_alr)


def _transfer_route(game):
    """Value and choices of the span route that rebuilt the span as a game
    with `transfer_payoffs`, solved that game with `solve_alr` and pulled
    the choices back by information set id; the reference for `solve`'s
    span route."""
    inner = solve_alr(_span_target(game))
    choice = {i.id: inner.strategy.choice.get(i.id, i.actions[0]) for i in game.structure.infosets}
    return inner.value, choice


def _span_route_cases():
    for variant in ("II", "III"):
        for n in range(2, 11):
            yield f"pennies {variant} n={n}", gen_pennies(variant, n)
    for seed in range(200):
        game = gen_random(FamilyParams(family="random", seed=seed, depth=4, branching=3))
        if _pure_count(game) <= 2**12:
            yield f"random seed {seed}", game


def test_solve_matches_transfer_route():
    # `auto` keeps the A-loss-recall route on inputs that have A-loss recall
    mismatches = []
    for name, game in _span_route_cases():
        span = _transfer_route(game)
        alr = classify_recall(game.structure, MAX).is_alr
        for method, (value, choice) in (("span", span), ("auto", _refinement_route(game) if alr else span)):
            result = solve(game, method)
            if (result.value, list(result.strategy.choice.items())) != (value, list(choice.items())):
                mismatches.append(f"{name} {method}")
    assert mismatches == []


def test_solve_deep_chain_without_recursion():
    # 2,000 levels: the prefix DP runs longest prefix first, without recursion
    result = solve(player_chain(2000))
    assert (result.value, result.method) == (2000, "refinement")
