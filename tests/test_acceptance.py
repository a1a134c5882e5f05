"""Acceptance suite: one test per shipped guarantee, strictest settings.

Each test prints a single PASS/FAIL line (visible with -s or in captured
output) and then asserts.  Everything is exact rational arithmetic; there
are no tolerances anywhere.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from recall_forge.model import (
    MAX,
    MIN,
    RecallClass,
    classify_recall,
)
from recall_forge.generators import (
    FamilyParams,
    gen_lowerbound,
    gen_pennies,
    gen_random,
    gen_random_alr,
)
from recall_forge.polynomials import (
    canonicalize,
    leaf_monomials,
    monomial_sum,
    payoff_polynomial,
    poly_equal_under_constraints,
)
from recall_forge.seqsets import (
    SequenceSet,
    extract_histories,
    is_alr_set,
    is_strongly_branching,
)
from recall_forge.oracles import salr_bruteforce_oracle
from recall_forge.shuffle import salr_witness
from recall_forge.span import (
    UnspannedSequenceError,
    minimal_span,
    shuffle_depth,
    structure_from_sequences,
    verify_span,
)
from recall_forge.solver import solve, solve_alr, solve_bruteforce
from recall_forge.transform import compose_two_player, transfer_payoffs

from conftest import (
    SHUFFLE_DEMO_SET,
    SHUFFLE_DEMO_WITNESS,
    SPAN_DEMO_SET,
    THREE_BINARY,
    build_shuffle_demo,
    build_span_demo,
    build_two_player_demo,
    random_realizable_set,
)


def _report(number: int, title: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {title}")


def _check(number: int, title: str, failures: list[str]) -> None:
    _report(number, title, not failures)
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _strategy_count(game) -> int:
    count = 1
    for info in game.structure.infosets:
        count *= len(info.actions)
    return count


def test_c01_pennies_values():
    failures = []
    for variant in ("I", "II", "III"):
        for method in ("bruteforce", "auto"):
            start = time.perf_counter()
            value = solve(gen_pennies(variant, 3), method=method).value
            elapsed = time.perf_counter() - start
            if value != Fraction(2, 3):
                failures.append(f"variant {variant} {method}: {value}")
            if elapsed >= 1.0:
                failures.append(f"variant {variant} {method}: {elapsed:.2f}s")
    _check(1, "pennies values are exactly 2/3", failures)


def _member_sets(structure) -> set[frozenset]:
    return {frozenset(structure.members(info.id)) for info in structure.infosets}


def test_c02_classification_ladder():
    # From n = 3 on the variants form the ladder: I has A-loss recall, II
    # does not but shuffles into it, III does not shuffle and has depth 2.
    # At n = 2 Alice's pooled set {0, 1} covers the whole die, so variant II
    # is variant I up to renaming and variant III has perfect recall: the
    # set is its own shuffle witness and its depth is 0.
    failures = []
    for n in range(2, 7):
        ladder = n >= 3
        first = gen_pennies("I", n)
        one = classify_recall(first.structure, MAX)
        if one is not RecallClass.ALR_NOT_PFR:
            failures.append(f"n={n} variant I: {one.name}")
        two = gen_pennies("II", n)
        got = classify_recall(two.structure, MAX)
        if ladder:
            if got is not RecallClass.NAM_NOT_ALR:
                failures.append(f"n={n} variant II: {got.name}")
        else:
            if got is not RecallClass.ALR_NOT_PFR:
                failures.append(f"n={n} variant II: {got.name}")
            if _member_sets(two.structure) != _member_sets(first.structure):
                failures.append(f"n={n} variant II: information sets differ from variant I")
        if not salr_witness(extract_histories(two.structure)).has_salr:
            failures.append(f"n={n} variant II: no shuffle witness")
        third = gen_pennies("III", n)
        three = extract_histories(third.structure)
        if ladder:
            if salr_witness(three).has_salr:
                failures.append(f"n={n} variant III: unexpectedly shuffleable")
            depth = shuffle_depth(three)
            if depth != 2:
                failures.append(f"n={n} variant III: depth {depth}")
        else:
            got = classify_recall(third.structure, MAX)
            if got is not RecallClass.PFR:
                failures.append(f"n={n} variant III: {got.name}")
            if not salr_witness(three).has_salr:
                failures.append(f"n={n} variant III: no shuffle witness")
            depth = shuffle_depth(three)
            if depth != 0:
                failures.append(f"n={n} variant III: depth {depth}")
    _check(2, "classification ladder for n in 3..6, degenerate n = 2", failures)


def test_c03_shuffle_worked_example():
    failures = []
    demo = build_shuffle_demo()
    ss = extract_histories(demo.structure)
    assert ss.sequences == SHUFFLE_DEMO_SET
    res = salr_witness(ss)
    if not res.has_salr:
        failures.append("no witness found")
    elif res.witness.sequences != SHUFFLE_DEMO_WITNESS:
        failures.append(f"wrong witness: {sorted(res.witness.sequences)}")
    else:
        rebuilt = structure_from_sequences(res.witness)
        if leaf_monomials(rebuilt) != leaf_monomials(demo.structure):
            failures.append("leaf monomials changed")
    _check(3, "eight-sequence shuffle witness, monomials preserved", failures)


def test_c04_negative_shuffle_with_oracle():
    failures = []
    ss = SequenceSet(SPAN_DEMO_SET, build_span_demo().structure.infosets)
    algo = salr_witness(ss).has_salr
    oracle = salr_bruteforce_oracle(ss)
    if algo:
        failures.append("algorithm claims a witness exists")
    if oracle:
        failures.append("oracle claims a witness exists")
    _check(4, "span demo has no shuffle witness (algorithm and oracle)", failures)


def test_c05_lowerbound_growth():
    failures = []
    for n in range(1, 11):
        start = time.perf_counter()
        cert = minimal_span(gen_lowerbound(n))
        elapsed = time.perf_counter() - start
        if len(cert.span) != 2**n:
            failures.append(f"n={n}: {len(cert.span)} != {2 ** n}")
        if n == 10 and elapsed >= 30.0:
            failures.append(f"n=10 took {elapsed:.1f}s")
    _check(5, "minimal span of the hard family doubles per level", failures)


def test_c06_span_certificates_on_random_games():
    failures = []
    done = 0
    seed = 0
    while done < 500:
        seed += 1
        game = gen_random(
            FamilyParams(
                family="random",
                seed=seed,
                depth=2 + seed % 5,
                branching=2 + seed % 2,
            )
        )
        if _strategy_count(game) > 2**12 or len(game.structure.leaves()) > 120:
            continue
        done += 1
        ss = extract_histories(game.structure)
        cert = minimal_span(ss)
        try:
            verify_span(ss, cert.span)
        except UnspannedSequenceError:
            failures.append(f"seed {seed}: certificate rejected")
            continue
        out = transfer_payoffs(game, cert)
        if not poly_equal_under_constraints(
            payoff_polynomial(game), payoff_polynomial(out.game)
        ):
            failures.append(f"seed {seed}: payoff polynomial drifted")
        if solve(game, method="span").value != solve_bruteforce(game).value:
            failures.append(f"seed {seed}: span pipeline value off")
    _check(6, f"span certificates sound on {done} random games", failures)


def test_c07_minimality_micro(minimality_oracle):
    failures = []
    rng = random.Random(20240)
    for case in range(200):
        ss = random_realizable_set(rng)
        algo = len(minimal_span(ss).span)
        oracle = minimality_oracle(ss)
        if algo != oracle:
            failures.append(f"case {case}: algorithm {algo} vs oracle {oracle}")
    _check(7, "minimal-span size matches exhaustive search on 200 sets", failures)


def test_c08_structure_set_equivalence():
    failures = []
    for seed in range(500):
        game = gen_random(
            FamilyParams(family="random", seed=seed, depth=2 + seed % 4, branching=2 + seed % 2)
        )
        recall = classify_recall(game.structure, MAX)
        if recall is RecallClass.ABSENTMINDED:
            failures.append(f"seed {seed}: absentminded output")
            continue
        if is_alr_set(extract_histories(game.structure)) != recall.is_alr:
            failures.append(f"seed {seed}: set test disagrees with {recall.name}")
    _check(8, "recall class matches the history-set test on 500 structures", failures)


def test_c09_strongly_branching_iff_unit_sum():
    failures = []
    from recall_forge.oracles import _all_alr_sets

    family = sorted(_all_alr_sets(THREE_BINARY, 8), key=sorted)
    rng = random.Random(7)
    cases = [SequenceSet(s, THREE_BINARY) for s in rng.sample(family, 160)]
    for seed in range(100):
        drawn = random_realizable_set(random.Random(seed))
        if is_alr_set(drawn):
            cases.append(drawn)
    cases = cases[:200] if len(cases) >= 200 else cases
    assert len(cases) == 200
    for k, ss in enumerate(cases):
        branching = is_strongly_branching(ss)
        total = canonicalize(monomial_sum((frozenset(s) for s in ss.sequences), ss.infosets))
        collapses = total.is_constant(Fraction(1))
        if branching != collapses:
            failures.append(f"case {k}: branching={branching} collapse={collapses}")
    _check(9, "strongly branching iff the monomial sum collapses to 1", failures)


def test_c10_alr_solver_equivalence():
    failures = []
    done = 0
    seed = 0
    while done < 500:
        seed += 1
        game = gen_random_alr(
            FamilyParams(family="random", seed=seed, depth=2 + seed % 3, branching=2 + seed % 2)
        )
        if _strategy_count(game) > 2**12:
            continue
        done += 1
        if not classify_recall(game.structure, MAX).is_alr:
            failures.append(f"seed {seed}: generator broke A-loss recall")
            continue
        if solve_alr(game).value != solve_bruteforce(game).value:
            failures.append(f"seed {seed}: refinement value off")
    _check(10, f"refinement solver matches brute force on {done} games", failures)


def test_c11_two_player_composition():
    failures = []

    # the worked instance: doubled payoffs land on the generating leaves
    game = build_two_player_demo([Fraction(i) for i in range(1, 9)])
    cert_max = minimal_span(extract_histories(game.structure, MAX))
    cert_min = minimal_span(extract_histories(game.structure, MIN))
    out = compose_two_player(game, cert_max, cert_min)
    leaves = out.game.structure.leaves()
    nonzero = sorted(u for u in out.game.utility.values() if u != 0)
    if nonzero != [Fraction(2 * i) for i in range(1, 9)]:
        failures.append(f"worked instance payoffs: {nonzero}")
    if len(leaves) != len(cert_max.span) * len(cert_min.span):
        failures.append("worked instance leaf count")

    done = 0
    seed = 0
    while done < 100:
        seed += 1
        game = gen_random(
            FamilyParams(
                family="random", seed=seed, depth=2 + seed % 4, branching=2, players=2
            )
        )
        if set(game.structure.players()) != {MAX, MIN}:
            continue
        if len(game.structure.leaves()) > 80:
            continue
        done += 1
        cert_max = minimal_span(extract_histories(game.structure, MAX))
        cert_min = minimal_span(extract_histories(game.structure, MIN))
        out = compose_two_player(game, cert_max, cert_min)
        if len(out.game.structure.leaves()) != len(cert_max.span) * len(cert_min.span):
            failures.append(f"seed {seed}: leaf count")
        for player in (MAX, MIN):
            if not classify_recall(out.game.structure, player).is_alr:
                failures.append(f"seed {seed}: {player} not A-loss recall")
        if not poly_equal_under_constraints(
            payoff_polynomial(game), payoff_polynomial(out.game)
        ):
            failures.append(f"seed {seed}: payoff polynomial drifted")
    _check(11, f"two-player composition correct on {done} games", failures)


def test_c12_quadratic_span_growth():
    failures = []
    for n in range(2, 9):
        game = gen_pennies("III", n)
        size = len(game.structure.leaves())
        span = len(minimal_span(extract_histories(game.structure)).span)
        if span > 4 * size * size:
            failures.append(f"n={n}: span {span} > 4*{size}^2")
    _check(12, "pennies-III span growth stays quadratic", failures)
