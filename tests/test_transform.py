from __future__ import annotations

import random
from fractions import Fraction

import pytest

from recall_forge.docio import serialize_game, structure_as_game
from recall_forge.model import (
    MAX,
    MIN,
    ChanceNode,
    Game,
    GameError,
    GameStructure,
    Leaf,
    PlayerNode,
    RecallClass,
    classify_recall,
    history,
)
from recall_forge.generators import FamilyParams, gen_lowerbound, gen_pennies, gen_random
from recall_forge.polynomials import payoff_polynomial, poly_equal_under_constraints
from recall_forge.seqsets import extract_histories
from recall_forge.span import (
    minimal_span,
    realize_sequence_set,
    structure_from_sequences,
    verify_span,
)
from recall_forge.transform import (
    compose_two_player,
    sequence_weights,
    transfer_payoffs,
    uniform_chance,
)

from conftest import build_span_demo, build_two_player_demo, wide_span_set


def _doc_bits(q: Fraction) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


def test_transfer_reproduces_worked_payoffs():
    # unit payoff on the a-c leaf, half/half chance: both layered-span
    # leaves that generate that monomial receive 2 * (1/2) * 1 = 1
    z = [Fraction(1)] + [Fraction(0)] * 7
    game = build_span_demo(z)
    ss = extract_histories(game.structure)
    cert = verify_span(ss, wide_span_set(ss.infosets))
    out = transfer_payoffs(game, cert)
    nonzero = {
        history(out.game.structure, leaf): out.game.utility[leaf]
        for leaf in out.game.structure.leaves()
        if out.game.utility[leaf] != 0
    }
    assert nonzero == {
        ("c", "d", "a"): Fraction(1),
        ("c", "dbar", "a"): Fraction(1),
    }
    assert poly_equal_under_constraints(
        payoff_polynomial(game), payoff_polynomial(out.game)
    )


def test_transfer_identity_certificate(perfect_recall_demo):
    game = perfect_recall_demo
    ss = extract_histories(game.structure)
    cert = minimal_span(ss)
    assert cert.span.sequences == ss.sequences
    out = transfer_payoffs(game, cert)
    assert poly_equal_under_constraints(
        payoff_polynomial(game), payoff_polynomial(out.game)
    )


def test_transfer_pennies_three():
    game = gen_pennies("III", 3)
    cert = minimal_span(extract_histories(game.structure))
    out = transfer_payoffs(game, cert)
    assert poly_equal_under_constraints(
        payoff_polynomial(game), payoff_polynomial(out.game)
    )
    assert classify_recall(out.game.structure, MAX).is_alr


def test_transfer_traces_duplicate_histories():
    # pennies I: four target leaves, each collecting three source leaves
    game = gen_pennies("I", 3)
    cert = minimal_span(extract_histories(game.structure))
    out = transfer_payoffs(game, cert)
    s = game.structure
    target = out.game.structure
    assert len(target.leaves()) == 4
    for leaf in target.leaves():
        seq = target.histories[leaf]
        sources = [src for src in s.leaves() if seq in cert.combinations[s.histories[src]]]
        assert len(sources) == 3
        expected = sum(game.chance_weights[src] * game.utility[src] for src in sources)
        assert out.game.utility[leaf] == expected / out.game.chance_weights[leaf]


def test_transfer_rejects_mismatched_certificate(perfect_recall_demo, span_demo):
    cert = minimal_span(extract_histories(span_demo.structure))
    with pytest.raises(GameError):
        transfer_payoffs(perfect_recall_demo, cert)


def test_transfer_payoff_bit_growth_is_logarithmic():
    # transferred payoffs: chance-weighted sums divided by a uniform
    # weight; their size stays within source size plus log of leaf counts
    for seed in range(25):
        game = gen_random(FamilyParams(family="random", seed=seed, depth=4, branching=3))
        source_bits = max(
            (
                _doc_bits(game.utility[leaf]) + _doc_bits(game.chance_weights[leaf])
                for leaf in game.structure.leaves()
            ),
            default=2,
        )
        cert = minimal_span(extract_histories(game.structure))
        out = transfer_payoffs(game, cert)
        n_src = len(game.structure.leaves())
        n_dst = len(out.game.structure.leaves())
        budget = source_bits + n_src.bit_length() + n_dst.bit_length() + 4
        assert all(
            _doc_bits(u) <= budget for u in out.game.utility.values()
        )


def _fraction_weights(source, generated):
    """`transform.sequence_weights` as one `Fraction` addition per (leaf,
    sequence): the reference for its integer sums."""
    out = {}
    for leaf in source.structure.leaves():
        value = source.chance_weights[leaf] * source.utility[leaf]
        for seq in generated(leaf):
            out[seq] = out.get(seq, 0) + value
    return out


def _composed_sequences(game, cert_max, cert_min):
    """The `generated` map of `compose_two_player`: every Max generator
    followed by every Min generator."""
    s = game.structure

    def generated(leaf):
        maxes = cert_max.combinations[history(s, leaf, MAX)]
        mins = cert_min.combinations[history(s, leaf, MIN)]
        return [m + v for m in maxes for v in mins]

    return generated


def test_integer_sequence_weights_match_fraction_sums():
    # random chance draws w/total are not dyadic, transferred payoffs are
    # fractions, and composition sends a leaf to many sequence pairs; the
    # leaves' denominators differ, so sums that skipped the scaling onto
    # the common denominator would not match the reference
    cases = []
    for seed in range(1, 31):
        game = gen_random(FamilyParams(family="random", seed=seed))
        s = game.structure
        cert = minimal_span(extract_histories(s))
        cases.append((game, lambda leaf, s=s: (s.histories[leaf],)))
        cases.append((game, lambda leaf, s=s, c=cert: c.combinations[s.histories[leaf]]))
        out = transfer_payoffs(game, cert).game
        cases.append((out, lambda leaf, t=out.structure: (t.histories[leaf],)))
    for seed in range(1, 21):
        game = gen_random(FamilyParams(family="random", seed=seed, players=2))
        if set(game.structure.players()) == {MAX, MIN}:
            cert_max = minimal_span(extract_histories(game.structure, MAX))
            cert_min = minimal_span(extract_histories(game.structure, MIN))
            cases.append((game, _composed_sequences(game, cert_max, cert_min)))
    mixed = 0
    for source, generated in cases:
        got = sequence_weights(source, generated)
        want = _fraction_weights(source, generated)
        assert got == want and list(got) == list(want)
        assert all(type(v) is Fraction for v in got.values())
        scales = {
            source.chance_weights[leaf].denominator * source.utility[leaf].denominator
            for leaf in source.structure.leaves()
        }
        mixed += len(scales) > 1
    assert (len(cases), mixed) == (30 * 3 + 18, 99)


def test_compose_two_player_demo():
    z = [Fraction(i) for i in range(1, 9)]
    game = build_two_player_demo(z)
    assert classify_recall(game.structure, MAX) is RecallClass.PFR
    cert_max = minimal_span(extract_histories(game.structure, MAX))
    cert_min = minimal_span(extract_histories(game.structure, MIN))
    assert len(cert_max.span) == 2 and len(cert_min.span) == 8
    out = compose_two_player(game, cert_max, cert_min)
    leaves = out.game.structure.leaves()
    assert len(leaves) == 16
    assert classify_recall(out.game.structure, MAX).is_alr
    assert classify_recall(out.game.structure, MIN).is_alr
    assert poly_equal_under_constraints(
        payoff_polynomial(game), payoff_polynomial(out.game)
    )
    # the doubled-payoff pattern: every source payoff appears once, doubled
    nonzero = sorted(
        out.game.utility[leaf] for leaf in leaves if out.game.utility[leaf] != 0
    )
    assert nonzero == [Fraction(2 * i) for i in range(1, 9)]
    # placement: under d the min side walks the b-branch payoffs
    by_hist = {
        history(out.game.structure, leaf): out.game.utility[leaf] for leaf in leaves
    }
    assert by_hist[("d", "a", "b")] == Fraction(2)
    assert by_hist[("d", "abar", "b")] == Fraction(4)
    assert by_hist[("dbar", "a", "c")] == Fraction(10)
    assert by_hist[("d", "a", "c")] == Fraction(0)


def test_compose_random_games_polynomial_equality():
    done = 0
    seed = 0
    while done < 20:
        seed += 1
        game = gen_random(
            FamilyParams(family="random", seed=seed, depth=4, branching=2, players=2)
        )
        owners = set(game.structure.players())
        if owners != {MAX, MIN}:
            continue
        cert_max = minimal_span(extract_histories(game.structure, MAX))
        cert_min = minimal_span(extract_histories(game.structure, MIN))
        out = compose_two_player(game, cert_max, cert_min)
        assert len(out.game.structure.leaves()) == len(cert_max.span) * len(cert_min.span)
        assert poly_equal_under_constraints(
            payoff_polynomial(game), payoff_polynomial(out.game)
        )
        done += 1


def test_compose_rejects_one_player(perfect_recall_demo):
    cert = minimal_span(extract_histories(perfect_recall_demo.structure))
    with pytest.raises(GameError):
        compose_two_player(perfect_recall_demo, cert, cert)


# Reference builders, independent of the shared assignment step: a
# recursive graft that numbers nodes in preorder, and one payoff bucket per
# (Max, Min) sequence pair.  The library's documents must match theirs
# byte for byte.


def _old_transfer_payoffs(source, certificate):
    target = structure_from_sequences(certificate.span)
    chance = uniform_chance(target)
    shell = Game(structure=target, chance=chance, utility={})
    bucket = {}
    for leaf in source.structure.leaves():
        hist = history(source.structure, leaf)
        w = source.chance_weights[leaf]
        for target_seq in certificate.combinations[hist]:
            bucket[target_seq] = bucket.get(target_seq, Fraction(0)) + w * source.utility[leaf]
    utility = {
        leaf: bucket.get(history(target, leaf), Fraction(0)) / shell.chance_weights[leaf]
        for leaf in target.leaves()
    }
    return Game(structure=target, chance=chance, utility=utility)


def _old_graft(top, bottom, infosets):
    nodes = {}
    next_id = [0]

    def copy(structure, nid, graft_leaves):
        new_id = next_id[0]
        next_id[0] += 1
        node = structure.nodes[nid]
        if isinstance(node, Leaf):
            if graft_leaves:
                next_id[0] -= 1
                return copy(bottom, bottom.root, False)
            nodes[new_id] = Leaf()
            return new_id
        if isinstance(node, ChanceNode):
            nodes[new_id] = ChanceNode(())
            kids = tuple(copy(structure, c, graft_leaves) for c in node.children)
            nodes[new_id] = ChanceNode(kids)
            return new_id
        nodes[new_id] = PlayerNode(node.infoset, ())
        kids2 = tuple((a, copy(structure, c, graft_leaves)) for a, c in node.children)
        nodes[new_id] = PlayerNode(node.infoset, kids2)
        return new_id

    root = copy(top, top.root, True)
    return GameStructure(root=root, nodes=nodes, infosets=infosets)


def _old_compose_two_player(source, span_max, span_min):
    top = structure_from_sequences(span_max.span)
    bottom = structure_from_sequences(span_min.span)
    composed = _old_graft(top, bottom, source.structure.infosets)
    chance = uniform_chance(composed)
    shell = Game(structure=composed, chance=chance, utility={})
    bucket = {}
    for leaf in source.structure.leaves():
        h_max = history(source.structure, leaf, MAX)
        h_min = history(source.structure, leaf, MIN)
        w = source.chance_weights[leaf]
        for m in span_max.combinations[h_max]:
            for v in span_min.combinations[h_min]:
                key = (m, v)
                bucket[key] = bucket.get(key, Fraction(0)) + w * source.utility[leaf]
    utility = {}
    for leaf in composed.leaves():
        key = (history(composed, leaf, MAX), history(composed, leaf, MIN))
        utility[leaf] = bucket.get(key, Fraction(0)) / shell.chance_weights[leaf]
    return Game(structure=composed, chance=chance, utility=utility)


def _one_player_corpus():
    for variant in ("I", "II", "III"):
        for n in range(2, 7):
            yield gen_pennies(variant, n)
    for n in range(1, 7):
        game = structure_as_game(realize_sequence_set(gen_lowerbound(n)))
        rng = random.Random(n)
        utility = {leaf: Fraction(rng.randint(-5, 9), rng.randint(1, 4)) for leaf in game.utility}
        yield Game(structure=game.structure, chance=game.chance, utility=utility)
    for seed in range(1, 41):
        yield gen_random(FamilyParams(family="random", seed=seed))


def test_transform_matches_old_builders():
    transferred = 0
    for game in _one_player_corpus():
        cert = minimal_span(extract_histories(game.structure))
        new = serialize_game(transfer_payoffs(game, cert).game)
        assert new == serialize_game(_old_transfer_payoffs(game, cert))
        transferred += 1
    assert transferred == 15 + 6 + 40

    composed = 0
    for seed in range(1, 81):
        game = gen_random(FamilyParams(family="random", seed=seed, players=2))
        if set(game.structure.players()) != {MAX, MIN}:
            continue
        cert_max = minimal_span(extract_histories(game.structure, MAX))
        cert_min = minimal_span(extract_histories(game.structure, MIN))
        new = serialize_game(compose_two_player(game, cert_max, cert_min).game)
        assert new == serialize_game(_old_compose_two_player(game, cert_max, cert_min))
        composed += 1
    assert composed == 74
