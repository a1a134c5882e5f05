from __future__ import annotations

from fractions import Fraction

import pytest

from recall_forge.model import (
    MAX,
    MIN,
    ChanceNode,
    GameError,
    InformationSet,
    PlayerNode,
    RecallClass,
    classify_recall,
    history,
    validate,
    validate_game,
)
from recall_forge.docio import structure_as_game
from recall_forge.generators import FamilyParams, gen_lowerbound, gen_pennies, gen_random
from recall_forge.polynomials import payoff_polynomial
from recall_forge.seqsets import extract_histories, is_alr_set
from recall_forge.span import realize_sequence_set

from conftest import TreeBuilder, parent_edges, player_chain


def test_generator_output_is_valid():
    game = gen_pennies("I", 3)
    assert validate(game.structure) == []
    assert validate_game(game) == []


def test_validate_flags_action_set_mismatch():
    b = TreeBuilder()
    n1 = b.player("I1", [("a", b.leaf()), ("b", b.leaf())])
    n2 = b.player("I1", [("a", b.leaf())])  # missing action b
    root = b.chance_node([(Fraction(1, 2), n1), (Fraction(1, 2), n2)])
    game = b.game(root, [InformationSet("I1", MAX, ("a", "b"))])
    problems = validate(game.structure)
    assert len(problems) == 1
    assert "I1" in problems[0]


def test_validate_flags_reused_action_label():
    b = TreeBuilder()
    n1 = b.player("I1", [("H", b.leaf()), ("x", b.leaf())])
    n2 = b.player("I2", [("H", b.leaf()), ("y", b.leaf())])
    root = b.chance_node([(Fraction(1, 2), n1), (Fraction(1, 2), n2)])
    game = b.game(
        root,
        [InformationSet("I1", MAX, ("H", "x")), InformationSet("I2", MAX, ("H", "y"))],
    )
    problems = validate(game.structure)
    assert any("'H'" in p for p in problems)


def test_validate_reports_each_duplicate_id_once():
    # I2 and I1 are each declared twice: one problem per id, in sorted order
    b = TreeBuilder()
    ids = ("I2", "I1", "I2", "I1", "I3")
    declared = [InformationSet(iid, MAX, (f"a{k}",)) for k, iid in enumerate(ids)]
    assert validate(b.game(b.leaf(), declared).structure) == [
        "duplicate information set id 'I1'",
        "duplicate information set id 'I2'",
    ]


def test_history_skips_chance_and_restricts(perfect_recall_demo):
    s = perfect_recall_demo.structure
    # u3 is the first I2 node: path root --a--> chance --> u3
    u3 = s.members("I2")[0]
    assert history(s, u3) == ("a",)
    assert history(s, u3, MAX) == ("a",)
    assert history(s, s.root) == ()


def test_history_on_shuffle_demo(shuffle_demo):
    s = shuffle_demo.structure
    u3 = s.members("I3")[0]
    assert history(s, u3, MAX) == ("b",)


def test_history_unknown_node(perfect_recall_demo):
    with pytest.raises(GameError):
        history(perfect_recall_demo.structure, 999)


def test_classify_pennies_variants():
    assert classify_recall(gen_pennies("I", 3).structure, MAX) is RecallClass.ALR_NOT_PFR
    assert classify_recall(gen_pennies("II", 3).structure, MAX) is RecallClass.NAM_NOT_ALR
    assert classify_recall(gen_pennies("III", 3).structure, MAX) is RecallClass.NAM_NOT_ALR


def test_classify_absentminded(absentminded_demo):
    assert classify_recall(absentminded_demo.structure, MAX) is RecallClass.ABSENTMINDED


def test_classify_single_leaf():
    b = TreeBuilder()
    root = b.leaf(7)
    game = b.game(root, [])
    assert classify_recall(game.structure, MAX) is RecallClass.PFR


def test_classify_perfect_recall(perfect_recall_demo):
    assert classify_recall(perfect_recall_demo.structure, MAX) is RecallClass.PFR


def test_divergence_at_own_set_is_alr():
    b = TreeBuilder()
    n1 = b.player("I2", [("c", b.leaf()), ("d", b.leaf())])
    n2 = b.player("I2", [("c", b.leaf()), ("d", b.leaf())])
    top = b.player("I1", [("a", n1), ("b", n2)])
    game = b.game(
        top,
        [InformationSet("I1", MAX, ("a", "b")), InformationSet("I2", MAX, ("c", "d"))],
    )
    assert classify_recall(game.structure, MAX) is RecallClass.ALR_NOT_PFR


def test_prefix_history_breaks_alr():
    # I2's histories are () and (a,): one a strict prefix of the other,
    # so there is no diverging action pair and A-loss recall fails
    b = TreeBuilder()
    direct = b.player("I2", [("c", b.leaf()), ("d", b.leaf())])
    below = b.player("I2", [("c", b.leaf()), ("d", b.leaf())])
    via = b.player("I1", [("a", below), ("b", b.leaf())])
    root = b.chance_node([(Fraction(1, 2), direct), (Fraction(1, 2), via)])
    game = b.game(
        root,
        [InformationSet("I1", MAX, ("a", "b")), InformationSet("I2", MAX, ("c", "d"))],
    )
    assert classify_recall(game.structure, MAX) is RecallClass.NAM_NOT_ALR


def test_validate_game_bad_distribution():
    b = TreeBuilder()
    root = b.chance_node([(Fraction(1, 2), b.leaf()), (Fraction(1, 3), b.leaf())])
    game = b.game(root, [])
    assert any("sum" in p for p in validate_game(game))


def _root_walk_history(structure, parents, node, player=None):
    """Reference history: walk `parents` from the node up to the root."""
    rev = []
    nid = node
    while nid != structure.root:
        parent, action = parents[nid]
        if action is not None:
            owner = structure.infoset_by_id[structure.nodes[parent].infoset].owner
            if player is None or owner == player:
                rev.append(action)
        nid = parent
    return tuple(reversed(rev))


def _root_walk_chance_weight(game, parents, node):
    """Reference chance weight: the product of chance edges up to the root."""
    s = game.structure
    w = Fraction(1)
    nid = node
    while nid != s.root:
        parent, _ = parents[nid]
        pnode = s.nodes[parent]
        if isinstance(pnode, ChanceNode):
            w *= game.chance[parent][pnode.children.index(nid)]
        nid = parent
    return w


def _naive_recall(structure, player):
    """Definitional reimplementation used only as a cross-check here."""
    own = {i.id for i in structure.infosets if i.owner == player}
    act_info = structure.infoset_of_action
    parents = parent_edges(structure)

    paths = {}
    for nid in structure.preorder():
        node = structure.nodes[nid]
        if isinstance(node, PlayerNode) and node.infoset in own:
            paths.setdefault(node.infoset, []).append(nid)

    # absentminded: some node has an ancestor in its own information set
    for iid, members in paths.items():
        for u in members:
            cur = u
            while cur != structure.root:
                cur = parents[cur][0]
                pn = structure.nodes[cur]
                if isinstance(pn, PlayerNode) and pn.infoset == iid:
                    return RecallClass.ABSENTMINDED

    hists = {
        iid: {_root_walk_history(structure, parents, u, player) for u in members}
        for iid, members in paths.items()
    }
    if all(len(hs) == 1 for hs in hists.values()):
        return RecallClass.PFR
    for hs in hists.values():
        for h in hs:
            for g in hs:
                if h == g:
                    continue
                k = 0
                while k < len(h) and k < len(g) and h[k] == g[k]:
                    k += 1
                if (
                    k >= len(h)
                    or k >= len(g)
                    or act_info[h[k]] != act_info[g[k]]
                ):
                    return RecallClass.NAM_NOT_ALR
    return RecallClass.ALR_NOT_PFR


def test_classifier_against_definitional_oracle():
    from recall_forge.generators import FamilyParams, gen_random

    for seed in range(150):
        game = gen_random(
            FamilyParams(family="random", seed=seed, depth=2 + seed % 4, branching=2 + seed % 2)
        )
        for player in game.structure.players():
            assert classify_recall(game.structure, player) == _naive_recall(
                game.structure, player
            )


def test_classifier_oracle_catches_absentminded(absentminded_demo):
    assert _naive_recall(absentminded_demo.structure, MAX) is RecallClass.ABSENTMINDED


def test_recall_implication_chain():
    # a PFR answer satisfies the ALR predicate, an ALR answer the NAM one
    from recall_forge.generators import FamilyParams, gen_random
    from recall_forge.seqsets import extract_histories, is_alr_set

    for seed in range(80):
        game = gen_random(FamilyParams(family="random", seed=seed, depth=4, branching=2))
        recall = classify_recall(game.structure, MAX)
        if recall is RecallClass.PFR:
            assert recall.is_alr and recall.is_nam
            assert is_alr_set(extract_histories(game.structure))
        elif recall is RecallClass.ALR_NOT_PFR:
            assert recall.is_nam
            assert is_alr_set(extract_histories(game.structure))


def _path_data_inputs():
    for variant in ("I", "II", "III"):
        for n in range(2, 7):
            yield gen_pennies(variant, n)
    for n in range(1, 7):
        yield structure_as_game(realize_sequence_set(gen_lowerbound(n)))
    for seed in range(1, 41):
        for players in (1, 2):
            yield gen_random(FamilyParams(family="random", seed=seed, players=players))
    # a chance node under a chance node, left unnormalized
    b = TreeBuilder()
    inner = b.chance_node([(Fraction(1, 3), b.leaf(1)), (Fraction(2, 3), b.leaf(2))])
    low = b.player("I2", [("c", inner), ("d", b.leaf(3))])
    mid = b.chance_node([(Fraction(1, 4), low), (Fraction(3, 4), b.leaf(4))])
    top = b.chance_node([(Fraction(1, 2), mid), (Fraction(1, 2), b.leaf(5))])
    root = b.player("I1", [("a", top), ("b", b.leaf(6))])
    yield b.game(
        root,
        [InformationSet("I1", MAX, ("a", "b")), InformationSet("I2", MIN, ("c", "d"))],
    )


def test_path_tables_match_root_walks():
    count = 0
    for game in _path_data_inputs():
        s = game.structure
        parents = parent_edges(s)
        assert validate_game(game) == []
        for nid in s.nodes:
            for player in (None, MAX, MIN):
                assert history(s, nid, player) == _root_walk_history(s, parents, nid, player)
            assert game.chance_weights[nid] == _root_walk_chance_weight(game, parents, nid)
        count += 1
    assert count == 15 + 6 + 80 + 1


def test_deep_player_chain_without_recursion():
    # 2,000 player levels, each with an exit leaf; built directly, because
    # the JSON decoder stops far sooner
    depth = 2000
    game = player_chain(depth)
    structure = game.structure

    assert classify_recall(structure, MAX) is RecallClass.PFR
    assert len(extract_histories(structure)) == depth + 1
    assert is_alr_set(extract_histories(structure))
    deepest = max(structure.leaves(), key=lambda leaf: len(history(structure, leaf)))
    assert len(history(structure, deepest)) == depth
    poly = payoff_polynomial(game)
    assert len(poly.terms) == depth  # the payoff-0 exit leaf drops out
