#!/usr/bin/env python3
"""Walk through the package's running examples and print what each stage
does: classification, shuffle repair, span construction, payoff transfer,
and solving.  Everything printed is exact."""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from recall_forge.model import MAX, MIN, classify_recall, history
from recall_forge.generators import gen_lowerbound, gen_pennies
from recall_forge.polynomials import payoff_polynomial, poly_equal_under_constraints
from recall_forge.seqsets import extract_histories
from recall_forge.shuffle import salr_witness
from recall_forge.span import minimal_span, shuffle_depth
from recall_forge.solver import solve, solve_bruteforce
from recall_forge.transform import compose_two_player, transfer_payoffs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import build_shuffle_demo, build_span_demo, build_two_player_demo  # noqa: E402


def show(label: str, value) -> None:
    print(f"  {label:<42} {value}")


def main() -> None:
    print("== matching-unmatching pennies, three observation variants (n=3)")
    for variant in ("I", "II", "III"):
        game = gen_pennies(variant, 3)
        recall = classify_recall(game.structure, MAX)
        value = solve_bruteforce(game).value
        show(f"variant {variant}: recall / maxmin", f"{recall.name} / {value}")

    print("\n== repairing by reordering (shuffled A-loss recall)")
    demo = build_shuffle_demo(z=[1, 0, 0, 1, 0, 1, 1, 0])
    ss = extract_histories(demo.structure)
    res = salr_witness(ss)
    show("history set", sorted("".join(s) for s in ss.sorted_sequences()))
    show("witness", sorted("".join(s) for s in res.witness.sorted_sequences()))

    print("\n== a set no reordering repairs; spans instead")
    z = [Fraction(k) for k in (3, -1, 2, 0, 5, 1, -2, 4)]
    game = build_span_demo(z)
    ss = extract_histories(game.structure)
    show("shuffleable?", salr_witness(ss).has_salr)
    show("shuffle depth", shuffle_depth(ss))
    cert = minimal_span(ss)
    show("minimal span size", f"{len(cert.span)} (from {len(ss)} histories)")
    moved = transfer_payoffs(game, cert)
    show(
        "payoff polynomial preserved?",
        poly_equal_under_constraints(payoff_polynomial(game), payoff_polynomial(moved.game)),
    )
    show("maxmin via span pipeline", solve(game, method="span").value)
    show("maxmin via brute force", solve_bruteforce(game).value)

    print("\n== span growth: lowerbound doubles per level, pennies-III grows linearly")
    for n in range(1, 9):
        lower = minimal_span(gen_lowerbound(n))
        pennies = minimal_span(extract_histories(gen_pennies("III", n).structure))
        sizes = f"lowerbound {len(lower.span)}, pennies-III {len(pennies.span)}"
        show(f"n={n}: minimal span size", sizes)

    print("\n== two players: compose per-player spans")
    game = build_two_player_demo([Fraction(i) for i in range(1, 9)])
    cert_max = minimal_span(extract_histories(game.structure, MAX))
    cert_min = minimal_span(extract_histories(game.structure, MIN))
    out = compose_two_player(game, cert_max, cert_min)
    show("span sizes (max, min)", (len(cert_max.span), len(cert_min.span)))
    show("composed leaves", len(out.game.structure.leaves()))
    nonzero = {
        " ".join(history(out.game.structure, leaf)): str(out.game.utility[leaf])
        for leaf in out.game.structure.leaves()
        if out.game.utility[leaf] != 0
    }
    show("doubled payoffs", nonzero)


if __name__ == "__main__":
    main()
