"""Leaf monomials, payoff polynomials, and equality modulo strategy
constraints.

Monomials are multilinear (each action variable appears at most once,
at most one per information set), so a monomial is just a frozenset of
action labels; the empty set is the constant 1.  A polynomial maps
monomials to exact rational coefficients.

Two payoff polynomials agree on the whole strategy polytope iff they
agree after eliminating, for every information set, the last declared
action variable via the sum-to-one constraint.  `canonicalize` performs
that elimination and expands back to multilinear normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .model import (
    Action,
    ChanceNode,
    Game,
    GameError,
    GameStructure,
    InformationSet,
    RecallClass,
    classify_recall,
)

Monomial = frozenset[Action]
ONE: Monomial = frozenset()


@dataclass(frozen=True)
class Polynomial:
    terms: dict[Monomial, Fraction]
    infosets: tuple[InformationSet, ...]

    @staticmethod
    def build(
        terms: Mapping[Monomial, Fraction], infosets: tuple[InformationSet, ...]
    ) -> Polynomial:
        return Polynomial({m: c for m, c in terms.items() if c != 0}, infosets)

    def is_constant(self, value: Fraction) -> bool:
        if value == 0:
            return not self.terms
        return self.terms == {ONE: value}

    def evaluate(self, point: Mapping[Action, Fraction]) -> Fraction:
        total = Fraction(0)
        for m, c in self.terms.items():
            prod = c
            for a in m:
                prod *= point[a]
            total += prod
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0/1"
        parts = []
        for m in sorted(self.terms, key=lambda m: (len(m), sorted(m))):
            c = self.terms[m]
            mono = "*".join(f"x_{a}" for a in sorted(m)) if m else "1"
            parts.append(f"{c.numerator}/{c.denominator} {mono}")
        return " + ".join(parts)


def _check_nam(structure: GameStructure) -> None:
    for p in structure.players():
        if classify_recall(structure, p) is RecallClass.ABSENTMINDED:
            raise GameError(f"player {p!r} is absentminded; monomials would need exponents")


def leaf_monomials(structure: GameStructure) -> set[Monomial]:
    """{product of action variables on the path to t | t leaf}, as sets."""
    _check_nam(structure)
    return {frozenset(structure.histories[leaf]) for leaf in structure.leaves()}


def payoff_polynomial(game: Game) -> Polynomial:
    """Sum over leaves of chance weight x payoff x leaf monomial."""
    _check_nam(game.structure)
    for nid, node in game.structure.nodes.items():
        if isinstance(node, ChanceNode):
            probs = game.chance.get(nid, ())
            if len(probs) != len(node.children) or sum(probs) != 1 or any(p < 0 for p in probs):
                raise GameError(f"chance node {nid} has an invalid distribution")
    terms: dict[Monomial, Fraction] = {}
    for leaf in game.structure.leaves():
        m = frozenset(game.structure.histories[leaf])
        w = game.chance_weights[leaf] * game.utility[leaf]
        terms[m] = terms.get(m, Fraction(0)) + w
    return Polynomial.build(terms, game.structure.infosets)


def _eliminated(infosets: tuple[InformationSet, ...]) -> dict[Action, tuple[Action, ...]]:
    """Last declared action of each infoset -> the remaining actions."""
    return {i.actions[-1]: i.actions[:-1] for i in infosets}


def canonicalize(p: Polynomial) -> Polynomial:
    """Normal form: substitute each infoset's last action variable by one
    minus the sum of its siblings, then expand to multilinear form.

    Idempotent; two polynomials agree as functions on the strategy
    polytope iff their canonical forms are equal term by term.
    """
    elim = _eliminated(p.infosets)
    out: dict[Monomial, Fraction] = {}
    work = list(p.terms.items())
    while work:
        mono, coeff = work.pop()
        hit = next((a for a in mono if a in elim), None)
        if hit is None:
            out[mono] = out.get(mono, Fraction(0)) + coeff
            continue
        base = mono - {hit}
        work.append((base, coeff))
        for sibling in elim[hit]:
            work.append((base | {sibling}, -coeff))
    return Polynomial.build(out, p.infosets)


def poly_equal_under_constraints(p: Polynomial, q: Polynomial) -> bool:
    """Equality as functions on the strategy polytope."""
    if p.infosets != q.infosets:
        raise GameError("polynomial alphabets differ")
    return canonicalize(p).terms == canonicalize(q).terms


def monomial_sum(
    monomials: Iterable[Monomial], infosets: tuple[InformationSet, ...]
) -> Polynomial:
    """Coefficient-1 sum of the given monomials, merging duplicates."""
    terms: dict[Monomial, Fraction] = {}
    for m in monomials:
        terms[m] = terms.get(m, Fraction(0)) + 1
    return Polynomial.build(terms, infosets)
