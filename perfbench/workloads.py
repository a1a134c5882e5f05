"""The benchmark's workloads: inputs made from a seed, the job each runs,
and the independent checks on every output.

A job is the fixed command sequence of a workload, run in-process
through `recall_forge.cli.cli_main` on one input.  Each workload's
`setup` writes its inputs under a work directory and returns the job
pool; the timed loop cycles through that pool.  `check` runs outside the
timed region, once per distinct output, and returns the problems found.

The checks lean on the program's test oracles, never on the code path
that produced the output: solve values against `solve_bruteforce`,
payoff polynomials against `poly_equal_under_constraints`, and span
certificates by evaluating every generator sum at a random point of the
strategy polytope.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from recall_forge.docio import (
    format_rational,
    parse_certificate,
    parse_game,
    serialize_certificate,
    serialize_game,
    structure_as_game,
)
from recall_forge.generators import FamilyParams, gen_lowerbound, gen_pennies, gen_random
from recall_forge.model import MAX, MIN, Game, RecallClass, classify_recall
from recall_forge.polynomials import payoff_polynomial, poly_equal_under_constraints
from recall_forge.seqsets import SequenceSet, extract_histories, is_alr_set
from recall_forge.solver import PureStrategy, expected_payoff, solve_bruteforce
from recall_forge.span import minimal_span, realize_sequence_set

LOWERBOUND_N = 8
PENNIES_N = 14
PAYOFF_VARIANTS = 4  # inputs per seed for the fixed-structure workloads

RANDOM_ONE_PLAYER = 300
RANDOM_TWO_PLAYER = 60
MAX_STRATEGIES = 2**12
MAX_LEAVES_ONE = 120
MAX_LEAVES_TWO = 80
MAX_INFOSETS_ONE = 7


@dataclass(frozen=True)
class Job:
    key: int  # which input of the pool
    commands: tuple[tuple[str, ...], ...]
    files: tuple[str, ...] = ()  # outputs the commands write

    def __str__(self) -> str:
        return " ; ".join(" ".join(Path(a).name for a in c) for c in self.commands)


# -- shared helpers ----------------------------------------------------


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _with_payoffs(game: Game, rng: random.Random) -> Game:
    """The same tree with seeded integer leaf payoffs."""
    utility = {leaf: Fraction(rng.randint(-9, 9)) for leaf in sorted(game.utility)}
    return Game(structure=game.structure, chance=game.chance, utility=utility)


def _strategy_count(game: Game) -> int:
    count = 1
    for info in game.structure.infosets:
        count *= len(info.actions)
    return count


def _check_value(game: Game, text: str, expected: Fraction) -> list[str]:
    """`solve` output: the value line, then one `infoset: action` line each."""
    lines = text.splitlines()
    if not lines or lines[0] != format_rational(expected):
        got = lines[0] if lines else "nothing"
        return [f"solve printed {got}, brute force gives {format_rational(expected)}"]
    choice = dict(line.split(": ", 1) for line in lines[1:])
    if set(choice) != {i.id for i in game.structure.infosets}:
        return ["solve strategy does not name every information set"]
    if expected_payoff(game, PureStrategy(choice)) != expected:
        return ["solve strategy does not reach the printed value"]
    return []


def _random_point(ss: SequenceSet, rng: random.Random) -> dict[str, Fraction]:
    """A random interior point of the strategy polytope."""
    point: dict[str, Fraction] = {}
    for info in ss.infosets:
        weights = [rng.randint(1, 97) for _ in info.actions]
        total = sum(weights)
        for a, w in zip(info.actions, weights):
            point[a] = Fraction(w, total)
    return point


def _monomial(seq, point: dict[str, Fraction]) -> Fraction:
    value = Fraction(1)
    for a in seq:
        value *= point[a]
    return value


def _check_certificate(
    text: str, original: SequenceSet, span: SequenceSet, rng: random.Random
) -> list[str]:
    """The certificate names the right sets, and each generator set sums to
    its original monomial on the strategy polytope (checked at a random
    interior point, which a wrong sum misses with probability ~0)."""
    cert = parse_certificate(text)
    if cert.original.sequences != original.sequences:
        return ["certificate original differs from the input's histories"]
    if cert.span.sequences != span.sequences:
        return ["certificate span differs from the span game's histories"]
    point = _random_point(cert.original, rng)
    for seq in cert.original.sorted_sequences():
        gens = cert.combinations[seq]
        if not gens <= cert.span.sequences:
            return [f"generators of {' '.join(seq)!r} are not in the span"]
        if sum((_monomial(g, point) for g in gens), Fraction(0)) != _monomial(seq, point):
            return [f"generators of {' '.join(seq)!r} do not sum to its monomial"]
    return []


def _check_alr(game: Game) -> list[str]:
    bad = [p for p in game.structure.players() if not classify_recall(game.structure, p).is_alr]
    return [f"{p} lacks A-loss recall in the output" for p in bad]


def _check_same_payoffs(source: Game, out: Game, what: str) -> list[str]:
    if not poly_equal_under_constraints(payoff_polynomial(source), payoff_polynomial(out)):
        return [f"{what} changed the payoff polynomial"]
    return []


class Workload:
    """Inputs from a seed, a pool of jobs, and checks on their outputs."""

    name = ""

    def describe(self) -> dict:
        return {}

    def setup(self, seed: int, workdir: Path) -> list[Job]:
        raise NotImplementedError

    def check(self, job: Job, outputs: tuple[str, ...]) -> list[str]:
        raise NotImplementedError


# -- lowerbound-span ---------------------------------------------------


class LowerboundSpan(Workload):
    """`span --certificate` on lowerbound: the 2^n span is forced, so
    construction, verification and certificate output share the time and
    search pruning cannot shrink it (the bypass case for pruning)."""

    name = "lowerbound-span"

    def describe(self) -> dict:
        return {"family": "lowerbound", "n": LOWERBOUND_N, "inputs": PAYOFF_VARIANTS}

    def setup(self, seed: int, workdir: Path) -> list[Job]:
        rng = random.Random(seed)
        self.seed = seed
        base = structure_as_game(realize_sequence_set(gen_lowerbound(LOWERBOUND_N)))
        self.games = [_with_payoffs(base, rng) for _ in range(PAYOFF_VARIANTS)]
        span_out, cert_out = str(workdir / "span.json"), str(workdir / "cert.json")
        jobs = []
        for k, game in enumerate(self.games):
            doc = _write(workdir / f"lowerbound-{k}.json", serialize_game(game))
            cmd = ("span", doc, "-o", span_out, "--certificate", cert_out)
            jobs.append(Job(k, (cmd,), (span_out, cert_out)))
        return jobs

    def check(self, job: Job, outputs: tuple[str, ...]) -> list[str]:
        _, span_text, cert_text = outputs
        game = self.games[job.key]
        span_game = parse_game(span_text)
        leaves = len(span_game.structure.leaves())
        if leaves != 2**LOWERBOUND_N:
            return [f"span has {leaves} leaves, not {2 ** LOWERBOUND_N}"]
        return _check_alr(span_game) + _check_certificate(
            cert_text,
            extract_histories(game.structure),
            extract_histories(span_game.structure),
            random.Random(self.seed * 7919 + job.key),
        )


# -- pennies3-search ---------------------------------------------------


class Pennies3Search(Workload):
    """`solve` then `sd` on pennies-III: span search dominates, and this is
    the only workload that runs `shuffle` heavily (the exercise case for
    pruning)."""

    name = "pennies3-search"

    def describe(self) -> dict:
        return {"family": "pennies-III", "n": PENNIES_N, "inputs": PAYOFF_VARIANTS}

    def setup(self, seed: int, workdir: Path) -> list[Job]:
        rng = random.Random(seed)
        base = gen_pennies("III", PENNIES_N)
        self.games = [_with_payoffs(base, rng) for _ in range(PAYOFF_VARIANTS)]
        jobs = []
        for k, game in enumerate(self.games):
            doc = _write(workdir / f"pennies3-{k}.json", serialize_game(game))
            jobs.append(Job(k, (("solve", doc), ("sd", doc))))
        return jobs

    def check(self, job: Job, outputs: tuple[str, ...]) -> list[str]:
        solve_text, sd_text = outputs
        game = self.games[job.key]
        problems = _check_value(game, solve_text, solve_bruteforce(game).value)
        if sd_text != "2\n":
            problems.append(f"sd printed {sd_text.strip()!r}, expected 2")
        return problems


# -- certificate-replay ------------------------------------------------


class CertificateReplay(Workload):
    """`transform`, `verify-span` and `solve` from a certificate built at
    set-up: the read side of the span layer, with no search."""

    name = "certificate-replay"

    def describe(self) -> dict:
        return {"family": "lowerbound", "n": LOWERBOUND_N, "inputs": PAYOFF_VARIANTS}

    def setup(self, seed: int, workdir: Path) -> list[Job]:
        rng = random.Random(seed)
        self.seed = seed
        base = structure_as_game(realize_sequence_set(gen_lowerbound(LOWERBOUND_N)))
        self.games = [_with_payoffs(base, rng) for _ in range(PAYOFF_VARIANTS)]
        cert = _write(
            workdir / "replay-cert.json",
            serialize_certificate(minimal_span(extract_histories(base.structure))),
        )
        out = str(workdir / "transformed.json")
        jobs = []
        for k, game in enumerate(self.games):
            doc = _write(workdir / f"replay-{k}.json", serialize_game(game))
            commands = (
                ("transform", doc, "--certificate", cert, "-o", out),
                ("verify-span", doc, out),
                ("solve", out),
            )
            jobs.append(Job(k, commands, (out,)))
        return jobs

    def check(self, job: Job, outputs: tuple[str, ...]) -> list[str]:
        _, verify_text, solve_text, transformed_text = outputs
        game = self.games[job.key]
        transformed = parse_game(transformed_text)
        return (
            _check_same_payoffs(game, transformed, "transform")
            + _check_certificate(
                verify_text,
                extract_histories(game.structure),
                extract_histories(transformed.structure),
                random.Random(self.seed * 7919 + job.key),
            )
            + _check_value(transformed, solve_text, solve_bruteforce(game).value)
        )


# -- random-mix ----------------------------------------------------------


@dataclass(frozen=True)
class _TwoPlayer:
    game: Game
    leaves: int  # product of the two span sizes


class RandomMix(Workload):
    """Hundreds of small random games, so per-call costs (argparse,
    parsing, classify) dominate; the only workload that runs `compose`.

    The trees are fixed (see `_first`) and the seed draws payoffs and job
    order, so that a run's cost mix does not hang on which trees a seed
    happens to draw."""

    name = "random-mix"

    def describe(self) -> dict:
        return {
            "family": "random",
            "one_player": RANDOM_ONE_PLAYER,
            "two_player": RANDOM_TWO_PLAYER,
            "filter_one": f"<= {MAX_STRATEGIES} strategies, <= {MAX_LEAVES_ONE} leaves, "
            f"1..{MAX_INFOSETS_ONE} infosets",
            "filter_two": f"both players, <= {MAX_LEAVES_TWO} leaves",
        }

    @staticmethod
    def _one_player(seed: int) -> Optional[Game]:
        game = gen_random(
            FamilyParams(family="random", seed=seed, depth=2 + seed % 5, branching=2 + seed % 2)
        )
        s = game.structure
        if not 1 <= len(s.infosets) <= MAX_INFOSETS_ONE:
            return None
        if _strategy_count(game) > MAX_STRATEGIES or len(s.leaves()) > MAX_LEAVES_ONE:
            return None
        return game

    @staticmethod
    def _two_player(seed: int) -> Optional[Game]:
        game = gen_random(
            FamilyParams(
                family="random", seed=seed, depth=2 + seed % 4, branching=2, players=2
            )
        )
        s = game.structure
        if set(s.players()) != {MAX, MIN} or len(s.leaves()) > MAX_LEAVES_TWO:
            return None
        return game

    @staticmethod
    def _first(make, count: int) -> list[Game]:
        """The first `count` games the filter accepts, from generator seeds
        1, 2, 3, ... as in the acceptance suite."""
        games: list[Game] = []
        seed = 0
        while len(games) < count:
            seed += 1
            game = make(seed)
            if game is not None:
                games.append(game)
        return games

    def setup(self, seed: int, workdir: Path) -> list[Job]:
        rng = random.Random(seed)
        one = [_with_payoffs(g, rng) for g in self._first(self._one_player, RANDOM_ONE_PLAYER)]
        two = [_with_payoffs(g, rng) for g in self._first(self._two_player, RANDOM_TWO_PLAYER)]
        self.seed = seed
        self.inputs: list[object] = []
        span_out, cert_out = str(workdir / "span.json"), str(workdir / "cert.json")
        out = str(workdir / "out.json")
        jobs = []
        for game in one:
            k = len(self.inputs)
            self.inputs.append(game)
            doc = _write(workdir / f"random-{k}.json", serialize_game(game))
            commands = (
                ("classify", doc),
                ("solve", doc),
                ("span", doc, "-o", span_out, "--certificate", cert_out),
                ("transform", doc, "--certificate", cert_out, "-o", out),
            )
            jobs.append(Job(k, commands, (span_out, cert_out, out)))
        for game in two:
            k = len(self.inputs)
            certs = [minimal_span(extract_histories(game.structure, p)) for p in (MAX, MIN)]
            self.inputs.append(_TwoPlayer(game, len(certs[0].span) * len(certs[1].span)))
            doc = _write(workdir / f"random-{k}.json", serialize_game(game))
            cmax, cmin = (
                _write(workdir / f"random-{k}-{p}.json", serialize_certificate(c))
                for p, c in zip((MAX, MIN), certs)
            )
            command = ("compose", doc, "--max-cert", cmax, "--min-cert", cmin, "-o", out)
            jobs.append(Job(k, (command,), (out,)))
        rng.shuffle(jobs)
        return jobs

    def check(self, job: Job, outputs: tuple[str, ...]) -> list[str]:
        source = self.inputs[job.key]
        if isinstance(source, _TwoPlayer):
            composed = parse_game(outputs[-1])
            problems = _check_alr(composed) + _check_same_payoffs(
                source.game, composed, "compose"
            )
            if len(composed.structure.leaves()) != source.leaves:
                problems.append("composed leaf count is not the product of the spans")
            return problems

        classify_text, solve_text, _, _, span_text, cert_text, transformed_text = outputs
        game = source
        histories = extract_histories(game.structure)
        problems = []
        name = classify_text.removeprefix(f"{MAX}: ").strip()
        if name not in RecallClass.__members__:
            problems.append(f"classify printed {classify_text.strip()!r}")
        elif RecallClass[name].is_alr != is_alr_set(histories):
            problems.append(f"classify says {name}, the history-set test disagrees")
        problems += _check_value(game, solve_text, solve_bruteforce(game).value)
        span_game = parse_game(span_text)
        problems += _check_alr(span_game)
        problems += _check_certificate(
            cert_text,
            histories,
            extract_histories(span_game.structure),
            random.Random(self.seed * 7919 + job.key),
        )
        problems += _check_same_payoffs(game, parse_game(transformed_text), "transform")
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (LowerboundSpan, Pennies3Search, CertificateReplay, RandomMix)
}
