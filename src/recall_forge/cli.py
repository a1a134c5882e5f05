"""Command-line surface.

Every subcommand is a thin wrapper over the library: stdout and every
written file are a pure function of the input files and flags.  Exit
codes: 0 success, 1 usage or parse error, 2 negative mathematical answer
(no shuffle witness, a failed span verification), 3 guarded size limit
exceeded, which includes an input nested deeper than a recursive step
can follow.  A reader that closes stdout early (`recall-forge solve
g.json | head -1`) ends the run with exit 1 and no message.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional, Sequence as Seq

from .docio import (
    format_rational,
    parse_certificate,
    parse_game,
    serialize_certificate,
    serialize_game,
    structure_as_game,
)
from .generators import FamilyParams, gen_lowerbound, gen_pennies, gen_random
from .model import GameError, SizeLimitError, classify_recall
from .seqsets import extract_histories
from .shuffle import salr_witness
from .solver import solve
from .span import (
    NotAlrCandidateError,
    UnspannedSequenceError,
    minimal_span,
    realize_sequence_set,
    shuffle_depth,
    verify_span,
)
from .transform import compose_two_player, transfer_payoffs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_LIMIT = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _write(path: Optional[str], text: str, stdout) -> None:
    if path is None or path == "-":
        stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first call and reused after it, so
    a process that runs many commands builds it once."""
    parser = _Parser(prog="recall-forge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="recall class of every player")
    p.add_argument("file", nargs="?", default="-")

    p = sub.add_parser("shuffle", help="shuffled A-loss-recall witness structure")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("span", help="minimal A-loss-recall span")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--certificate", default=None, help="where to write the certificate")

    p = sub.add_parser("sd", help="shuffle depth of the history set")
    p.add_argument("file", nargs="?", default="-")

    p = sub.add_parser("transform", help="replay a span certificate into an equivalent game")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--certificate", required=True)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("solve", help="exact maxmin value and a pure strategy")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--method", choices=("auto", "bruteforce", "span"), default="auto")

    p = sub.add_parser("compose", help="two-player composition from two certificates")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--max-cert", required=True)
    p.add_argument("--min-cert", required=True)
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("verify-span", help="check one game's histories span another's")
    p.add_argument("original")
    p.add_argument("candidate")

    p = sub.add_parser("gen", help="generate a game document")
    gsub = p.add_subparsers(dest="family", required=True)
    gp = gsub.add_parser("pennies")
    gp.add_argument("--variant", choices=("I", "II", "III"), required=True)
    gp.add_argument("--n", type=int, required=True)
    gl = gsub.add_parser("lowerbound")
    gl.add_argument("--n", type=int, required=True)
    gr = gsub.add_parser("random")
    gr.add_argument("--seed", type=int, required=True)
    gr.add_argument("--depth", type=int, default=4)
    gr.add_argument("--branching", type=int, default=3)
    gr.add_argument("--players", type=int, default=1)
    gr.add_argument("--merge-prob", type=float, default=0.6)
    return parser


def cli_main(argv: Seq[str], stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        args = _parser().parse_args(list(argv))
        return _dispatch(args, stdout, stderr)
    except UsageError as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except SizeLimitError as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_LIMIT
    except RecursionError:
        stderr.write("error: input nested too deeply for this command (recursion limit)\n")
        return EXIT_LIMIT
    except GameError as exc:
        stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def _dispatch(args, stdout, stderr) -> int:
    if args.command == "verify-span":
        original_game = parse_game(_read(args.original))
        candidate_game = parse_game(_read(args.candidate))
        original = extract_histories(original_game.structure)
        candidate = extract_histories(candidate_game.structure)
        try:
            cert = verify_span(original, candidate)
        except (NotAlrCandidateError, UnspannedSequenceError) as exc:
            stderr.write(f"candidate does not span the original: {exc}\n")
            return EXIT_NEGATIVE
        stdout.write(serialize_certificate(cert))
        return EXIT_OK

    if args.command == "gen":
        if args.family == "pennies":
            game = gen_pennies(args.variant, args.n)
        elif args.family == "lowerbound":
            game = structure_as_game(realize_sequence_set(gen_lowerbound(args.n)))
        else:
            game = gen_random(
                FamilyParams(
                    family="random",
                    seed=args.seed,
                    depth=args.depth,
                    branching=args.branching,
                    players=args.players,
                    merge_prob=args.merge_prob,
                )
            )
        stdout.write(serialize_game(game))
        return EXIT_OK

    game = parse_game(_read(args.file))
    if args.command == "classify":
        for player in game.structure.players():
            stdout.write(f"{player}: {classify_recall(game.structure, player).name}\n")
        return EXIT_OK

    if args.command == "shuffle":
        result = salr_witness(extract_histories(game.structure))
        if not result.has_salr:
            detail = ""
            if result.failure is not None:
                shown = [" ".join(s) for s in result.failure.sorted_sequences()[:4]]
                detail = " (no covering information set for {%s%s})" % (
                    ", ".join(shown),
                    ", ..." if len(result.failure) > 4 else "",
                )
            stderr.write(f"no s-alr{detail}\n")
            return EXIT_NEGATIVE
        witness = realize_sequence_set(result.witness)
        _write(args.output, serialize_game(structure_as_game(witness)), stdout)
        return EXIT_OK

    if args.command == "span":
        cert = minimal_span(extract_histories(game.structure))
        structure = realize_sequence_set(cert.span)
        _write(args.output, serialize_game(structure_as_game(structure)), stdout)
        if args.certificate:
            _write(args.certificate, serialize_certificate(cert), stdout)
        return EXIT_OK

    if args.command == "sd":
        stdout.write(f"{shuffle_depth(extract_histories(game.structure))}\n")
        return EXIT_OK

    if args.command == "transform":
        cert = parse_certificate(_read(args.certificate))
        transformed = transfer_payoffs(game, cert)
        _write(args.output, serialize_game(transformed.game), stdout)
        return EXIT_OK

    if args.command == "solve":
        result = solve(game, method=args.method)
        stdout.write(format_rational(result.value) + "\n")
        for info in game.structure.infosets:
            stdout.write(f"{info.id}: {result.strategy.choice[info.id]}\n")
        return EXIT_OK

    if args.command == "compose":
        cmax = parse_certificate(_read(args.max_cert))
        cmin = parse_certificate(_read(args.min_cert))
        composed = compose_two_player(game, cmax, cmin)
        _write(args.output, serialize_game(composed.game), stdout)
        return EXIT_OK

    raise UsageError(f"unknown command {args.command!r}")


def main() -> None:
    if sys.stdout.write_through:
        # Unbuffered stdout (PYTHONUNBUFFERED, python -u) drops the rest of
        # a short write to a closed pipe without raising.  A buffered
        # writer retries short writes, so the closed pipe raises
        # BrokenPipeError below.
        sys.stdout = open(
            sys.stdout.fileno(),
            "w",
            encoding=sys.stdout.encoding,
            errors=sys.stdout.errors,
            closefd=False,
        )
    try:
        code = cli_main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so the flush at
        # interpreter exit cannot raise again (the recipe in the Python
        # docs for SIGPIPE).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()
