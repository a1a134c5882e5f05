from __future__ import annotations

import io
import json
from fractions import Fraction

import pytest

from recall_forge import cli, model
from recall_forge.cli import cli_main
from recall_forge.docio import (
    DocumentError,
    parse_certificate,
    parse_game,
    serialize_certificate,
    serialize_game,
)
from recall_forge.generators import FamilyParams, gen_pennies, gen_random
from recall_forge.polynomials import payoff_polynomial, poly_equal_under_constraints
from recall_forge.seqsets import extract_histories
from recall_forge.span import minimal_span

from conftest import player_chain


def run(argv, stdin_text=""):
    import sys

    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        code = cli_main(argv, stdout=out, stderr=err)
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def test_round_trip_identity():
    text = serialize_game(gen_pennies("I", 3))
    game = parse_game(text)
    assert serialize_game(game) == text


def test_round_trip_normalizes_chance_chains(tmp_path):
    doc = {
        "version": 1,
        "players": ["max"],
        "infosets": [],
        "root": {
            "kind": "chance",
            "children": [
                {
                    "prob": "1/2",
                    "node": {
                        "kind": "chance",
                        "children": [
                            {"prob": "1/3", "node": {"kind": "leaf", "payoff": "1"}},
                            {"prob": "2/3", "node": {"kind": "leaf", "payoff": "2"}},
                        ],
                    },
                },
                {"prob": "1/2", "node": {"kind": "leaf", "payoff": "3"}},
            ],
        },
    }
    once = serialize_game(parse_game(json.dumps(doc)))
    assert "1/6" in once
    assert serialize_game(parse_game(once)) == once


def test_parse_rejects_bad_distribution():
    doc = {
        "version": 1,
        "players": ["max"],
        "infosets": [],
        "root": {
            "kind": "chance",
            "children": [
                {"prob": "1/2", "node": {"kind": "leaf", "payoff": "0"}},
                {"prob": "1/3", "node": {"kind": "leaf", "payoff": "0"}},
            ],
        },
    }
    with pytest.raises(DocumentError, match="chance node"):
        parse_game(json.dumps(doc))


def test_parse_rejects_reused_action():
    doc = {
        "version": 1,
        "players": ["max"],
        "infosets": [
            {"id": "I1", "owner": "max", "actions": ["H", "x"]},
            {"id": "I2", "owner": "max", "actions": ["H", "y"]},
        ],
        "root": {
            "kind": "chance",
            "children": [
                {
                    "prob": "1/2",
                    "node": {
                        "kind": "player",
                        "infoset": "I1",
                        "children": [
                            {"action": "H", "node": {"kind": "leaf", "payoff": "0"}},
                            {"action": "x", "node": {"kind": "leaf", "payoff": "0"}},
                        ],
                    },
                },
                {
                    "prob": "1/2",
                    "node": {
                        "kind": "player",
                        "infoset": "I2",
                        "children": [
                            {"action": "H", "node": {"kind": "leaf", "payoff": "0"}},
                            {"action": "y", "node": {"kind": "leaf", "payoff": "0"}},
                        ],
                    },
                },
            ],
        },
    }
    with pytest.raises(DocumentError, match="'H'"):
        parse_game(json.dumps(doc))


def test_certificate_round_trip():
    game = gen_pennies("III", 3)
    cert = minimal_span(extract_histories(game.structure))
    text = serialize_certificate(cert)
    back = parse_certificate(text)
    assert back.original.sequences == cert.original.sequences
    assert back.span.sequences == cert.span.sequences
    assert back.combinations == cert.combinations
    assert back.span.universe is back.original.universe


def test_cli_solve_from_stdin():
    doc = serialize_game(gen_pennies("I", 3))
    code, out, err = run(["solve", "--method", "bruteforce"], stdin_text=doc)
    assert code == 0
    assert out.splitlines()[0] == "2/3"
    assert "A: H_A" in out


@pytest.mark.parametrize("command", ["classify", "solve", "span"])
def test_cli_validates_each_structure_once(tmp_path, monkeypatch, command):
    # parse_game validates the parsed structure, and the recall
    # classification after it reads that result instead of validating again
    path = tmp_path / "g.json"
    path.write_text(serialize_game(gen_random(FamilyParams("random", seed=3))))
    checked = []
    validate = model.validate

    def counting(structure):
        checked.append(structure)
        return validate(structure)

    monkeypatch.setattr(model, "validate", counting)
    code, _, err = run([command, str(path)])
    assert (code, err) == (0, "")
    assert checked and len({id(s) for s in checked}) == len(checked)


def test_cli_gen_solve_pipeline():
    code, doc, _ = run(["gen", "pennies", "--variant", "II", "--n", "3"])
    assert code == 0
    code, out, _ = run(["solve", "--method", "span"], stdin_text=doc)
    assert code == 0
    assert out.splitlines()[0] == "2/3"


def test_cli_classify_absentminded_style():
    doc = {
        "version": 1,
        "players": ["max"],
        "infosets": [{"id": "I1", "owner": "max", "actions": ["a", "b"]}],
        "root": {
            "kind": "player",
            "infoset": "I1",
            "children": [
                {
                    "action": "a",
                    "node": {
                        "kind": "player",
                        "infoset": "I1",
                        "children": [
                            {"action": "a", "node": {"kind": "leaf", "payoff": "1"}},
                            {"action": "b", "node": {"kind": "leaf", "payoff": "0"}},
                        ],
                    },
                },
                {"action": "b", "node": {"kind": "leaf", "payoff": "0"}},
            ],
        },
    }
    code, out, _ = run(["classify"], stdin_text=json.dumps(doc))
    assert code == 0
    assert out == "max: ABSENTMINDED\n"


def test_cli_shuffle_exit_codes(tmp_path):
    ok_doc = serialize_game(gen_pennies("II", 3))
    code, out, _ = run(["shuffle"], stdin_text=ok_doc)
    assert code == 0
    witness = parse_game(out)
    assert len(witness.structure.leaves()) == 8

    bad_doc = serialize_game(gen_pennies("III", 3))
    code, out, err = run(["shuffle"], stdin_text=bad_doc)
    assert code == 2
    assert err == (
        "no s-alr (no covering information set for "
        "{H_A0 H_BH, H_A0 T_BH, T_A0 H_BT, T_A0 T_BT, ...})\n"
    )


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_cli_shuffle_failure_is_hash_seed_free(hash_seed):
    """The reported failing subset depends on the order components are
    visited in, which must not follow Python's string hashing."""
    import os
    import pathlib
    import subprocess
    import sys

    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    cli_cmd = [sys.executable, "-m", "recall_forge.cli"]
    doc = subprocess.run(
        cli_cmd + ["gen", "random", "--seed", "353"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    ).stdout
    proc = subprocess.run(
        cli_cmd + ["shuffle"], input=doc, capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "no s-alr (no covering information set for "
        "{xI1_0 xI2_0, xI1_0 xI2_1, xI1_1 xI4_0, xI1_1 xI4_1, ...})\n"
    )


def test_cli_span_transform_pipeline(tmp_path):
    src = tmp_path / "game.json"
    cert = tmp_path / "cert.json"
    out_span = tmp_path / "span.json"
    out_game = tmp_path / "transformed.json"
    src.write_text(serialize_game(gen_pennies("III", 3)))

    code, _, _ = run(["span", str(src), "-o", str(out_span), "--certificate", str(cert)])
    assert code == 0
    span_game = parse_game(out_span.read_text())
    assert len(span_game.structure.leaves()) == 12

    code, _, _ = run(["transform", str(src), "--certificate", str(cert), "-o", str(out_game)])
    assert code == 0
    source = parse_game(src.read_text())
    transformed = parse_game(out_game.read_text())
    assert poly_equal_under_constraints(
        payoff_polynomial(source), payoff_polynomial(transformed)
    )
    code, out, _ = run(["solve", str(out_game)])
    assert code == 0
    assert out.splitlines()[0] == "2/3"


def test_cli_verify_span(tmp_path):
    src = tmp_path / "game.json"
    span_file = tmp_path / "span.json"
    src.write_text(serialize_game(gen_pennies("III", 3)))
    run(["span", str(src), "-o", str(span_file)])

    code, out, _ = run(["verify-span", str(src), str(span_file)])
    assert code == 0
    cert = parse_certificate(out)
    assert len(cert.span) == 12

    # a game cannot be spanned by something missing most of its actions
    other = tmp_path / "other.json"
    other.write_text(serialize_game(gen_pennies("I", 3)))
    code, out, err = run(["verify-span", str(src), str(other)])
    assert (code, out) == (2, "")
    assert err == "candidate does not span the original: no generator set for 'H_A0 H_BH'\n"

    # a candidate without A-loss recall spans nothing: a negative answer too
    no_alr = tmp_path / "no_alr.json"
    no_alr.write_text(serialize_game(gen_pennies("II", 3)))
    code, out, err = run(["verify-span", str(src), str(no_alr)])
    assert (code, out) == (2, "")
    assert err == "candidate does not span the original: candidate is not an A-loss-recall set\n"


def test_cli_verify_span_searches_once(tmp_path, monkeypatch):
    # a negative answer names the unspanned sequence from the one search
    # that found it
    from recall_forge import span

    searches = []
    search = span._generator_sets

    def counting(original, candidate):
        searches.append(len(original))
        return search(original, candidate)

    monkeypatch.setattr(span, "_generator_sets", counting)
    src = tmp_path / "game.json"
    other = tmp_path / "other.json"
    src.write_text(serialize_game(gen_pennies("III", 3)))
    other.write_text(serialize_game(gen_pennies("I", 3)))
    code, out, err = run(["verify-span", str(src), str(other)])
    assert (code, out) == (2, "")
    assert err == "candidate does not span the original: no generator set for 'H_A0 H_BH'\n"
    assert len(searches) == 1


def test_cli_compose(tmp_path):
    from conftest import build_two_player_demo
    from recall_forge.model import MAX, MIN

    game = build_two_player_demo([Fraction(i) for i in range(1, 9)])
    src = tmp_path / "two.json"
    src.write_text(serialize_game(game))
    cmax = tmp_path / "max.json"
    cmin = tmp_path / "min.json"
    cmax.write_text(
        serialize_certificate(minimal_span(extract_histories(game.structure, MAX)))
    )
    cmin.write_text(
        serialize_certificate(minimal_span(extract_histories(game.structure, MIN)))
    )
    out_file = tmp_path / "composed.json"
    code, _, _ = run(
        ["compose", str(src), "--max-cert", str(cmax), "--min-cert", str(cmin), "-o", str(out_file)]
    )
    assert code == 0
    composed = parse_game(out_file.read_text())
    assert len(composed.structure.leaves()) == 16


def test_cli_compose_rejects_foreign_span_infosets(tmp_path):
    # a Min certificate whose span adds an information set the source lacks
    from conftest import build_two_player_demo
    from recall_forge.model import MAX, MIN

    game = build_two_player_demo([Fraction(i) for i in range(1, 9)])
    src = tmp_path / "two.json"
    src.write_text(serialize_game(game))
    cmax = tmp_path / "max.json"
    cmax.write_text(
        serialize_certificate(minimal_span(extract_histories(game.structure, MAX)))
    )
    doc = json.loads(
        serialize_certificate(minimal_span(extract_histories(game.structure, MIN)))
    )
    doc["infosets"].append({"id": "Z", "owner": MIN, "actions": ["z1", "z2"]})
    doc["span"] += [["z1"], ["z2"]]
    cmin = tmp_path / "min.json"
    cmin.write_text(json.dumps(doc))
    code, out, err = run(["compose", str(src), "--max-cert", str(cmax), "--min-cert", str(cmin)])
    assert code == 1 and out == ""
    assert err == "error: min certificate does not match the min projection\n"


def test_cli_sd_and_bench():
    doc = serialize_game(gen_pennies("III", 3))
    code, out, _ = run(["sd"], stdin_text=doc)
    assert code == 0 and out.strip() == "2"

    # span growth is printed by scripts/worked_examples.py, not by the CLI
    code, out, err = run(["bench", "--family", "lowerbound", "--n-max", "4"])
    assert (code, out) == (1, "")
    assert err.startswith("error: argument command: invalid choice: 'bench'")
    assert err.count("\n") == 1


def test_cli_contract(tmp_path):
    """README's CLI block names exactly the parser's commands, and each
    command's exit code, stdout and written files are a function of its
    inputs: two runs on the same files agree byte for byte."""
    import argparse
    import pathlib
    import re

    from conftest import build_two_player_demo
    from recall_forge.model import MAX, MIN

    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    commands = set(sub.choices)
    assert set(re.findall(r"recall-forge ([a-z-]+)", block)) == commands

    inputs, outputs = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    game = gen_pennies("III", 3)
    cert = minimal_span(extract_histories(game.structure))
    two = build_two_player_demo([Fraction(i) for i in range(1, 9)])
    docs = {
        "III.json": serialize_game(game),
        "II.json": serialize_game(gen_pennies("II", 3)),
        "cert.json": serialize_certificate(cert),
        "span.json": run(["span"], stdin_text=serialize_game(game))[1],
        "two.json": serialize_game(two),
        "max.json": serialize_certificate(minimal_span(extract_histories(two.structure, MAX))),
        "min.json": serialize_certificate(minimal_span(extract_histories(two.structure, MIN))),
    }
    for name, text in docs.items():
        (inputs / name).write_text(text)
    i = {name: str(inputs / name) for name in docs}
    o = {name: str(outputs / name) for name in ("a.json", "b.json")}
    cases = [
        ["classify", i["III.json"]],
        ["shuffle", i["II.json"], "-o", o["a.json"]],
        ["shuffle", i["III.json"]],
        ["span", i["III.json"], "-o", o["a.json"], "--certificate", o["b.json"]],
        ["sd", i["III.json"]],
        ["transform", i["III.json"], "--certificate", i["cert.json"], "-o", o["a.json"]],
        ["solve", i["III.json"]],
        ["solve", i["III.json"], "--method", "bruteforce"],
        ["solve", i["III.json"], "--method", "span"],
        ["compose", i["two.json"], "--max-cert", i["max.json"], "--min-cert", i["min.json"],
         "-o", o["a.json"]],
        ["verify-span", i["III.json"], i["span.json"]],
        ["gen", "pennies", "--variant", "III", "--n", "3"],
        ["gen", "lowerbound", "--n", "3"],
        ["gen", "random", "--seed", "3"],
    ]
    assert {argv[0] for argv in cases} == commands

    def outcome(argv):
        outputs.mkdir()
        code, out, _ = run(argv)
        files = {p.name: p.read_bytes() for p in sorted(outputs.iterdir())}
        for p in outputs.iterdir():
            p.unlink()
        outputs.rmdir()
        return code, out, files

    for argv in cases:
        first = outcome(argv)
        assert first[0] in (0, 2), argv
        assert outcome(argv) == first, argv


def test_cli_gen_lowerbound_span_size():
    code, doc, _ = run(["gen", "lowerbound", "--n", "6"])
    assert code == 0
    code, out, _ = run(["span"], stdin_text=doc)
    assert code == 0
    span_game = parse_game(out)
    assert len(span_game.structure.leaves()) == 64


def test_cli_usage_errors(tmp_path):
    code, _, err = run(["solve", "/nonexistent/game.json"])
    assert code == 1
    code, _, err = run(["solve"], stdin_text="{not json")
    assert code == 1
    code, _, err = run(["gen", "pennies", "--variant", "IV", "--n", "3"])
    assert code == 1
    # a child that is not an object is a document error, not a traceback
    infosets = [{"id": "I", "owner": "max", "actions": ["a"]}]
    for kind, kids, shown in (("chance", [5], "5"), ("player", ["x"], "'x'")):
        root = {"kind": kind, "infoset": "I", "children": kids}
        doc = json.dumps({"version": 1, "players": ["max"], "infosets": infosets, "root": root})
        code, _, err = run(["solve"], stdin_text=doc)
        assert code == 1
        assert err == f"error: root.children[0]: expected an object, got {shown}\n"
    # nesting deeper than the JSON decoder's recursion limit is a document
    # error too, for games and for certificates
    deep = tmp_path / "deep.json"
    deep.write_text('{"a":' * 1200 + "1" + "}" * 1200)
    game = tmp_path / "game.json"
    game.write_text(serialize_game(gen_pennies("III", 3)))
    for argv in (
        ["classify", str(deep)],
        ["span", str(deep)],
        ["transform", str(game), "--certificate", str(deep)],
    ):
        code, out, err = run(argv)
        assert code == 1
        assert out == ""
        assert err == "error: not valid JSON: nested too deeply\n"
    # an output path that cannot be written, and an input that is not UTF-8
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    missing = tmp_path / "missing" / "x.json"
    for argv, message in (
        (["span", str(game), "-o", str(missing)], f"error: cannot write {missing}: "),
        (["span", str(game), "--certificate", str(missing)], f"error: cannot write {missing}: "),
        (["classify", str(utf16)], f"error: cannot read {utf16}: 'utf-8' codec can't decode"),
    ):
        code, _, err = run(argv)
        assert code == 1
        assert err.startswith(message)
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "Traceback" not in err
    # a random game needs at least two children per inner node
    for branching in ("1", "0"):
        code, out, err = run(["gen", "random", "--seed", "1", "--branching", branching])
        assert (code, out) == (1, "")
        assert err == "error: branching must be at least 2\n"
    # certificate fields that must be lists of nonempty strings; each
    # string below would read as a list of one-letter actions
    infosets = [{"id": "I", "owner": "max", "actions": ["a", "b"]}]
    root = {
        "kind": "player",
        "infoset": "I",
        "children": [
            {"action": a, "node": {"kind": "leaf", "payoff": p}} for a, p in (("a", "1"), ("b", "2"))
        ],
    }
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"version": 1, "players": ["max"], "infosets": infosets, "root": root}))
    cert_path = tmp_path / "small-cert.json"
    assert run(["span", str(small), "--certificate", str(cert_path), "-o", str(tmp_path / "s.json")])[0] == 0
    assert run(["transform", str(small), "--certificate", str(cert_path)])[0] == 0
    good = json.loads(cert_path.read_text())
    bad = tmp_path / "bad-cert.json"
    for field, edit in (
        ("infosets[0].actions", lambda d: d["infosets"][0].update(actions="ab")),
        ("original", lambda d: d.update(original=["a", "b"])),
        ("span", lambda d: d.update(span=["a", "b"])),
        ("span", lambda d: d.update(span="ab")),
        ("combinations[0].sequence", lambda d: d["combinations"][0].update(sequence="a")),
        ("combinations[0].sequence", lambda d: d["combinations"][0].update(sequence=["a", ""])),
        ("combinations[0].generators", lambda d: d["combinations"][0].update(generators=["a"])),
        ("combinations[1].generators", lambda d: d["combinations"][1].update(generators=[["b", 1]])),
    ):
        doc = json.loads(json.dumps(good))
        edit(doc)
        bad.write_text(json.dumps(doc))
        code, out, err = run(["transform", str(small), "--certificate", str(bad)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: malformed certificate: {field}: expected a list")
        assert err.count("\n") == 1
    # the certificate's information sets are read as a game's are
    for edit, message in (
        (lambda d: d["infosets"][0].pop("id"), "infosets[0]: missing 'id'"),
        (lambda d: d.update(infosets=1), "infosets: expected a list"),
        (lambda d: d["infosets"].__setitem__(0, "I"), "infosets[0]: expected an object"),
    ):
        doc = json.loads(json.dumps(good))
        edit(doc)
        bad.write_text(json.dumps(doc))
        code, out, err = run(["transform", str(small), "--certificate", str(bad)])
        assert (code, out) == (1, "")
        assert err == f"error: malformed certificate: {message}\n"


def test_cli_deep_input_is_a_size_limit(tmp_path):
    # a valid 300-level player chain, one information set per level, each
    # with an exit leaf: within the document writer's and reader's depth,
    # and within the depth the span and shuffle-depth searches recurse to
    path = tmp_path / "chain.json"
    chain = player_chain(300)
    path.write_text(serialize_game(chain))
    code, out, _ = run(["classify", str(path)])
    assert (code, out) == (0, "max: PFR\n")
    code, out, err = run(["span", str(path)])
    assert (code, err) == (0, "")
    spanned = extract_histories(parse_game(out).structure)
    assert spanned.sequences == extract_histories(chain.structure).sequences
    assert run(["sd", str(path)]) == (0, "0\n", "")


def test_cli_recursion_error_is_a_size_limit(tmp_path, monkeypatch):
    # a command that recurses past the interpreter's limit ends with exit 3
    # and one line, never a traceback
    def endless(ss, depth=0):
        return endless(ss, depth + 1)

    monkeypatch.setattr(cli, "minimal_span", endless)
    path = tmp_path / "game.json"
    path.write_text(serialize_game(gen_pennies("I", 2)))
    assert run(["span", str(path)]) == (
        3,
        "",
        "error: input nested too deeply for this command (recursion limit)\n",
    )


def test_cli_reuses_one_parser(tmp_path):
    """Commands run one after another in a process share one argument
    parser; each must behave as it does with a freshly built one."""
    from recall_forge import cli

    src = tmp_path / "game.json"
    src.write_text(serialize_game(gen_pennies("III", 3)))
    commands = [
        ["span", str(src), "-o", str(tmp_path / "span.json"), "--certificate", str(tmp_path / "cert.json")],
        ["span", str(src)],
        ["solve", str(src), "--method", "nope"],
        ["gen", "random", "--seed", "1"],
    ]

    def outcome(argv):
        for name in ("span.json", "cert.json"):
            (tmp_path / name).unlink(missing_ok=True)
        result = run(argv)
        files = tuple(
            (tmp_path / name).read_text() if (tmp_path / name).exists() else None
            for name in ("span.json", "cert.json")
        )
        return result, files

    fresh = []
    for argv in commands:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    cli._parser.cache_clear()
    shared = [outcome(argv) for argv in commands]
    assert cli._parser.cache_info().misses == 1
    assert shared == fresh
    codes = [code for (code, _, _), _ in shared]
    assert codes == [0, 0, 1, 0]
    assert shared[0][1][0] == shared[1][0][1]  # -o wrote what stdout shows
    assert shared[1][1] == (None, None)  # the earlier paths did not stick


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_cli_closed_stdout_pipe(unbuffered):
    """A reader that stops early ends the run with exit 1, not a traceback.

    The output (about 1.2 MB) is larger than a pipe buffer, so the writer
    is still writing when the pipe closes.  The child runs once with
    buffered stdout and once with PYTHONUNBUFFERED=1, where the text layer
    writes straight through and would drop the rest of a short write
    without raising unless the CLI buffers stdout itself.
    """
    import os
    import pathlib
    import subprocess
    import sys

    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "recall_forge.cli", "gen", "lowerbound", "--n", "40"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == ""


def test_cli_guard_exit_code(monkeypatch):
    monkeypatch.setenv("RECALL_FORGE_MAX_PURE", "2")
    doc = serialize_game(gen_pennies("I", 3))
    code, _, err = run(["solve", "--method", "bruteforce"], stdin_text=doc)
    assert code == 3


@pytest.mark.parametrize(
    "raw, expected",
    [("abc", 1), (" 4 ", 0), (" 3 ", 3), ("", 0)],
    ids=["malformed", "blanks", "over-guard", "empty"],
)
def test_cli_guard_value_parsing(monkeypatch, raw, expected):
    # pennies I n = 3 has 4 pure strategies; surrounding blanks are allowed
    # and an empty value means the default guard
    monkeypatch.setenv("RECALL_FORGE_MAX_PURE", raw)
    doc = serialize_game(gen_pennies("I", 3))
    code, out, err = run(["solve", "--method", "bruteforce"], stdin_text=doc)
    assert code == expected
    if raw == "abc":
        assert out == ""
        assert err == "error: RECALL_FORGE_MAX_PURE='abc' is not an integer\n"


def test_cli_search_budget(monkeypatch):
    # random seed 59 at the acceptance suite's parameters keeps the span
    # search busy for over a minute; the subproblem budget ends it
    params = FamilyParams(family="random", seed=59, depth=6, branching=3)
    doc = serialize_game(gen_random(params))
    monkeypatch.setenv("RECALL_FORGE_MAX_SUBPROBLEMS", "1000")
    for command in ("span", "sd"):
        code, out, err = run([command], stdin_text=doc)
        assert (code, out) == (3, "")
        assert err == "error: the search passed 1000 subproblems (RECALL_FORGE_MAX_SUBPROBLEMS)\n"
    monkeypatch.setenv("RECALL_FORGE_MAX_SUBPROBLEMS", "1e3")
    code, out, err = run(["span"], stdin_text=doc)
    assert (code, out) == (1, "")
    assert err == "error: RECALL_FORGE_MAX_SUBPROBLEMS='1e3' is not an integer\n"


GOLDEN_CASES = [
    (["classify"], ("pennies", "I"), "classify_pennies_I_n3.txt"),
    (["classify"], ("pennies", "II"), "classify_pennies_II_n3.txt"),
    (["classify"], ("pennies", "III"), "classify_pennies_III_n3.txt"),
    (["solve"], ("pennies", "I"), "solve_pennies_I_n3.txt"),
    (["solve"], ("pennies", "II"), "solve_pennies_II_n3.txt"),
    (["solve"], ("pennies", "III"), "solve_pennies_III_n3.txt"),
    (["shuffle"], ("pennies", "II"), "shuffle_pennies_II_n3.json"),
    (["span"], ("pennies", "I"), "span_pennies_I_n3.json"),
    (["span"], ("pennies", "II"), "span_pennies_II_n3.json"),
    (["span"], ("pennies", "III"), "span_pennies_III_n3.json"),
    (["span"], ("lowerbound", 1), "span_lowerbound_n1.json"),
    (["span"], ("lowerbound", 2), "span_lowerbound_n2.json"),
    (["span"], ("lowerbound", 3), "span_lowerbound_n3.json"),
    (["sd"], ("pennies", "III"), "sd_pennies_III_n3.txt"),
    # the span game, then its certificate, both on stdout
    (["span", "--certificate", "-"], ("pennies", "III"), "span_certificate_pennies_III_n3.json"),
    (["span", "--certificate", "-"], ("lowerbound", 3), "span_certificate_lowerbound_n3.json"),
]


@pytest.mark.parametrize("argv,source,golden", GOLDEN_CASES, ids=[g for _, _, g in GOLDEN_CASES])
def test_cli_golden_outputs(argv, source, golden):
    import pathlib

    kind, which = source
    if kind == "pennies":
        code, doc, _ = run(["gen", "pennies", "--variant", which, "--n", "3"])
    else:
        code, doc, _ = run(["gen", "lowerbound", "--n", str(which)])
    assert code == 0
    code, out, _ = run(argv, stdin_text=doc)
    assert code == 0
    expected = (pathlib.Path(__file__).parent / "golden" / golden).read_text()
    assert out == expected


def test_cli_transform_certificate_mismatch(tmp_path):
    src = tmp_path / "game.json"
    cert = tmp_path / "cert.json"
    other = tmp_path / "other.json"
    src.write_text(serialize_game(gen_pennies("III", 3)))
    other.write_text(serialize_game(gen_pennies("II", 3)))
    run(["span", str(other), "-o", "-", "--certificate", str(cert)])
    code, _, err = run(["transform", str(src), "--certificate", str(cert)])
    assert code == 1
    assert "does not match" in err
