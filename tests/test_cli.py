"""Command-line behavior: exit codes, output formats, JSON schemas."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from pitc import InternalError, cli
from pitc.cli import main

SCHEMAS = Path(__file__).resolve().parents[1] / "src" / "pitc" / "schemas"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validate(payload: dict, schema_name: str) -> None:
    if jsonschema is None:
        pytest.skip("jsonschema not installed")
    schema = json.loads((SCHEMAS / schema_name).read_text())
    jsonschema.validate(payload, schema)


class TestParse:
    def test_round_trip_echo(self, capsys):
        code, out = run(capsys, "parse", "x!y.0 | x?(z).0")
        assert code == 0
        assert out.strip() == "x!y.0 | x?(b0).0"

    def test_parser_does_not_rewrite(self, capsys):
        code, out = run(capsys, "parse", "nu x. (x!y.0 + 0)")
        assert code == 0
        assert "+ 0" in out

    def test_malformed_is_usage_error(self, capsys):
        code, _ = run(capsys, "parse", "x!.0")
        assert code == 2

    def test_parse_from_file(self, capsys, tmp_path):
        f = tmp_path / "term.txt"
        f.write_text("a!u.0 | tau.0  # comment\n")
        code, out = run(capsys, "parse", "--file", str(f))
        assert code == 0
        assert out.strip() == "a!u.0 | tau.0"


class TestStep:
    def test_tau_listing(self, capsys):
        code, out = run(capsys, "step", "tau.0")
        assert code == 0
        assert out.strip() == "{tau} -> 0"

    def test_com_only(self, capsys):
        code, out = run(capsys, "step", "x!y.0 | x?(z).0")
        assert code == 0
        assert out.strip() == "{tau} -> 0 | 0"

    def test_nil_empty_ok(self, capsys):
        code, out = run(capsys, "step", "0")
        assert code == 0
        assert out.strip() == ""

    def test_json_schema(self, capsys):
        code, out = run(capsys, "step", "a!u.0 | c!v.0", "--json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "transitions.schema.json")
        assert payload["transitions"][0]["label"] == ["a!u", "c!v"]

    def test_unguarded_is_budget_error(self, capsys, tmp_path):
        f = tmp_path / "defs.pitc"
        f.write_text("C(a, b) := C(a, b) + a!b.0\n")
        code, _ = run(capsys, "step", "C(a, b)", "--env", str(f))
        assert code == 3


class TestCheck:
    HHP_PAIR = ("(a!u.0 + b!v.0) | c!w.0", "(a!u.0 | c!w.0) + (b!v.0 | c!w.0)")

    def test_hhp_counterexample_exit_one(self, capsys):
        code, out = run(capsys, "check", "--rel", "hhp", *self.HHP_PAIR,
                        "--depth", "4")
        assert code == 1
        assert "NOT equivalent" in out

    def test_hp_same_pair_exit_zero(self, capsys):
        code, out = run(capsys, "check", "--rel", "hp", *self.HHP_PAIR,
                        "--depth", "4")
        assert code == 0

    def test_reflexivity(self, capsys):
        code, _ = run(capsys, "check", "--rel", "step", "tau.0", "tau.0")
        assert code == 0

    def test_json_schema(self, capsys):
        for rel, expect in (("step", 0), ("hhp", 1)):
            code, out = run(capsys, "check", "--rel", rel, *self.HHP_PAIR,
                            "--depth", "4", "--json")
            assert code == expect
            validate(json.loads(out), "verdict.schema.json")

    def test_bad_depth_usage(self, capsys):
        code, _ = run(capsys, "check", "--rel", "step", "0", "0",
                      "--depth", "0")
        assert code == 2

    def test_zero_max_pomset_usage(self, capsys):
        code = main(["check", "--rel", "pomset", "a!b.0", "a!b.0",
                     "--max-pomset", "0"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --max-pomset must be at least 1\n")

    def test_budget_env_var_is_exit_three(self, capsys, monkeypatch):
        monkeypatch.setenv("PITC_STATE_BUDGET", "2")
        code, _ = run(capsys, "check", "--rel", "step",
                      "a!u.tau.0 + b!v.0", "a!u.tau.0 + b!v.tau.0")
        assert code == 3


class TestProve:
    def test_named_term_sum_idempotence(self, capsys, tmp_path):
        f = tmp_path / "defs.pitc"
        f.write_text("P = a!u.0 + tau.b!v.0\n")
        code, out = run(capsys, "prove", "P + P", "P", "--env", str(f))
        assert code == 0
        assert "provable" in out

    def test_vacuous_restriction_with_trace(self, capsys):
        code, out = run(capsys, "prove", "nu y. a!u.0", "a!u.0", "--trace")
        assert code == 0
        assert "R0" in out

    def test_distinct_heads_fail(self, capsys):
        code, out = run(capsys, "prove", "a!u.0", "b!u.0")
        assert code == 1
        assert "not provable" in out

    def test_json_schema(self, capsys):
        code, out = run(capsys, "prove", "nu y. a!u.0", "a!u.0", "--json")
        assert code == 0
        validate(json.loads(out), "proof.schema.json")
        code, out = run(capsys, "prove", "a!u.0", "b!u.0", "--json")
        assert code == 1
        validate(json.loads(out), "proof.schema.json")


class TestUnfold:
    def test_chain_counts(self, capsys):
        code, out = run(capsys, "unfold", "tau.tau.0", "--depth", "2")
        assert code == 0
        assert "3 configuration(s), 2 step edge(s), 2 event(s)" in out

    def test_pair_step(self, capsys):
        code, out = run(capsys, "unfold", "a!u.0 | c!v.0", "--depth", "1")
        assert code == 0
        assert "2 configuration(s), 1 step edge(s), 2 event(s)" in out

    def test_zero_depth_usage(self, capsys):
        code, _ = run(capsys, "unfold", "tau.0", "--depth", "0")
        assert code == 2

    def test_dot_output(self, capsys):
        code, out = run(capsys, "unfold", "tau.0", "--dot")
        assert code == 0
        assert out.startswith("digraph")

    def test_json_schema(self, capsys):
        code, out = run(capsys, "unfold", "(a!u.0 + b!v.0) | c!w.0",
                        "--depth", "2", "--json")
        assert code == 0
        validate(json.loads(out), "unfolding.schema.json")

    def test_budget_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("PITC_STATE_BUDGET", "1")
        code, _ = run(capsys, "unfold", "a!u.0 + b!v.0", "--depth", "1")
        assert code == 3


@pytest.mark.parametrize("argv", [
    ("check", "a!b.0", "a!b.0"),
    ("unfold", "a!b.0"),
], ids=lambda argv: argv[0])
def test_bad_budget_env_var_is_usage_error(capsys, monkeypatch, argv):
    for raw, message in (
            ("abc", "error: PITC_STATE_BUDGET must be an integer, got 'abc'\n"),
            ("0", "error: PITC_STATE_BUDGET must be positive, got '0'\n"),
            ("-1", "error: PITC_STATE_BUDGET must be positive, got '-1'\n")):
        monkeypatch.setenv("PITC_STATE_BUDGET", raw)
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 2, raw
        assert captured.out == ""
        assert captured.err == message


def _unreadable(tmp_path, kind: str) -> str:
    """A path the CLI cannot read as text."""
    if kind == "missing":
        return str(tmp_path / "missing.pitc")
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / "binary.pitc"
    path.write_bytes(b"P = a!b.0\n\xc0\xff\n")
    return str(path)


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
@pytest.mark.parametrize("argv", [
    ("parse", "--file", "{}"),
    ("parse", "a!b.0", "--env", "{}"),
    ("step", "a!b.0", "--env", "{}"),
    ("check", "a!b.0", "a!b.0", "--env", "{}"),
    ("prove", "a!b.0", "a!b.0", "--env", "{}"),
    ("unfold", "a!b.0", "--env", "{}"),
], ids=lambda argv: " ".join(argv[:2]))
def test_unreadable_file_is_usage_error(capsys, tmp_path, kind, argv):
    path = _unreadable(tmp_path, kind)
    code = main([arg.format(path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: cannot read {path}: ")


def test_prove_implies_step_check(capsys):
    # End-to-end soundness: a provable pair passes the step checker.
    pairs = [("x!y.0 | x?(z).0", "tau.(0 | 0)"),
             ("a!u.0 + a!u.0", "a!u.0")]
    for p, q in pairs:
        assert run(capsys, "prove", p, q)[0] == 0
        assert run(capsys, "check", "--rel", "step", p, q)[0] == 0


class TestDeepTerms:
    """Deep nesting answers, or exits with its own code and one line."""

    @staticmethod
    def run_cli(*argv) -> subprocess.CompletedProcess:
        # A fresh interpreter, so the test runner's frames do not count
        # against the recursion limit.
        return subprocess.run([sys.executable, "-m", "pitc.cli", *argv],
                              capture_output=True, text=True)

    def test_three_hundred_prefixes_answer(self):
        term = "tau." * 300 + "0"
        proc = self.run_cli("check", "--rel", "step", term, term)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("step: equivalent")

    def test_too_deep_is_exit_four(self):
        term = "tau." * 2000 + "0"
        proc = self.run_cli("check", "--rel", "step", term, term)
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.strip().splitlines() == [
            "error: term nested too deeply for the recursion limit"]


def test_internal_error_is_exit_five(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InternalError("one configuration reached with two residuals")
    monkeypatch.setattr(cli, "unfold", broken)
    assert main(["unfold", "tau.0"]) == 5
    assert capsys.readouterr().err.startswith("internal error: ")


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pitc.cli", "step", "tau.0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "{tau} -> 0"


def test_closed_pipe_keeps_the_answer_exit_code():
    # `pitc check ... --json | head -1`: the reader takes one line and
    # closes the pipe.  The pipe is shrunk to one page so that the JSON
    # (about 20 kB) cannot fit before the reader closes it.
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the pipe capacity cannot be set on this platform")
    term = " | ".join(f"(a{i}!u.0 + b{i}!v.0)" for i in range(4))
    r, w = os.pipe()
    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "pitc.cli", "check", "--rel", "hhp", term,
         term, "--json"], stdout=w, stderr=subprocess.PIPE, text=True)
    os.close(w)
    with os.fdopen(r) as reader:
        assert reader.readline() == "{\n"
    _, err = proc.communicate(timeout=60)
    assert err == ""
    assert proc.returncode == 0
