"""Command-line front end: parse, step, check, prove, unfold.

Exit codes: 0 success / equivalent / proved, 1 not equivalent / not
provable, 2 usage, parse or unreadable-file error, 3 budget or guardedness
error, 4 a term nested too deeply for the interpreter's recursion limit,
5 internal error (a broken invariant of the workbench itself).  The node
budget for unfolding and checking can be overridden with the
PITC_STATE_BUDGET environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .errors import (
    BadDefinition, DepthExceeded, InternalError, NotWeaklyGuarded, ParseError,
    PitcError, StateBudgetExceeded, UnguardedRecursion, UnknownIdentifier,
)
from .parser import SourceFile, format_process, parse_file, parse_term
from .syntax import EMPTY_ENV, Environment, Process, canonical
from .semantics import transition_json, transitions
from .unfolding import DEFAULT_STATE_BUDGET, unfold
from .equivalences import DEFAULT_DEPTH, DEFAULT_MAX_POMSET, check
from .prover import prove_eq

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_TOO_DEEP = 4
EXIT_INTERNAL = 5

_BUDGET_ERRORS = (UnguardedRecursion, StateBudgetExceeded, NotWeaklyGuarded,
                  DepthExceeded)


def _budget() -> int:
    raw = os.environ.get("PITC_STATE_BUDGET")
    if raw is None:
        return DEFAULT_STATE_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise PitcError(f"PITC_STATE_BUDGET must be an integer, got {raw!r}") from None
    if budget < 1:
        raise PitcError(f"PITC_STATE_BUDGET must be positive, got {raw!r}")
    return budget


def _read(path: str) -> str:
    """The text of the file at `path`; one that cannot be read is a usage
    error, not a traceback."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise PitcError(f"cannot read {path}: {reason}") from None


def _load_env(path: Optional[str]) -> tuple[Environment, SourceFile]:
    if path is None:
        return EMPTY_ENV, SourceFile()
    src = parse_file(_read(path))
    return src.environment(), src


def _print(text: str) -> None:
    """Print `text` to standard output.  A reader that closes the pipe
    early (`pitc ... | head -1`) ends the output but not the command,
    whose exit code stays that of its answer.  As the SIGPIPE note of
    Python's `signal` docs advises, standard output then goes to the null
    device, so that neither a later print nor the flush at exit fails."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _term(text: str, src: SourceFile) -> Process:
    return parse_term(text, src.named)


def cmd_parse(args: argparse.Namespace) -> int:
    text = _read(args.file) if args.file else args.term
    _, src = _load_env(args.env)
    p = _term(text, src)
    _print(format_process(canonical(p)))
    return EXIT_OK


def cmd_step(args: argparse.Namespace) -> int:
    env, src = _load_env(args.env)
    p = _term(args.term, src)
    ts = transitions(p, env)
    if args.json:
        _print(json.dumps({"transitions": [transition_json(t) for t in ts]},
                          indent=2))
    else:
        for t in ts:
            _print(str(t))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    env, src = _load_env(args.env)
    if args.depth < 1:
        print("error: --depth must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.max_pomset < 1:
        print("error: --max-pomset must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    p = _term(args.p, src)
    q = _term(args.q, src)
    verdict = check(args.rel, p, q, env, args.depth, args.max_pomset,
                    budget=_budget())
    if args.json:
        _print(json.dumps(verdict.to_json(), indent=2))
    else:
        scope = "exact" if verdict.exact else f"up to depth {verdict.depth}"
        word = "equivalent" if verdict.equivalent else "NOT equivalent"
        _print(f"{args.rel}: {word} ({scope})")
        if not verdict.equivalent and verdict.distinguisher:
            _print(f"distinguisher: {json.dumps(verdict.distinguisher)}")
    return EXIT_OK if verdict.equivalent else EXIT_NEGATIVE


def cmd_prove(args: argparse.Namespace) -> int:
    env, src = _load_env(args.env)
    p = _term(args.p, src)
    q = _term(args.q, src)
    ok, detail = prove_eq(p, q, env)
    if args.json:
        if ok:
            steps = [s.to_json() for s in detail]  # type: ignore[union-attr]
            _print(json.dumps({"provable": True, "trace": steps}, indent=2))
        else:
            _print(json.dumps({"provable": False, "distinguisher": detail},
                              indent=2))
    else:
        if ok:
            _print("provable")
            if args.trace:
                for s in detail:  # type: ignore[union-attr]
                    _print(f"  {s.render()}")
        else:
            _print(f"not provable: {json.dumps(detail)}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def cmd_unfold(args: argparse.Namespace) -> int:
    env, src = _load_env(args.env)
    if args.depth < 1:
        print("error: --depth must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    p = _term(args.term, src)
    u = unfold(p, env, args.depth, budget=_budget())
    if args.dot:
        _print(u.to_dot())
    elif args.json:
        _print(json.dumps(u.to_json(), indent=2))
    else:
        data = u.to_json()
        _print(f"{len(data['nodes'])} configuration(s), "
               f"{len(data['edges'])} step edge(s), "
               f"{len(data['events'])} event(s)")
        for e in data["edges"]:
            _print(f"  {e['source']} -{{{', '.join(e['labels'])}}}-> {e['target']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pitc",
        description="Workbench for a truly concurrent mobile-process calculus.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="echo a term in canonical form")
    p_parse.add_argument("term", nargs="?", default=None)
    p_parse.add_argument("--file", help="read the term from a file")
    p_parse.add_argument("--env", help="definitions file (.pitc)")
    p_parse.set_defaults(fn=cmd_parse)

    p_step = sub.add_parser("step", help="list the one-step transitions")
    p_step.add_argument("term")
    p_step.add_argument("--env")
    p_step.add_argument("--json", action="store_true")
    p_step.set_defaults(fn=cmd_step)

    p_check = sub.add_parser("check", help="decide a truly concurrent bisimilarity")
    p_check.add_argument("--rel", choices=("step", "pomset", "hp", "hhp"),
                         default="step")
    p_check.add_argument("p")
    p_check.add_argument("q")
    p_check.add_argument("--env")
    p_check.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p_check.add_argument("--max-pomset", type=int, default=DEFAULT_MAX_POMSET)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(fn=cmd_check)

    p_prove = sub.add_parser("prove", help="prove an equation in the axiom system")
    p_prove.add_argument("p")
    p_prove.add_argument("q")
    p_prove.add_argument("--env")
    p_prove.add_argument("--trace", action="store_true")
    p_prove.add_argument("--json", action="store_true")
    p_prove.set_defaults(fn=cmd_prove)

    p_unfold = sub.add_parser("unfold", help="export the bounded unfolding")
    p_unfold.add_argument("term")
    p_unfold.add_argument("--env")
    p_unfold.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p_unfold.add_argument("--dot", action="store_true")
    p_unfold.add_argument("--json", action="store_true")
    p_unfold.set_defaults(fn=cmd_unfold)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "parse" and args.term is None and not args.file:
        print("error: give a term or --file", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UnknownIdentifier, BadDefinition) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _BUDGET_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except PitcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: term nested too deeply for the recursion limit",
              file=sys.stderr)
        return EXIT_TOO_DEEP


if __name__ == "__main__":
    sys.exit(main())
