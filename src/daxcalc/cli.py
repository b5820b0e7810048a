"""Command-line surface.

The computing subcommands build session queries and evaluate them through
documents.execute, as `run` does, and print canonical-order text, one
result per line, or JSON with --json.  Every query runs before stdout gets
its first byte, so a failing one leaves it empty.  Output is byte-identical
across runs for identical inputs; --verbose writes extra context to stderr
only.  Exit codes: 0 success, 1 parse error, 2 validation error (argparse
usage errors also exit 2).  A subcommand is declared only in _COMMANDS, one
row each, and every file is read through _read_json.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .documents import (
    SessionDocument,
    _at,
    disc_from_json,
    execute,
    load_json,
    manifold_from_json,
    manifold_to_json,
    point_document_from_json,
    render_text,
    session_from_json,
)
from .errors import ParseError, ValidationError
from .forms import PRESET_IDS, ManifoldModel, instantiate
from .words import parse_ringexpr


_MAX_DEPTH = 64  # a valid document nests at most 6 deep; json's own limit differs between interpreters


def _bounded(text: str):
    """load_json(text) with at most _MAX_DEPTH nested containers; one pass per level, ending at the first empty one."""
    value = load_json(text)
    level = [[value]]  # json builds plain dicts and lists only
    for _ in range(_MAX_DEPTH + 1):
        level = [child for node in level for child in (node.values() if type(node) is dict else node) if type(child) in (dict, list)]
        if not level:
            return value
    raise ParseError("invalid JSON: nesting too deep")


def _read_json(path: str):
    """The JSON value in the UTF-8 file at path; every CLI file argument is read here."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not valid UTF-8") from None
    return _at(path, _bounded, text)


def _note(args: argparse.Namespace, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _emit(args: argparse.Namespace, payload, render) -> None:
    """payload as JSON under --json, else the text lines render() returns, written piecewise, never joined."""
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.writelines(line + "\n" for line in render())


def _queries(args: argparse.Namespace, manifold: ManifoldModel) -> list[tuple[tuple[str, object], list[str]]]:
    """The (kind, value) session queries a subcommand asks, each with the disc files it reads."""
    if args.command == "compare":
        return [(("compare", (args.disc1, args.disc2)), [args.disc1, args.disc2])]
    if args.command == "reduce":
        return [(("reduce", parse_ringexpr(args.element, manifold.group)), [])]
    if args.command == "pairing":
        points = point_document_from_json(_read_json(args.points), manifold.group, args.points)
        return [(("pairing", points), [])]
    return [((args.command, path), [path]) for path in args.disc]


def _cmd_query(args: argparse.Namespace) -> None:
    if args.preset is not None:
        manifold = instantiate(args.preset)
    else:
        manifold = manifold_from_json(_read_json(args.manifold), "manifold")
    _note(args, f"manifold: {manifold.describe()}")
    results = []
    # Each query's files are decoded just before it runs, so with several bad
    # --disc files the first one in argument order decides the error.
    for query, paths in _queries(args, manifold):
        discs = {path: disc_from_json(_read_json(path), manifold.group, path) for path in paths}
        results.extend(execute(SessionDocument(manifold, discs, (query,))))
    for result in results:
        if "rule" in result:
            _note(args, f"rule: {result['rule']}")
        if "dropped" in result:
            _note(args, f"identity loops dropped: {result['dropped']}")
    payload = [{k: v for k, v in r.items() if k not in ("kind", "discs")} for r in results]
    _emit(args, payload if "disc" in args else payload[0], lambda: render_text(results))


def _cmd_presets(args: argparse.Namespace) -> None:
    manifolds = {preset_id: instantiate(preset_id) for preset_id in PRESET_IDS}
    results = [{"id": i, "label": m.label, "manifold": manifold_to_json(m)} for i, m in manifolds.items()]
    _emit(args, results, lambda: [f"{i}: {m.describe()}  [{m.label}]" for i, m in manifolds.items()])


def _cmd_run(args: argparse.Namespace) -> None:
    document = session_from_json(_read_json(args.session), args.session)
    _note(args, f"manifold: {document.manifold.describe()}")
    results = execute(document)
    _emit(args, results, lambda: render_text(results))


_DISC_FILES = ("--disc", dict(metavar="FILE", action="append", required=True, help="disc JSON file (repeatable)"))

# (name, help, arguments, handler) of each subcommand, in --help order; the
# rows that _cmd_query runs also take --preset or --manifold
_COMMANDS = (
    ("invariant", "invariant value of disc data", [_DISC_FILES], _cmd_query),
    ("compare", "decide (non-)isotopy of two discs", [
        ("disc1", dict(metavar="DISC1", help="first disc JSON file")),
        ("disc2", dict(metavar="DISC2", help="second disc JSON file")),
    ], _cmd_query),
    ("reduce", "reduce a ring expression modulo the kernel", [
        ("--element", dict(metavar="RINGEXPR", required=True, help="ring expression to reduce")),
    ], _cmd_query),
    ("normalize", "normal form of disc data", [_DISC_FILES], _cmd_query),
    ("pairing", "signed sum over a double-point list", [("points", dict(metavar="POINTS", help="double-point list JSON file"))], _cmd_query),
    ("presets", "list built-in manifolds", [], _cmd_presets),
    ("run", "execute a session document", [("session", dict(metavar="SESSION", help="session JSON file"))], _cmd_run),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daxcalc",
        description="Exact calculator for the Dax-type disc isotopy obstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, arguments, handler in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if handler is _cmd_query:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--preset", choices=PRESET_IDS, help="built-in manifold id")
            group.add_argument("--manifold", metavar="FILE", help="manifold JSON file")
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--verbose", action="store_true", help="context notes on stderr")
        p.set_defaults(func=handler)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout; devnull takes the interpreter's final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0
