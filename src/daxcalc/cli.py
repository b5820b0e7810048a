"""Command-line surface.

The computing subcommands build session queries and evaluate them through
documents.execute, as `run` does, and print canonical-order text, one
result per line, or JSON with --json.  Output on stdout is byte-identical
across runs for identical inputs; --verbose writes extra context to stderr
only.  Exit codes: 0 success, 1 parse error, 2 validation error (argparse
usage errors also exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .documents import (
    Query,
    SessionDocument,
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
from .forms import ManifoldModel
from .presets import PRESET_IDS, instantiate
from .words import parse_ringexpr


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not valid UTF-8") from None


def _load_manifold(args: argparse.Namespace) -> ManifoldModel:
    if args.preset is not None:
        return instantiate(args.preset)
    return manifold_from_json(load_json(_read_file(args.manifold)), "manifold")


def _load_disc(path: str, manifold: ManifoldModel):
    return disc_from_json(load_json(_read_file(path)), manifold.group, path)


def _note(args: argparse.Namespace, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def _emit(args: argparse.Namespace, payload, lines: list[str]) -> None:
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write("".join(line + "\n" for line in lines))


def _queries(args: argparse.Namespace, manifold: ManifoldModel) -> list[tuple[Query, list[str]]]:
    """The session queries a subcommand asks, each with the disc files it reads."""
    if args.command == "compare":
        return [(Query("compare", discs=(args.disc1, args.disc2)), [args.disc1, args.disc2])]
    if args.command == "reduce":
        return [(Query("reduce", element=parse_ringexpr(args.element, manifold.group)), [])]
    if args.command == "pairing":
        points = point_document_from_json(
            load_json(_read_file(args.points)), manifold.group, args.points
        )
        return [(Query("pairing", points=points), [])]
    return [(Query(args.command, disc=path), [path]) for path in args.disc]


def _cmd_query(args: argparse.Namespace) -> None:
    manifold = _load_manifold(args)
    _note(args, f"manifold: {manifold.describe()}")
    results = []
    # Each query's files are decoded just before it runs, so with several bad
    # --disc files the first one in argument order decides the error.
    for query, paths in _queries(args, manifold):
        discs = {path: _load_disc(path, manifold) for path in paths}
        results.extend(execute(SessionDocument(manifold, discs, (query,))))
    for result in results:
        if "rule" in result:
            _note(args, f"rule: {result['rule']}")
        if "dropped" in result:
            _note(args, f"identity loops dropped: {result['dropped']}")
    payload = [{k: v for k, v in r.items() if k not in ("kind", "discs")} for r in results]
    _emit(args, payload if "disc" in args else payload[0], render_text(results))


def _cmd_presets(args: argparse.Namespace) -> None:
    results = []
    lines = []
    for preset_id in PRESET_IDS:
        manifold = instantiate(preset_id)
        results.append({"id": preset_id, "label": manifold.label, "manifold": manifold_to_json(manifold)})
        lines.append(f"{preset_id}: {manifold.describe()}  [{manifold.label}]")
    _emit(args, results, lines)


def _cmd_run(args: argparse.Namespace) -> None:
    document = session_from_json(load_json(_read_file(args.session)), args.session)
    _note(args, f"manifold: {document.manifold.describe()}")
    results = execute(document)
    _emit(args, results, render_text(results))


def _add_manifold_options(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_IDS, help="built-in manifold id")
    group.add_argument("--manifold", metavar="FILE", help="manifold JSON file")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub.add_argument("--verbose", action="store_true", help="context notes on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="daxcalc",
        description="Exact calculator for the Dax-type disc isotopy obstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariant", help="invariant value of disc data")
    _add_manifold_options(p)
    p.add_argument("--disc", metavar="FILE", action="append", required=True, help="disc JSON file (repeatable)")
    _add_common(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("compare", help="decide (non-)isotopy of two discs")
    _add_manifold_options(p)
    p.add_argument("disc1", metavar="DISC1", help="first disc JSON file")
    p.add_argument("disc2", metavar="DISC2", help="second disc JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("reduce", help="reduce a ring expression modulo the kernel")
    _add_manifold_options(p)
    p.add_argument("--element", metavar="RINGEXPR", required=True, help="ring expression to reduce")
    _add_common(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("normalize", help="normal form of disc data")
    _add_manifold_options(p)
    p.add_argument("--disc", metavar="FILE", action="append", required=True, help="disc JSON file (repeatable)")
    _add_common(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("pairing", help="signed sum over a double-point list")
    _add_manifold_options(p)
    p.add_argument("points", metavar="POINTS", help="double-point list JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("presets", help="list built-in manifolds")
    _add_common(p)
    p.set_defaults(func=_cmd_presets)

    p = sub.add_parser("run", help="execute a session document")
    p.add_argument("session", metavar="SESSION", help="session JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_run)

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
    return 0


def entry_point() -> None:
    raise SystemExit(main(sys.argv[1:]))
