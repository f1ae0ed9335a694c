"""Command-line entry point.

Subcommands: run <scenario-file|name>, list, validate <file>,
emit-defaults <name>.  Exit codes: 0 success, 2 parse/validation failure
or an output directory that cannot be made, 3 required-check failure,
4 numeric or file failure in a stage of the run or in writing its manifest.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ParseError, QStreamError, ValidationError
from .scenarios import (builtin_scenario, list_scenarios, parse_scenario,
                        run_scenario)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CHECK = 3
EXIT_NUMERIC = 4


# what loading a scenario may raise; each is exit 2
_LOAD_ERRORS = (OSError, UnicodeDecodeError, ParseError, ValidationError)


def _read(path: str):
    """The scenario in a UTF-8 config file, with or without a byte order
    mark."""
    with open(path, encoding="utf-8-sig") as fh:
        return parse_scenario(fh.read())


def _load(target: str):
    """A path to a config file, or else a scenario name from the catalog."""
    if os.path.isfile(target):
        return _read(target)
    return builtin_scenario(target)


def _cmd_run(args) -> int:
    try:
        config = _load(args.scenario)
    except _LOAD_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    required = None
    if args.required_checks is not None:
        required = config.keys["checks"]["required"].conv(
            args.required_checks, "--required-checks")
    try:
        artifacts = run_scenario(config, out_dir=args.out_dir,
                                 required_checks=required)
    except (ValidationError, OSError) as exc:
        # an unknown --required-checks name, or an --out-dir that cannot be
        # made
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    for entry in artifacts.manifest["checks"]:
        status = "pass" if entry["passed"] else "FAIL"
        req = " (required)" if entry["required"] else ""
        print(f"check {entry['name']}: {status}  value={entry['value']:g}"
              f"{req}")
    print(f"wrote {len(artifacts.files)} files to {artifacts.out_dir}")
    if artifacts.failure_kind in ("numeric", "io"):
        stage = artifacts.manifest["stages"][-1]
        print(f"error: stage {stage['name']} failed: {stage['error']}",
              file=sys.stderr)
        return EXIT_NUMERIC
    if artifacts.failure_kind == "check":
        print(f"error: required checks failed: "
              f"{artifacts.manifest['failed_checks']}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def _cmd_list(_args) -> int:
    for name, (desc, _text) in sorted(list_scenarios().items()):
        print(f"{name:24s}  {desc}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        config = _read(args.file)
    except _LOAD_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    print(f"{args.file}: valid {config.kind} scenario {config.name!r}")
    return EXIT_OK


def _cmd_emit_defaults(args) -> int:
    try:
        config = builtin_scenario(args.name)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    sys.stdout.write(config.to_text())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstream",
        description="Wavepacket, trajectory, and energy-flow scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a named or file scenario")
    p_run.add_argument("scenario", help="built-in name or config file path")
    p_run.add_argument("--out-dir", default=None,
                       help="output directory (default runs/<name>, or "
                            "$QSTREAM_OUT_DIR/<name> if set)")
    p_run.add_argument("--required-checks", default=None,
                       help="comma-separated list overriding the config")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list built-in scenarios")
    p_list.set_defaults(func=_cmd_list)

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("file")
    p_val.set_defaults(func=_cmd_validate)

    p_emit = sub.add_parser("emit-defaults",
                            help="print a built-in scenario config")
    p_emit.add_argument("name")
    p_emit.set_defaults(func=_cmd_emit_defaults)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QStreamError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
