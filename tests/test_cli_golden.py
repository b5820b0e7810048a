"""Golden corpus for the command line: exit code, stdout and stderr.

Every case runs main() in process from a directory that holds the input
files below, and names them by relative path, so the paths that appear in
--json output do not depend on where the suite runs.  cli_golden.json holds
the expected (exit code, stdout, stderr) of each case.  It covers every
subcommand in plain, --json, --verbose and --json --verbose modes, and parse,
validation and missing-file errors with and without --verbose.  The
"ordering" cases pin which error wins when several --disc files are bad: each
file is decoded and evaluated before the next one is read.  The "help" and
"usage" cases pin the parser itself: --help at the top level and for every
subcommand, and argparse usage errors, with COLUMNS=80 so line wrapping does
not depend on the terminal.
"""

import json
from pathlib import Path

import pytest

from daxcalc.cli import main

FILES = {
    "d1.json": {"double_tubes": [], "sr_discs": [{"sign": 1, "word": "t"}]},
    "d0.json": {},
    "d2.json": {
        "sr_discs": [
            {"sign": 1, "word": "t^-1"},
            {"sign": -1, "word": "t^2"},
            {"sign": 1, "word": "t^2"},
            {"sign": 1, "word": "t^3"},
        ]
    },
    "dinv.json": {"sr_discs": [{"sign": 1, "word": "t^-1"}]},
    "manifold.json": {
        "group": {"factors": [{"type": "Z", "name": "t"}, {"type": "Zn", "name": "a", "n": 2}]},
        "dax_kernel": {"generators": ["t - t^-1", "2*a", "t^2 + t*a"]},
        "label": "explicit test manifold",
    },
    "e1.json": {
        "double_tubes": ["a", "a", "t*a*t^-1"],
        "sr_discs": [{"sign": 1, "word": "t^3"}, {"sign": -1, "word": "t*a"}],
    },
    "e2.json": {"sr_discs": [{"sign": 1, "word": "t^-3"}, {"sign": 1, "word": "a*t"}]},
    "points.json": {
        "points": [
            {"sign": 1, "word": "t"},
            {"sign": -1, "word": "1"},
            {"sign": 1, "word": "t^2"},
            {"sign": 1, "word": "1"},
        ]
    },
    "points_explicit.json": {"points": [{"sign": -1, "word": "a*t"}, {"sign": 1, "word": "t^-1"}]},
    "points_bad_sign.json": {"points": [{"sign": 0, "word": "t"}]},
    "points_bare_list.json": [{"sign": 1, "word": "t"}],
    "bad_data.json": {"double_tubes": ["t"]},
    "schema.json": {"sr_discs": [{"sign": 2, "word": "t"}]},
    "bad_word.json": {"sr_discs": [{"sign": 1, "word": "t^"}]},
    "bad_manifold.json": {
        "group": {"factors": [{"type": "Z", "name": "t"}]},
        "dax_kernel": {"generators": ["t - t"]},
    },
    "session.json": {
        "manifold": "boundary_connect_sum",
        "discs": {"d1": {"sr_discs": [{"sign": 1, "word": "t"}]}, "d0": {}},
        "queries": [
            {"kind": "compare", "discs": ["d1", "d0"]},
            {"kind": "invariant", "disc": "d1"},
            {"kind": "reduce", "element": "t^-3"},
            {"kind": "normalize", "disc": "d1"},
            {"kind": "pairing", "points": [{"sign": 1, "word": "t"}, {"sign": 1, "word": "1"}]},
        ],
    },
}
RAW_FILES = {"broken.json": b'{"double_tubes": [', "latin1.json": b'{"sr_discs": "\xe9"}'}

BCS = ["--preset", "boundary_connect_sum"]
EXPLICIT = ["--manifold", "manifold.json"]

COMMANDS = {
    "invariant": ["invariant", *BCS, "--disc", "d1.json", "--disc", "d0.json", "--disc", "d2.json"],
    "invariant_explicit": ["invariant", *EXPLICIT, "--disc", "e1.json", "--disc", "e2.json"],
    "compare_phi_difference": ["compare", *BCS, "d1.json", "d0.json"],
    "compare_same_file": ["compare", *BCS, "d2.json", "d2.json"],
    "compare_phi_coincide": ["compare", "--preset", "connect_sum", "d1.json", "dinv.json"],
    "compare_pi1_trivial": ["compare", "--preset", "simply_connected", "d0.json", "d0.json"],
    "compare_explicit": ["compare", *EXPLICIT, "e1.json", "e2.json"],
    "compare_explicit_same_file": ["compare", *EXPLICIT, "e1.json", "e1.json"],
    "compare_explicit_coincide": ["compare", *EXPLICIT, "d1.json", "dinv.json"],
    "reduce": ["reduce", "--preset", "connect_sum", "--element", "t^-3 + 2*t - t^5"],
    "reduce_explicit": ["reduce", *EXPLICIT, "--element", "3*a + t^-1 - 2*t^2"],
    "normalize": ["normalize", *BCS, "--disc", "d2.json", "--disc", "d0.json", "--disc", "d1.json"],
    "normalize_explicit": ["normalize", *EXPLICIT, "--disc", "e1.json"],
    "pairing": ["pairing", *BCS, "points.json"],
    "pairing_explicit": ["pairing", *EXPLICIT, "points_explicit.json"],
    "presets": ["presets"],
    "run": ["run", "session.json"],
}

ERRORS = {
    "reduce_parse_error": ["reduce", "--preset", "connect_sum", "--element", "t^"],
    "reduce_identity_term": ["reduce", "--preset", "connect_sum", "--element", "1"],
    "reduce_unknown_name": ["reduce", *EXPLICIT, "--element", "b"],
    "invariant_broken_json": ["invariant", *BCS, "--disc", "broken.json"],
    "invariant_not_utf8": ["invariant", *BCS, "--disc", "latin1.json"],
    "invariant_bad_data": ["invariant", *BCS, "--disc", "bad_data.json"],
    "invariant_schema": ["invariant", *BCS, "--disc", "schema.json"],
    "invariant_bad_word": ["invariant", *BCS, "--disc", "bad_word.json"],
    "invariant_missing": ["invariant", *BCS, "--disc", "nope.json"],
    "invariant_wrong_group": ["invariant", "--preset", "simply_connected", "--disc", "d1.json"],
    "invariant_good_then_broken": ["invariant", *BCS, "--disc", "d1.json", "--disc", "broken.json"],
    "invariant_ordering": ["invariant", *BCS, "--disc", "bad_data.json", "--disc", "broken.json"],
    "normalize_ordering": ["normalize", *BCS, "--disc", "bad_data.json", "--disc", "broken.json"],
    "normalize_missing": ["normalize", *BCS, "--disc", "d1.json", "--disc", "nope.json"],
    "compare_missing_second": ["compare", *BCS, "d1.json", "nope.json"],
    "compare_bad_data_then_broken": ["compare", *BCS, "bad_data.json", "broken.json"],
    "compare_bad_data_second": ["compare", *BCS, "d1.json", "bad_data.json"],
    "pairing_missing": ["pairing", *BCS, "nope.json"],
    "pairing_bad_sign": ["pairing", *BCS, "points_bad_sign.json"],
    "pairing_bare_list": ["pairing", *BCS, "points_bare_list.json"],
    "pairing_broken_json": ["pairing", *BCS, "broken.json"],
    "manifold_missing": ["invariant", "--manifold", "nope.json", "--disc", "d1.json"],
    "manifold_invalid": ["reduce", "--manifold", "bad_manifold.json", "--element", "t"],
    "manifold_broken_json": ["compare", "--manifold", "broken.json", "d1.json", "d0.json"],
    "run_missing": ["run", "nope.json"],
}

SUBCOMMANDS = ("invariant", "compare", "reduce", "normalize", "pairing", "presets", "run")

SURFACE = {
    "help": ["--help"],
    **{f"help_{name}": [name, "--help"] for name in SUBCOMMANDS},
    "usage_no_subcommand": [],
    "usage_no_manifold": ["invariant", "--disc", "d1.json"],
    "usage_preset_and_manifold": ["reduce", *BCS, *EXPLICIT, "--element", "t"],
    "usage_unknown_preset": ["compare", "--preset", "nowhere", "d1.json", "d0.json"],
    "usage_no_disc": ["normalize", *BCS],
    "usage_no_second_disc": ["compare", *BCS, "d1.json"],
    "usage_no_element": ["reduce", *BCS],
    "usage_no_points": ["pairing", *BCS],
    "usage_no_session": ["run"],
}

MODES = {"plain": [], "json": ["--json"], "verbose": ["--verbose"], "json_verbose": ["--json", "--verbose"]}
ERROR_MODES = ("plain", "verbose")

CASES = {f"{name}-{mode}": argv + flags for name, argv in COMMANDS.items() for mode, flags in MODES.items()}
CASES.update({f"{name}-{mode}": argv + MODES[mode] for name, argv in ERRORS.items() for mode in ERROR_MODES})
CASES.update(SURFACE)

GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")


def write_files(directory: Path) -> None:
    for name, obj in FILES.items():
        (directory / name).write_text(json.dumps(obj))
    for name, raw in RAW_FILES.items():
        (directory / name).write_bytes(raw)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_golden(name, golden, tmp_path, monkeypatch, capsys):
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    code = main(CASES[name])
    captured = capsys.readouterr()
    expected = golden[name]
    assert (code, captured.out, captured.err) == (expected["exit"], expected["stdout"], expected["stderr"])
