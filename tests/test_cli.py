"""Command-line checks that one golden row cannot express.

tests/cli_golden.json is the one oracle for what daxcalc returns and prints:
each row pins the exit code, stdout and stderr of one argv over a fixed file
set, for every subcommand in every mode.  A check that such a row can make
belongs there.  This file holds the rest: the console-script target, a
directory argument and every file role, help and usage exit codes (which hold
on interpreters whose argparse text differs), hostile and overlong input, a
message that must not depend on the hash seed, inputs no golden row uses, and
a reader that closes stdout early.
"""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import daxcalc
from daxcalc.cli import main


def test_reduce_output(capsys):
    code = main(["reduce", "--preset", "connect_sum", "--element", "t^-3"])
    assert code == 0
    assert capsys.readouterr().out == "t^3\n"


def test_invariant_empty_disc(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"double_tubes": [], "sr_discs": []}')
    code = main(["invariant", "--preset", "simply_connected", "--disc", str(empty)])
    assert code == 0
    assert capsys.readouterr().out == "0\n"


def test_normalize_output(tmp_path, capsys):
    disc = tmp_path / "disc.json"
    disc.write_text('{"double_tubes": ["a", "a"], "sr_discs": [{"sign": -1, "word": "a"}]}')
    manifold = tmp_path / "manifold.json"
    manifold.write_text(
        json.dumps(
            {
                "group": {"factors": [{"type": "Z", "name": "t"}, {"type": "Zn", "name": "a", "n": 2}]},
                "dax_kernel": {"preset": "trivial"},
            }
        )
    )
    code = main(["normalize", "--manifold", str(manifold), "--disc", str(disc)])
    assert code == 0
    assert capsys.readouterr().out == '{"double_tubes": [], "sr_discs": []}\n'


def test_console_script_target_lists_presets(monkeypatch, capsys):
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    module, attr = re.search(r'^daxcalc = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    target = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["daxcalc", "presets"])
    try:
        code = target()
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    assert (code, main(["presets"])) == (0, 0)
    assert out == capsys.readouterr().out


def test_missing_operator_between_terms_is_a_parse_error(capsys):
    code = main(["reduce", "--preset", "boundary_connect_sum", "--element", "t u"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "parse error: expected '+' or '-' between terms (at position 2)\n"


FILE_ROLES = {
    "reduce-manifold": ["reduce", "--manifold", "{}", "--element", "t"],
    "invariant-disc": ["invariant", "--preset", "boundary_connect_sum", "--disc", "{}"],
    "pairing-points": ["pairing", "--preset", "boundary_connect_sum", "{}"],
    "run-session": ["run", "{}"],
}
FILE_FAULTS = {
    "missing": (2, "validation error: cannot read "),
    "directory": (2, "validation error: cannot read "),
    "not-utf8": (1, "parse error: "),
    "broken-json": (1, "parse error: invalid JSON: "),
}


@pytest.mark.parametrize("fault", FILE_FAULTS)
@pytest.mark.parametrize("role", FILE_ROLES)
def test_every_file_role_reports_a_bad_file_in_one_line(tmp_path, capsys, role, fault):
    path = tmp_path / "input.json"
    if fault == "directory":
        path.mkdir()
    elif fault == "not-utf8":
        path.write_bytes(b'{"label": "\xff"}')
    elif fault == "broken-json":
        path.write_text('{"points": [')
    code = main([str(path) if arg == "{}" else arg for arg in FILE_ROLES[role]])
    captured = capsys.readouterr()
    expected_code, prefix = FILE_FAULTS[fault]
    assert (code, captured.out) == (expected_code, "")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.err.startswith(prefix)
    if fault == "broken-json":
        assert captured.err.endswith(" (at position 12)\n")
    else:
        assert str(path) in captured.err


def test_usage_error_exit_code(capsys):
    assert main(["reduce", "--element", "t"]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["reduce", "--preset", "nope", "--element", "t"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "daxcalc" in capsys.readouterr().out


DEEP_JSON = "[" * 1000 + "]" * 1000
LONG_SIGN_DISC = '{"sr_discs": [{"sign": %s, "word": "t"}]}' % ("1" * 5000)


@pytest.mark.parametrize(
    "argv, content",
    [
        (["invariant", "--preset", "connect_sum", "--disc"], DEEP_JSON),
        (["invariant", "--preset", "connect_sum", "--disc"], LONG_SIGN_DISC),
        (["reduce", "--preset", "connect_sum", "--element", "7" * 4400 + "*t"], None),
    ],
    ids=["json-nested-1000-deep", "json-5000-digit-sign", "element-4400-digit-coefficient"],
)
def test_hostile_input_is_a_parse_error(tmp_path, capsys, argv, content):
    if content is not None:
        path = tmp_path / "hostile.json"
        path.write_text(content)
        argv = argv + [str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("parse error:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_overlong_computed_coefficient_is_a_validation_error(capsys):
    # each literal is within the 4300-digit limit; their sum has 4301 digits
    nines = "9" * 4300
    for extra in ([], ["--json"]):
        argv = ["reduce", "--preset", "boundary_connect_sum", "--element", f"{nines}*t + {nines}*t"]
        code = main(argv + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "validation error: coefficient of 14286 bits is too long to print\n"


# each exponent literal is within the 4300-digit limit; the product's exponent is not
LONG_EXPONENT_WORD = "t^{0}*t^{0}".format("9" * 4300)
BCS = ["--preset", "boundary_connect_sum"]


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", *BCS, "--element", LONG_EXPONENT_WORD],
        ["reduce", *BCS, "--element", LONG_EXPONENT_WORD, "--json"],
        ["invariant", *BCS, "--disc", "long.json"],
        ["normalize", *BCS, "--disc", "long.json"],
        ["compare", *BCS, "long.json", "long.json"],
    ],
    ids=["reduce", "reduce-json", "invariant", "normalize", "compare-same-file"],
)
def test_overlong_computed_exponent_is_a_validation_error(tmp_path, monkeypatch, capsys, argv):
    (tmp_path / "long.json").write_text(json.dumps({"sr_discs": [{"sign": 1, "word": LONG_EXPONENT_WORD}]}))
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "validation error: exponent of 14286 bits is too long to print\n"


def _child_env(**extra: str) -> dict:
    """The environment for a `python -m daxcalc` child that imports this checkout's daxcalc."""
    src = str(Path(daxcalc.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_missing_key_message_does_not_depend_on_hash_seed(tmp_path):
    # the point lacks both 'sign' and 'word'; the smallest missing key is named
    points = tmp_path / "points.json"
    points.write_text('{"points": [{"preset": "inverse_pairs"}]}')
    errors = []
    for seed in ("1", "4"):
        argv = [sys.executable, "-m", "daxcalc", "pairing", "--preset", "connect_sum", str(points)]
        result = subprocess.run(argv, capture_output=True, text=True, env=_child_env(PYTHONHASHSEED=seed))
        assert result.returncode == 2
        errors.append(result.stderr)
    assert errors[0] == errors[1]
    assert errors[0].endswith("points[0]: missing required key 'sign'\n")


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_a_closed_stdout_exits_1_with_empty_stderr(tmp_path, mode):
    # 40 records of about 16 KB each: several times a 64 KiB pipe buffer, so
    # the child is still writing when the reader goes away
    element = " + ".join(f"t^{k}" for k in range(1, 2001))
    session = tmp_path / "session.json"
    session.write_text(json.dumps({
        "manifold": "boundary_connect_sum",
        "discs": {},
        "queries": [{"kind": "reduce", "element": element}] * 40,
    }))
    argv = [sys.executable, "-m", "daxcalc", "run", *mode, str(session)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env()) as child:
        assert child.stdout.read(100)
        child.stdout.close()
        try:
            _, err = child.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            child.kill()
            raise
    assert (child.returncode, err) == (1, b"")
