import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import daxcalc
from daxcalc.cli import main

D1 = '{"double_tubes": [], "sr_discs": [{"sign": 1, "word": "t"}]}'
D0 = "{}"


@pytest.fixture
def disc_files(tmp_path):
    d1 = tmp_path / "d1.json"
    d0 = tmp_path / "d0.json"
    d1.write_text(D1)
    d0.write_text(D0)
    return str(d1), str(d0)


def test_compare_output(disc_files, capsys):
    d1, d0 = disc_files
    code = main(["compare", "--preset", "boundary_connect_sum", d1, d0])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "NOT_ISOTOPIC  certificate: t + t^-1\n"


def test_compare_json_output(disc_files, capsys):
    d1, d0 = disc_files
    code = main(["compare", "--preset", "boundary_connect_sum", d1, d0, "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "outcome": "NOT_ISOTOPIC",
        "certificate": "t + t^-1",
        "rule": "phi-difference",
    }


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


def test_invariant_multiple_discs(disc_files, capsys):
    d1, d0 = disc_files
    code = main(["invariant", "--preset", "boundary_connect_sum", "--disc", d1, "--disc", d0])
    assert code == 0
    assert capsys.readouterr().out == "t + t^-1\n0\n"


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


def test_pairing_output(tmp_path, capsys):
    points = tmp_path / "points.json"
    points.write_text('{"points": [{"sign": 1, "word": "t"}, {"sign": -1, "word": "1"}]}')
    code = main(["pairing", "--preset", "boundary_connect_sum", str(points)])
    assert code == 0
    assert capsys.readouterr().out == "t\n"
    code = main(["pairing", "--preset", "boundary_connect_sum", str(points), "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"value": "t", "dropped": 1}


def test_presets_listing(capsys):
    code = main(["presets"])
    out = capsys.readouterr().out
    assert code == 0
    for preset_id in ("boundary_connect_sum", "connect_sum", "simply_connected"):
        assert preset_id in out
    code = main(["presets", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert [entry["id"] for entry in payload] == [
        "boundary_connect_sum",
        "connect_sum",
        "simply_connected",
    ]
    assert payload[0]["manifold"]["dax_kernel"] == {"preset": "trivial"}


def test_run_session(tmp_path, capsys):
    session = tmp_path / "session.json"
    session.write_text(
        json.dumps(
            {
                "manifold": "boundary_connect_sum",
                "discs": {"d1": json.loads(D1), "d0": {}},
                "queries": [
                    {"kind": "compare", "discs": ["d1", "d0"]},
                    {"kind": "invariant", "disc": "d1"},
                ],
            }
        )
    )
    code = main(["run", str(session)])
    assert code == 0
    assert capsys.readouterr().out == "NOT_ISOTOPIC  certificate: t + t^-1\nt + t^-1\n"


def test_run_deterministic(tmp_path, capsys):
    session = tmp_path / "session.json"
    session.write_text(
        json.dumps(
            {
                "manifold": "connect_sum",
                "discs": {"d": {"sr_discs": [{"sign": 1, "word": "t^-2"}]}},
                "queries": [{"kind": "invariant", "disc": "d"}, {"kind": "reduce", "element": "t^-1"}],
            }
        )
    )
    outputs = set()
    for _ in range(2):
        assert main(["run", str(session)]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


def test_parse_error_exit_code(capsys):
    code = main(["reduce", "--preset", "connect_sum", "--element", "t^"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "parse error" in captured.err


def test_missing_operator_between_terms_is_a_parse_error(capsys):
    code = main(["reduce", "--preset", "boundary_connect_sum", "--element", "t u"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == "parse error: expected '+' or '-' between terms (at position 2)\n"


def test_validation_error_exit_code(capsys):
    code = main(["reduce", "--preset", "connect_sum", "--element", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "validation error" in captured.err


def test_bad_json_file_exit_code(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"double_tubes": [')
    code = main(["invariant", "--preset", "connect_sum", "--disc", str(broken)])
    assert code == 1
    assert "parse error" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["invariant", "--preset", "connect_sum", "--disc", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


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


def test_verbose_writes_to_stderr_only(disc_files, capsys):
    d1, d0 = disc_files
    main(["compare", "--preset", "boundary_connect_sum", d1, d0])
    plain = capsys.readouterr()
    main(["compare", "--preset", "boundary_connect_sum", d1, d0, "--verbose"])
    verbose = capsys.readouterr()
    assert verbose.out == plain.out
    assert "manifold:" in verbose.err


def test_invalid_disc_data_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"double_tubes": ["t"]}')
    code = main(["invariant", "--preset", "boundary_connect_sum", "--disc", str(bad)])
    assert code == 2
    assert "2-torsion" in capsys.readouterr().err


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


def test_missing_key_message_does_not_depend_on_hash_seed(tmp_path):
    # the point lacks both 'sign' and 'word'; the smallest missing key is named
    points = tmp_path / "points.json"
    points.write_text('{"points": [{"preset": "inverse_pairs"}]}')
    src = str(Path(daxcalc.__file__).resolve().parents[1])
    errors = []
    for seed in ("1", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "daxcalc", "pairing", "--preset", "connect_sum", str(points)]
        result = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert result.returncode == 2
        errors.append(result.stderr)
    assert errors[0] == errors[1]
    assert errors[0].endswith("points[0]: missing required key 'sign'\n")
