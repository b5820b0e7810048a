"""Hostile session files end in exit 0, 1 or 2 with at most one line of diagnosis.

A fixed-seed fuzz: each case builds a valid session from the random
generators in helpers.py and the documents encoders, changes one field and
runs it through `cli.main(["run", file])` in process.  The changes are wrong
JSON types, huge and negative integers, 4301-digit literals (one past
Python's int-string limit), 1000-deep nesting, non-ASCII text, and unknown
keys, kinds and names.  No change adds kernel generators or terms: an
explicit kernel's size is not bounded yet, and a grown one would measure the
HNF, not the input layer.  Each case must finish within BOUND_S of
perf_counter time; on a 2-vCPU container the slowest of the 300 takes
about 20 ms.

One more session has a group of 10,000 infinite cyclic factors (319 KB of
JSON).  A spec keeps fixed tables of about 6 KiB per factor, so the factor
count is limited: the session ends in one validation error naming the count,
before any table is built, while a group at the limit still runs.  The
spelling table holds 31 copies of each factor name, so a name's length is
limited the same way: a 10^6-character name ends in one validation error
naming its length, and a name at the limit runs.
"""

import json
import random
import time

from daxcalc import ManifoldModel
from daxcalc.cli import main
from daxcalc.documents import disc_to_json, manifold_to_json

from helpers import random_kernel, random_ring_element, random_spec, random_srdata

SEED = 20201
CASES = 300
BOUND_S = 2.0

RAW = "@@raw@@"  # a string value replaced by raw JSON text after encoding
DIGITS = "9" * 4301
WRONG_TYPES = (None, True, False, 1.5, -0.0, 7, "t", [], {}, [1], {"a": 1})
INTEGERS = (10**400, -(10**400), -1, 0, 2, 2**63, -(2**63))
TEXTS = ("t\u00e9", "\uff54", "t^\u0663", "t^\u00b2", "\u0000", "\U0001f600", "t\u200b", "\u0130", "t\nt", "")
NAMES = ("slice", "Q", "trivial ", "INVARIANT", "inverse_pairs\u00e9", "d9", "zzz", "\u00e9")
RAW_TEXTS = (DIGITS, "-" + DIGITS, "[" * 1000 + "]" * 1000, '{"a": ' * 1000 + "1" + "}" * 1000)
LONG_STRINGS = (f"t^{DIGITS}", f"{DIGITS}*t", f"t^-{DIGITS}")


def valid_session(rng: random.Random) -> dict:
    spec = random_spec(rng)
    manifold = ManifoldModel(spec, random_kernel(rng, spec), "fuzz")
    d0, d1 = random_srdata(rng, spec), random_srdata(rng, spec)
    points = [{"sign": sign, "word": str(g)} for sign, g in d1.sr_discs]
    return {
        "manifold": manifold_to_json(manifold),
        "discs": {"d0": disc_to_json(d0), "d1": disc_to_json(d1)},
        "queries": [
            {"kind": "invariant", "disc": "d0"},
            {"kind": "compare", "discs": ["d0", "d1"]},
            {"kind": "reduce", "element": str(random_ring_element(rng, spec))},
            {"kind": "normalize", "disc": "d1"},
            {"kind": "pairing", "points": points},
        ],
    }


def locations(doc, prefix=()):
    """The key path of every value inside doc."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from locations(value, prefix + (key,))


def mutate(rng: random.Random, doc: dict) -> str:
    """The JSON text of doc with one value replaced, or one unknown key added."""
    where = rng.choice(list(locations(doc)))
    *parents, last = where
    holder = doc
    for key in parents:
        holder = holder[key]
    kind = rng.choice(("type", "integer", "raw", "text", "name", "long", "key"))
    if kind == "key":
        target = holder[last] if isinstance(holder[last], dict) else holder if isinstance(holder, dict) else doc
        target[rng.choice(NAMES)] = 1
    else:
        pool = {"type": WRONG_TYPES, "integer": INTEGERS, "raw": (RAW,), "text": TEXTS, "name": NAMES, "long": LONG_STRINGS}
        holder[last] = rng.choice(pool[kind])
    return json.dumps(doc).replace(json.dumps(RAW), rng.choice(RAW_TEXTS))


def cases():
    rng = random.Random(SEED)
    return [mutate(rng, valid_session(rng)) for _ in range(CASES)]


def run(tmp_path, capsys, text: str) -> tuple[int, str, str, float]:
    session = tmp_path / "session.json"
    session.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    code = main(["run", str(session)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    return code, captured.out, captured.err, elapsed


def test_unmutated_sessions_run(tmp_path, capsys):
    rng = random.Random(SEED)
    for _ in range(20):
        code, out, err, _ = run(tmp_path, capsys, json.dumps(valid_session(rng)))
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 5


def test_hostile_sessions_end_in_one_line_of_diagnosis(tmp_path, capsys):
    codes = set()
    for i, text in enumerate(cases()):
        code, out, err, elapsed = run(tmp_path, capsys, text)
        context = f"case {i}: {text[:200]!r}"
        assert code in (0, 1, 2), context
        assert "Traceback" not in out + err, context
        assert elapsed < BOUND_S, f"{context} took {elapsed:.2f} s"
        if code == 0:
            assert err == "", context
        else:
            prefix = "parse error: " if code == 1 else "validation error: "
            assert out == "", context
            assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1, f"{context}: {err!r}"
        codes.add(code)
    assert codes == {0, 1, 2}


def many_factors_session(count: int) -> str:
    factors = [{"type": "Z", "name": f"x{i}"} for i in range(count)]
    discs = {"d0": {"sr_discs": [{"sign": 1, "word": f"x{count - 1}^16*x0^-3"}]}}
    return json.dumps({
        "manifold": {"group": {"factors": factors}, "dax_kernel": {"preset": "inverse_pairs"}},
        "discs": discs,
        "queries": [{"kind": "invariant", "disc": "d0"}],
    })


def test_a_group_past_the_factor_limit_is_one_validation_error(tmp_path, capsys):
    code, out, err, elapsed = run(tmp_path, capsys, many_factors_session(10_000))
    session = tmp_path / "session.json"
    expected = f"validation error: {session}.manifold.group.factors: a group may have at most 256 factors, got 10000\n"
    assert (code, out, err) == (2, "", expected)
    assert elapsed < BOUND_S, f"took {elapsed:.2f} s"


def test_a_group_at_the_factor_limit_runs(tmp_path, capsys):
    code, out, err, _ = run(tmp_path, capsys, many_factors_session(256))
    assert (code, out, err) == (0, "2*x0^3*x255^-16\n", "")  # the inverse-pairs fold of x255^16*x0^-3 and its inverse


def long_name_session(length: int) -> str:
    name = "x" * length
    return json.dumps({
        "manifold": {"group": {"factors": [{"type": "Z", "name": name}]}, "dax_kernel": {"preset": "inverse_pairs"}},
        "queries": [{"kind": "reduce", "element": f"{name}^-2"}],
    })


def test_a_factor_name_past_the_length_limit_is_one_validation_error(tmp_path, capsys):
    code, out, err, elapsed = run(tmp_path, capsys, long_name_session(10**6))
    session = tmp_path / "session.json"
    expected = f"validation error: {session}.manifold.group.factors[0]: a factor name may have at most 64 characters, got 1000000\n"
    assert (code, out, err) == (2, "", expected)
    assert elapsed < BOUND_S, f"took {elapsed:.2f} s"


def test_a_factor_name_at_the_length_limit_runs(tmp_path, capsys):
    code, out, err, _ = run(tmp_path, capsys, long_name_session(64))
    assert (code, out, err) == (0, f"{'x' * 64}^2\n", "")  # inverse pairs fold x^-2 onto x^2
