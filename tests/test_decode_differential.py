"""session_from_json shares nothing it should not: a metamorphic check.

session_from_json parses each distinct word text once per document and shares
the element among every field that spells it.  Sharing must change nothing,
so each session is also decoded as a copy in which no two word fields can
share: the n-th word field's text loses its trailing whitespace and gains
n + 1 spaces, which changes no value, message or error position.  On a
fixed-seed corpus of sessions that repeat a few words many times across
double tubes, sr_discs and pairing points, in several spellings of one value
("t*t", "t^2", " t ^ 2 "), both decodes must give equal documents, and
executing them must give the same text lines and the same --json records.
Broken sessions must fail with the same error class, message and path: a bad
word after many good repeats, a non-string word among repeats, and one bad
text in two fields, which must name the first.  The messages and paths
themselves are pinned by test_documents.py's ITEM_ERRORS.
"""

import copy
import json
import random

import pytest

from daxcalc import DaxError, ManifoldModel, PRESET_IDS, instantiate
from daxcalc.documents import execute, manifold_to_json, render_text, session_from_json

from helpers import (
    random_element,
    random_kernel,
    random_nontrivial,
    random_spec,
    random_two_torsion,
)


def _syllable_text(rng, name, exp):
    """One spelling of the syllable name^exp, with optional spaces."""
    if 0 < exp <= 3 and rng.random() < 0.3:
        return rng.choice(("*", " * ")).join([name] * exp)
    if exp == 1 and rng.random() < 0.5:
        return name
    return rng.choice(("{}^{}", " {} ^ {} ", "{}^ {}", "{}^+{}")).format(name, exp).replace("+-", "-")


def _spelling(rng, g):
    """A text that parses to g: its syllables in random spellings, maybe with a cancelling pair."""
    names = [f.name for f in g.spec.factors]
    parts = [_syllable_text(rng, names[i], exp) for i, exp in g.syllables]
    if rng.random() < 0.3:
        name = rng.choice(names)
        parts.insert(rng.randint(0, len(parts)), f"{name}*{name}^-1")
    return rng.choice(("", " ")) + rng.choice(("*", " * ")).join(parts or ["1"]) + rng.choice(("", " "))


def _pool(rng, make, size):
    """size values, each with up to three spellings; the canonical str is one of them."""
    pool = []
    for _ in range(size):
        g = make()
        if g is not None:
            pool.append([str(g)] + [_spelling(rng, g) for _ in range(rng.randint(0, 2))])
    return pool


def _pick(rng, pool):
    return rng.choice(rng.choice(pool))


def random_session(rng):
    """A session object whose word fields repeat a handful of values in several spellings."""
    if rng.random() < 0.3:
        manifold_json = rng.choice(PRESET_IDS)
        manifold = instantiate(manifold_json)
    else:
        spec = random_spec(rng)
        manifold = ManifoldModel(spec, random_kernel(rng, spec))
        manifold_json = manifold_to_json(manifold)
    spec = manifold.group
    if spec.is_trivial:  # no loop but the identity, spelled "1"
        tubes, loops, points = [], [], [["1", " 1 ", "01"]]
    else:
        tubes = _pool(rng, lambda: random_two_torsion(rng, spec, max_syllables=1), 2)
        loops = _pool(rng, lambda: random_nontrivial(rng, spec, max_syllables=3), rng.randint(1, 4))
        points = loops + _pool(rng, lambda: random_element(rng, spec, max_syllables=2), 2)
    discs = {}
    for d in range(rng.randint(1, 5)):
        discs[f"d{d}"] = {
            "double_tubes": [_pick(rng, tubes) for _ in range(rng.randint(0, 4))] if tubes else [],
            "sr_discs": [{"sign": rng.choice((1, -1)), "word": _pick(rng, loops)} for _ in range(rng.randint(0, 8))]
            if loops
            else [],
        }
    names = list(discs)
    queries = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.choice(("invariant", "normalize", "compare", "pairing", "reduce"))
        if kind in ("invariant", "normalize"):
            queries.append({"kind": kind, "disc": rng.choice(names)})
        elif kind == "compare":
            queries.append({"kind": kind, "discs": [rng.choice(names), rng.choice(names)]})
        elif kind == "pairing":
            pts = [{"sign": rng.choice((1, -1)), "word": _pick(rng, points)} for _ in range(rng.randint(0, 6))]
            queries.append({"kind": kind, "points": pts})
        else:
            queries.append({"kind": kind, "element": "0"})
    return {"manifold": manifold_json, "discs": discs, "queries": queries}


def _word_fields(session):
    """(container, key) of every word field in session, in decode order; absent keys and non-object entries have none."""
    fields = []
    for disc in session.get("discs", {}).values():
        tubes = disc.get("double_tubes", [])
        fields += [(tubes, i) for i in range(len(tubes))]
        fields += [(entry, "word") for entry in disc.get("sr_discs", []) if isinstance(entry, dict) and "word" in entry]
    for query in session.get("queries", []):
        if query.get("kind") == "pairing":
            fields += [(point, "word") for point in query["points"] if isinstance(point, dict) and "word" in point]
    return fields


def unshared_session_from_json(session):
    """session_from_json on a copy of session whose word texts are pairwise distinct, so no field can share."""
    session = copy.deepcopy(session)
    texts = []
    for n, (container, key) in enumerate(_word_fields(session)):
        if isinstance(container[key], str):
            container[key] = container[key].rstrip() + " " * (n + 1)
            texts.append(container[key])
    assert len(set(texts)) == len(texts), texts
    return session_from_json(session)


def _error(decode, session):
    with pytest.raises(DaxError) as excinfo:
        decode(session)
    exc = excinfo.value
    return type(exc), str(exc), getattr(exc, "path", None), getattr(exc, "position", None)


def _run(doc):
    """The text lines and --json bytes of executing doc, or the error it raises."""
    try:
        results = execute(doc)
    except DaxError as exc:
        return type(exc), str(exc)
    return render_text(results), json.dumps(results, indent=2)


def test_decode_matches_the_per_field_reference():
    rng = random.Random(3001)
    repeats = 0
    for _ in range(150):
        session = random_session(rng)
        doc, unshared = session_from_json(session), unshared_session_from_json(session)
        assert doc == unshared, session
        assert _run(doc) == _run(unshared), session
        texts = [container[key] for container, key in _word_fields(session)]
        repeats += len(texts) - len(set(texts))
    assert repeats > 1000, repeats


def test_equal_values_in_different_spellings_decode_alike():
    spellings = ["t*t", "t^2", " t ^ 2 ", "t^+2", "t * t^-1 * t^2"]
    session = {
        "manifold": "connect_sum",
        "discs": {"d1": {"sr_discs": [{"sign": 1, "word": w} for w in spellings]}, "d2": {"sr_discs": []}},
        "queries": [{"kind": "normalize", "disc": "d1"}, {"kind": "pairing", "points": [{"sign": -1, "word": w} for w in spellings]}],
    }
    doc, unshared = session_from_json(session), unshared_session_from_json(session)
    assert doc == unshared
    assert len({g for _, g in doc.discs["d1"].sr_discs}) == 1
    assert _run(doc) == _run(unshared)


def _repeats(word, n):
    return [{"sign": 1, "word": word} for _ in range(n)]


FAULTS = {
    "bad-word-after-repeats": {
        "manifold": "boundary_connect_sum",
        "discs": {"d1": {"double_tubes": ["t"] * 20, "sr_discs": _repeats("t", 40) + _repeats("t^", 1)}},
    },
    "bad-point-after-repeats": {
        "manifold": "boundary_connect_sum",
        "discs": {"d1": {"sr_discs": _repeats("t^2", 30)}},
        "queries": [{"kind": "pairing", "points": _repeats("t^2", 30) + _repeats("t^2 x", 1)}],
    },
    "non-string-among-repeats": {
        "manifold": "boundary_connect_sum",
        "discs": {"d1": {"sr_discs": _repeats("t", 10) + [{"sign": 1, "word": 2}] + _repeats("t", 10)}},
    },
    "non-string-tube-among-repeats": {
        "manifold": "boundary_connect_sum",
        "discs": {"d1": {"double_tubes": ["t", "t", ["t"], "t"]}},
    },
    "same-bad-text-twice": {
        "manifold": "boundary_connect_sum",
        "discs": {"d1": {"sr_discs": _repeats("t", 5) + _repeats("u", 1)}, "d2": {"sr_discs": _repeats("u", 1)}},
    },
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_a_fault_raises_as_the_reference_does(name):
    assert _error(session_from_json, FAULTS[name]) == _error(unshared_session_from_json, FAULTS[name])


def test_a_bad_text_in_two_fields_names_the_first():
    kind, message, _, _ = _error(session_from_json, FAULTS["same-bad-text-twice"])
    assert message.startswith("session.discs.d1.sr_discs[5].word: unknown factor name 'u'"), message


BAD_WORDS = ["", "t^", "x", "1*t", 3, None, ["t"], {"t": 1}, True]


def test_corrupted_sessions_raise_as_the_reference_does():
    rng = random.Random(3002)
    checked = 0
    for _ in range(120):
        session = random_session(rng)
        fields = _word_fields(session)
        if not fields:
            continue
        bad = rng.choice(BAD_WORDS)
        for container, key in rng.sample(fields, min(len(fields), rng.choice((1, 2)))):
            container[key] = bad
        assert _error(session_from_json, session) == _error(unshared_session_from_json, session), session
        checked += 1
    assert checked > 80, checked
