import json
import random
from collections import Counter

import pytest

import daxcalc.documents
from daxcalc import (
    ExplicitKernel,
    Factor,
    GroupSpec,
    InversePairsKernel,
    ManifoldModel,
    PRESET_IDS,
    ParseError,
    SRData,
    TrivialKernel,
    ValidationError,
    instantiate,
    normalize,
    parse_ringexpr,
    phi,
)
from daxcalc.documents import (
    disc_from_json,
    disc_to_json,
    execute,
    group_from_json,
    group_to_json,
    kernel_from_json,
    kernel_to_json,
    load_json,
    manifold_from_json,
    manifold_to_json,
    point_document_from_json,
    render_text,
    session_from_json,
)

from helpers import random_kernel, random_spec, random_srdata

SPEC = GroupSpec((Factor("t"), Factor("a", 2)))


def test_load_json_position():
    with pytest.raises(ParseError) as excinfo:
        load_json('{"a": }')
    assert excinfo.value.position == 6


def test_group_round_trip():
    obj = group_to_json(SPEC)
    assert obj == {"factors": [{"type": "Z", "name": "t"}, {"type": "Zn", "name": "a", "n": 2}]}
    assert group_from_json(obj) == SPEC
    assert group_from_json({"factors": []}).is_trivial


def test_kernel_round_trip():
    for kernel in (
        TrivialKernel(),
        InversePairsKernel(),
        ExplicitKernel((parse_ringexpr("t - t^-1", SPEC),)),
    ):
        assert kernel_from_json(kernel_to_json(kernel), SPEC) == kernel


def test_manifold_json_round_trips_every_preset_and_a_labelled_inline_manifold():
    spec = GroupSpec((Factor("t"), Factor("a", 2), Factor("b", 5)))
    kernel = ExplicitKernel((parse_ringexpr("t^2 - 3*t*a + b^-1", spec), parse_ringexpr("2*a", spec)))
    manifolds = [instantiate(preset) for preset in PRESET_IDS] + [ManifoldModel(spec, kernel, "inline, labelled")]
    for manifold in manifolds:
        text = json.dumps(manifold_to_json(manifold))
        assert manifold_from_json(load_json(text)) == manifold


def test_manifold_kernel_parsed_over_declared_group():
    obj = {
        "group": {"factors": [{"type": "Z", "name": "g"}]},
        "dax_kernel": {"generators": ["g^2 - g^-2"]},
    }
    manifold = manifold_from_json(obj)
    gen = manifold.kernel.generators[0]
    assert str(gen) == "g^2 - g^-2"
    with pytest.raises(ParseError):
        manifold_from_json(
            {
                "group": {"factors": [{"type": "Z", "name": "g"}]},
                "dax_kernel": {"generators": ["t"]},
            }
        )


def test_disc_round_trip():
    obj = {"double_tubes": ["a"], "sr_discs": [{"sign": 1, "word": "t"}]}
    data = disc_from_json(obj, SPEC)
    assert disc_to_json(data) == obj
    assert disc_from_json({}, SPEC).is_empty


def test_disc_round_trip_fuzz():
    rng = random.Random(61)
    for _ in range(200):
        spec = random_spec(rng)
        data = random_srdata(rng, spec)
        assert disc_from_json(disc_to_json(data), spec) == data


def test_point_document():
    points = point_document_from_json(
        {"points": [{"sign": 1, "word": "t"}, {"sign": -1, "word": "1"}]}, SPEC
    )
    assert len(points) == 2
    assert points[1][1].is_identity


SESSION = {
    "manifold": "boundary_connect_sum",
    "discs": {
        "d1": {"double_tubes": [], "sr_discs": [{"sign": 1, "word": "t"}]},
        "d0": {},
    },
    "queries": [
        {"kind": "compare", "discs": ["d1", "d0"]},
        {"kind": "invariant", "disc": "d1"},
        {"kind": "reduce", "element": "t + t - t^2"},
        {"kind": "normalize", "disc": "d1"},
        {"kind": "pairing", "points": [{"sign": 1, "word": "t"}, {"sign": -1, "word": "1"}]},
    ],
}


def test_session_execution():
    doc = session_from_json(SESSION)
    assert doc.manifold == instantiate("boundary_connect_sum")
    results = execute(doc)
    assert [r["kind"] for r in results] == ["compare", "invariant", "reduce", "normalize", "pairing"]
    assert results[0]["outcome"] == "NOT_ISOTOPIC"
    assert results[0]["certificate"] == "t + t^-1"
    assert results[1]["value"] == "t + t^-1"
    assert results[2]["value"] == "2*t - t^2"
    assert results[3]["value"] == {"double_tubes": [], "sr_discs": [{"sign": 1, "word": "t"}]}
    assert results[4] == {"kind": "pairing", "value": "t", "dropped": 1}
    lines = render_text(results)
    assert lines == [
        "NOT_ISOTOPIC  certificate: t + t^-1",
        "t + t^-1",
        "2*t - t^2",
        '{"double_tubes": [], "sr_discs": [{"sign": 1, "word": "t"}]}',
        "t",
    ]


def test_session_inline_manifold():
    doc = session_from_json(
        {
            "manifold": {
                "group": {"factors": [{"type": "Z", "name": "t"}]},
                "dax_kernel": {"preset": "inverse_pairs"},
            },
            "queries": [{"kind": "reduce", "element": "t^-3"}],
        }
    )
    assert execute(doc) == [{"kind": "reduce", "value": "t^3"}]


def _kernel(obj):
    return kernel_from_json(obj, SPEC)


def _disc(obj):
    return disc_from_json(obj, SPEC)


def _session(*queries):
    return {"manifold": "connect_sum", "discs": {"d": {}}, "queries": list(queries)}


Z_T = {"type": "Z", "name": "t"}
SIGNED_T = {"sign": 1, "word": "t"}


def _points(obj):
    return point_document_from_json(obj, SPEC)


# (decoder, document, error type, full message, .path or, for a ParseError,
# .position), one row per faulty field; a bad list entry sits at index 1 after
# a good one.  Each id names the field and not the message, so editing a
# message renames no test.
ITEM_ERRORS = [
    pytest.param(group_from_json, [], ValidationError,
                 "group: expected an object, got list", "group", id="group-not-an-object"),
    pytest.param(group_from_json, {}, ValidationError,
                 "group: missing required key 'factors'", "group", id="group.factors-missing"),
    pytest.param(group_from_json, {"factors": {}}, ValidationError,
                 "group.factors: expected a list, got dict", "group.factors", id="group.factors-not-a-list"),
    pytest.param(group_from_json, {"factors": [Z_T, 5]}, ValidationError,
                 "group.factors[1]: expected an object, got int", "group.factors[1]", id="group.factors[1]-not-an-object"),
    pytest.param(group_from_json, {"factors": [Z_T, {"type": "Q", "name": "b"}]}, ValidationError,
                 "group.factors[1].type: unknown factor type 'Q'; expected 'Z' or 'Zn'", "group.factors[1].type",
                 id="group.factors[1].type"),
    pytest.param(group_from_json, {"factors": [Z_T, {"type": "Z"}]}, ValidationError,
                 "group.factors[1]: missing required key 'name'", "group.factors[1]", id="group.factors[1].name-missing"),
    pytest.param(group_from_json, {"factors": [Z_T, {"type": "Z", "name": "b", "n": 2}]}, ValidationError,
                 "group.factors[1]: unknown key 'n'", "group.factors[1]", id="group.factors[1].n-on-Z"),
    pytest.param(group_from_json, {"factors": [Z_T, {"type": "Zn", "name": "a", "n": "2"}]}, ValidationError,
                 "group.factors[1].n: expected an integer, got str", "group.factors[1].n", id="group.factors[1].n"),
    pytest.param(group_from_json, {"factors": [Z_T, {"type": "Zn", "name": "a", "n": 1}]}, ValidationError,
                 "group.factors[1]: finite factor 'a' must have order >= 2, got 1", "group.factors[1]",
                 id="group.factors[1].n-below-2"),
    pytest.param(group_from_json, {"factors": [Z_T, {"type": "Z", "name": 5}]}, ValidationError,
                 "group.factors[1].name: expected a string, got int", "group.factors[1].name", id="group.factors[1].name"),
    pytest.param(group_from_json, {"factors": [Z_T, {"type": "Z", "name": "bad name"}]}, ValidationError,
                 "group.factors[1]: invalid factor name 'bad name'", "group.factors[1]", id="group.factors[1].name-invalid"),
    pytest.param(group_from_json, {"factors": [Z_T, Z_T]}, ValidationError,
                 "group.factors: factor names must be pairwise distinct", "group.factors", id="group.factors"),
    pytest.param(_kernel, {}, ValidationError,
                 "dax_kernel: kernel needs either a 'preset' or a 'generators' key", "dax_kernel",
                 id="dax_kernel-neither-key"),
    pytest.param(_kernel, {"preset": "huge"}, ValidationError,
                 "dax_kernel.preset: unknown kernel preset 'huge'; expected 'trivial' or 'inverse_pairs'",
                 "dax_kernel.preset", id="dax_kernel.preset-unknown"),
    pytest.param(_kernel, {"preset": "trivial", "generators": []}, ValidationError,
                 "dax_kernel: unknown key 'generators'", "dax_kernel", id="dax_kernel-both-keys"),
    pytest.param(_kernel, {"generators": ["t", 5]}, ValidationError,
                 "dax_kernel.generators[1]: expected a string, got int", "dax_kernel.generators[1]",
                 id="dax_kernel.generators[1]-not-str"),
    pytest.param(_kernel, {"generators": ["t", "t - t"]}, ValidationError,
                 "dax_kernel.generators[1]: kernel generator must be nonzero", "dax_kernel.generators[1]",
                 id="dax_kernel.generators[1]-zero"),
    pytest.param(_kernel, {"generators": ["t", "t +"]}, ParseError,
                 "dax_kernel.generators[1]: expected a factor name (at position 3)", 3,
                 id="dax_kernel.generators[1]-parse"),
    pytest.param(_kernel, {"generators": ["t", "1"]}, ValidationError,
                 "dax_kernel.generators[1]: the identity word '1' is not a valid term: values live in the group ring"
                 " with the identity removed", "dax_kernel.generators[1]", id="dax_kernel.generators[1]-identity"),
    pytest.param(_disc, {"tubes": []}, ValidationError,
                 "disc: unknown key 'tubes'", "disc", id="disc-unknown-key"),
    pytest.param(_disc, {"double_tubes": ["t", 5]}, ValidationError,
                 "disc.double_tubes[1]: expected a string, got int", "disc.double_tubes[1]",
                 id="disc.double_tubes[1]-not-str"),
    pytest.param(_disc, {"double_tubes": ["t", "z"]}, ParseError,
                 "disc.double_tubes[1]: unknown factor name 'z' (at position 0)", 0,
                 id="disc.double_tubes[1]-unknown-name"),
    pytest.param(_disc, {"sr_discs": [SIGNED_T, {"sign": 1}]}, ValidationError,
                 "disc.sr_discs[1]: missing required key 'word'", "disc.sr_discs[1]", id="disc.sr_discs[1].word-missing"),
    pytest.param(_disc, {"sr_discs": [SIGNED_T, {"sign": 1, "word": "t", "extra": 0}]}, ValidationError,
                 "disc.sr_discs[1]: unknown key 'extra'", "disc.sr_discs[1]", id="disc.sr_discs[1]-unknown-key"),
    pytest.param(_disc, {"sr_discs": [SIGNED_T, {"sign": 2, "word": "t"}]}, ValidationError,
                 "disc.sr_discs[1].sign: sign must be +1 or -1, got 2", "disc.sr_discs[1].sign", id="disc.sr_discs[1].sign"),
    pytest.param(_disc, {"sr_discs": [SIGNED_T, {"sign": True, "word": "t"}]}, ValidationError,
                 "disc.sr_discs[1].sign: expected an integer, got bool", "disc.sr_discs[1].sign",
                 id="disc.sr_discs[1].sign-bool"),
    pytest.param(_disc, {"sr_discs": [SIGNED_T, {"sign": 1, "word": "t a a"}]}, ParseError,
                 "disc.sr_discs[1].word: unexpected trailing input (at position 2)", 2, id="disc.sr_discs[1].word"),
    pytest.param(_points, {"points": [SIGNED_T, {"sign": 0, "word": "t"}]}, ValidationError,
                 "points.points[1].sign: sign must be +1 or -1, got 0", "points.points[1].sign", id="points.points[1].sign"),
    pytest.param(session_from_json, {}, ValidationError,
                 "session: missing required key 'manifold'", "session", id="session.manifold-missing"),
    pytest.param(session_from_json, {"manifold": "connect_sum", "extra": 1}, ValidationError,
                 "session: unknown key 'extra'", "session", id="session-unknown-key"),
    pytest.param(session_from_json, {"manifold": "nope"}, ValidationError,
                 "session.manifold: unknown preset 'nope'; available: boundary_connect_sum, connect_sum, simply_connected",
                 "session.manifold", id="session.manifold"),
    pytest.param(session_from_json,
                 {"manifold": "connect_sum", "discs": {"d": {"sr_discs": [SIGNED_T, {"sign": 3, "word": "t"}]}}},
                 ValidationError, "session.discs.d.sr_discs[1].sign: sign must be +1 or -1, got 3",
                 "session.discs.d.sr_discs[1].sign", id="session.discs.d.sr_discs[1].sign"),
    pytest.param(session_from_json, {"manifold": "connect_sum", "discs": {"d": {"double_tubes": ["t", 5]}}},
                 ValidationError, "session.discs.d.double_tubes[1]: expected a string, got int",
                 "session.discs.d.double_tubes[1]", id="session.discs.d.double_tubes[1]-not-str"),
    pytest.param(session_from_json, _session({"kind": "invariant", "disc": "d"}, 5), ValidationError,
                 "session.queries[1]: expected an object, got int", "session.queries[1]", id="session.queries[1]"),
    pytest.param(session_from_json, _session({"kind": "slice"}), ValidationError,
                 "session.queries[0].kind: unknown query kind 'slice'", "session.queries[0].kind",
                 id="session.queries[0].kind-unknown"),
    pytest.param(session_from_json, _session({"kind": "invariant", "disc": "x"}), ValidationError,
                 "session.queries[0].disc: undeclared disc 'x'", "session.queries[0].disc",
                 id="session.queries[0].disc"),
    pytest.param(session_from_json, _session({"kind": "reduce"}), ValidationError,
                 "session.queries[0]: missing required key 'element'", "session.queries[0]",
                 id="session.queries[0].element"),
    pytest.param(session_from_json, _session({"kind": "pairing", "points": [SIGNED_T, 5]}), ValidationError,
                 "session.queries[0].points[1]: expected an object, got int", "session.queries[0].points[1]",
                 id="session.queries[0].points[1]"),
    pytest.param(session_from_json, _session({"kind": "pairing", "points": [SIGNED_T, {"sign": 1, "word": "t * 3"}]}),
                 ParseError, "session.queries[0].points[1].word: expected a factor name (at position 4)", 4,
                 id="session.queries[0].points[1].word"),
    pytest.param(session_from_json, _session({"kind": "compare", "discs": ["d", "e"]}), ValidationError,
                 "session.queries[0].discs[1]: undeclared disc 'e'", "session.queries[0].discs[1]",
                 id="session.queries[0].discs[1]"),
    pytest.param(session_from_json, _session({"kind": "compare", "discs": ["d"]}), ValidationError,
                 "session.queries[0].discs: compare takes exactly two disc names", "session.queries[0].discs",
                 id="session.queries[0].discs-one-name"),
    # precedence: every generator is parsed before the kernel checks any, so a
    # parse error after a zero generator is the one reported
    pytest.param(_kernel, {"generators": ["t - t", "t +"]}, ParseError,
                 "dax_kernel.generators[1]: expected a factor name (at position 3)", 3,
                 id="dax_kernel.generators-all-parsed"),
    # precedence: compare's length check runs before any name is looked up
    pytest.param(session_from_json, _session({"kind": "compare", "discs": ["x", "y", "z"]}), ValidationError,
                 "session.queries[0].discs: compare takes exactly two disc names", "session.queries[0].discs",
                 id="session.queries[0].discs"),
    # one row per way an entry of a word list can fail its shape test
    pytest.param(_disc, {"sr_discs": [SIGNED_T, 5]}, ValidationError,
                 "disc.sr_discs[1]: expected an object, got int", "disc.sr_discs[1]", id="disc.sr_discs[1]-int"),
    pytest.param(_disc, {"sr_discs": [SIGNED_T, [1, "t"]]}, ValidationError,
                 "disc.sr_discs[1]: expected an object, got list", "disc.sr_discs[1]", id="disc.sr_discs[1]-list"),
    pytest.param(_disc, {"sr_discs": [SIGNED_T, {"word": "t"}]}, ValidationError,
                 "disc.sr_discs[1]: missing required key 'sign'", "disc.sr_discs[1]", id="disc.sr_discs[1].sign-missing"),
    pytest.param(_disc, {"sr_discs": [SIGNED_T, {"sign": 1, "wort": "t"}]}, ValidationError,
                 "disc.sr_discs[1]: missing required key 'word'", "disc.sr_discs[1]", id="disc.sr_discs[1].word-misspelt"),
    pytest.param(_disc, {"sr_discs": [SIGNED_T, {"sign": 1.0, "word": "t"}]}, ValidationError,
                 "disc.sr_discs[1].sign: expected an integer, got float", "disc.sr_discs[1].sign",
                 id="disc.sr_discs[1].sign-float"),
    pytest.param(_disc, {"sr_discs": [SIGNED_T, {"sign": "1", "word": "t"}]}, ValidationError,
                 "disc.sr_discs[1].sign: expected an integer, got str", "disc.sr_discs[1].sign",
                 id="disc.sr_discs[1].sign-str"),
    pytest.param(_disc, {"sr_discs": [SIGNED_T, {"sign": None, "word": "t"}]}, ValidationError,
                 "disc.sr_discs[1].sign: expected an integer, got NoneType", "disc.sr_discs[1].sign",
                 id="disc.sr_discs[1].sign-null"),
    pytest.param(_disc, {"sr_discs": [SIGNED_T, {"sign": -1, "word": 5}]}, ValidationError,
                 "disc.sr_discs[1].word: expected a string, got int", "disc.sr_discs[1].word",
                 id="disc.sr_discs[1].word-int"),
    pytest.param(_disc, {"sr_discs": [SIGNED_T, {"sign": 1, "word": None}]}, ValidationError,
                 "disc.sr_discs[1].word: expected a string, got NoneType", "disc.sr_discs[1].word",
                 id="disc.sr_discs[1].word-null"),
    pytest.param(_disc, {"sr_discs": [SIGNED_T, {"sign": 1, "word": ["t"]}]}, ValidationError,
                 "disc.sr_discs[1].word: expected a string, got list", "disc.sr_discs[1].word",
                 id="disc.sr_discs[1].word-list"),
    pytest.param(_disc, {"double_tubes": ["a", ["a"]]}, ValidationError,
                 "disc.double_tubes[1]: expected a string, got list", "disc.double_tubes[1]",
                 id="disc.double_tubes[1]-list"),
    pytest.param(_disc, {"sr_discs": {"sign": 1, "word": "t"}}, ValidationError,
                 "disc.sr_discs: expected a list, got dict", "disc.sr_discs", id="disc.sr_discs-not-a-list"),
    pytest.param(_disc, {"double_tubes": "a"}, ValidationError,
                 "disc.double_tubes: expected a list, got str", "disc.double_tubes", id="disc.double_tubes-not-a-list"),
    pytest.param(_disc, {"sr_discs": [SIGNED_T, SIGNED_T, {"sign": 1, "word": "t", "x": 0}]}, ValidationError,
                 "disc.sr_discs[2]: unknown key 'x'", "disc.sr_discs[2]", id="disc.sr_discs[2]-after-a-repeat"),
    pytest.param(_disc, {"sr_discs": [SIGNED_T, SIGNED_T, {"sign": -2, "word": "t"}]}, ValidationError,
                 "disc.sr_discs[2].sign: sign must be +1 or -1, got -2", "disc.sr_discs[2].sign",
                 id="disc.sr_discs[2].sign-after-a-repeat"),
    pytest.param(_disc, {"double_tubes": ["a", "a", None]}, ValidationError,
                 "disc.double_tubes[2]: expected a string, got NoneType", "disc.double_tubes[2]",
                 id="disc.double_tubes[2]-after-a-repeat"),
    pytest.param(_points, {"points": [SIGNED_T, "t"]}, ValidationError,
                 "points.points[1]: expected an object, got str", "points.points[1]", id="points.points[1]-str"),
    pytest.param(_points, {"points": [SIGNED_T, {"sign": -1, "word": 7}]}, ValidationError,
                 "points.points[1].word: expected a string, got int", "points.points[1].word", id="points.points[1].word"),
    pytest.param(_points, {"points": "t"}, ValidationError,
                 "points.points: expected a list, got str", "points.points", id="points.points-not-a-list"),
    pytest.param(session_from_json, _session({"kind": "pairing", "points": [SIGNED_T, {"sign": 1.0, "word": "t"}]}),
                 ValidationError, "session.queries[0].points[1].sign: expected an integer, got float",
                 "session.queries[0].points[1].sign", id="session.queries[0].points[1].sign"),
    pytest.param(session_from_json, _session({"kind": "pairing", "points": [SIGNED_T, SIGNED_T, {"sign": 1}]}),
                 ValidationError, "session.queries[0].points[2]: missing required key 'word'",
                 "session.queries[0].points[2]", id="session.queries[0].points[2]-after-a-repeat"),
    # precedence: tubes are read before sr_discs whatever the key order
    pytest.param(_disc, {"sr_discs": [SIGNED_T, 5], "double_tubes": ["a", 5]}, ValidationError,
                 "disc.double_tubes[1]: expected a string, got int", "disc.double_tubes[1]", id="disc-tubes-first"),
    pytest.param(_disc, {"sr_discs": [5], "double_tubes": ["a", "z"]}, ParseError,
                 "disc.double_tubes[1]: unknown factor name 'z' (at position 0)", 0, id="disc-tube-parse-first"),
    # precedence: entries are read in order, so entry i's parse error beats entry i+1's shape error
    pytest.param(_disc, {"sr_discs": [SIGNED_T, {"sign": 1, "word": "t a a"}, 5]}, ParseError,
                 "disc.sr_discs[1].word: unexpected trailing input (at position 2)", 2, id="disc.sr_discs-in-order"),
    pytest.param(_disc, {"double_tubes": ["z", 5]}, ParseError,
                 "disc.double_tubes[0]: unknown factor name 'z' (at position 0)", 0, id="disc.double_tubes-in-order"),
]


@pytest.mark.parametrize("decode, obj, error, message, where", ITEM_ERRORS)
def test_item_errors_carry_the_full_field_path(decode, obj, error, message, where):
    with pytest.raises(error) as excinfo:
        decode(obj)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
    # a re-wrapped parse error keeps its position into the field's text
    assert (excinfo.value.position if error is ParseError else excinfo.value.path) == where


def test_execute_matches_manifold_kernel_fuzz():
    rng = random.Random(62)
    for _ in range(50):
        spec = random_spec(rng)
        manifold = ManifoldModel(spec, random_kernel(rng, spec))
        data = random_srdata(rng, spec)
        obj = {
            "manifold": manifold_to_json(manifold),
            "discs": {"d": disc_to_json(data)},
            "queries": [{"kind": "invariant", "disc": "d"}, {"kind": "normalize", "disc": "d"}],
        }
        doc = session_from_json(obj)
        results = execute(doc)
        assert results[0]["value"] == str(phi(data, manifold))
        assert disc_from_json(results[1]["value"], spec) == normalize(data, manifold)


@pytest.fixture
def parse_calls(monkeypatch):
    """The texts documents passes to parse_word, in call order."""
    calls = []
    original = daxcalc.documents.parse_word

    def counted(text, spec):
        calls.append(text)
        return original(text, spec)

    monkeypatch.setattr(daxcalc.documents, "parse_word", counted)
    return calls


def _signed(words):
    return [{"sign": 1, "word": w} for w in words]


def test_each_distinct_word_is_parsed_once_per_session(parse_calls):
    texts = ["t", "t^2", "t*t", "t^-1"]  # K = 4 distinct texts, two of them one value
    fields = [texts[i % 4] for i in range(30)]
    obj = {
        "manifold": "boundary_connect_sum",
        "discs": {"d1": {"double_tubes": fields[:10], "sr_discs": _signed(fields[10:20])}, "d2": {}},
        "queries": [{"kind": "pairing", "points": _signed(fields[20:])}],
    }
    group = instantiate("boundary_connect_sum").group
    keys = set(vars(group))
    doc = session_from_json(obj)
    assert sorted(parse_calls) == sorted(texts)  # one call per distinct text, where N = 30 were made
    elements = doc.discs["d1"].double_tubes + tuple(g for _, g in doc.discs["d1"].sr_discs + doc.queries[0][1])
    by_text = {}
    for text, g in zip(fields, elements):
        assert by_text.setdefault(text, g) is g
    assert by_text["t^2"] == by_text["t*t"] and by_text["t^2"] is not by_text["t*t"]
    again = session_from_json(obj)
    again_elements = again.discs["d1"].double_tubes + tuple(g for _, g in again.discs["d1"].sr_discs)
    assert not {id(g) for g in elements} & {id(g) for g in again_elements}  # nothing outlives a call
    assert set(vars(group)) == keys  # the preset spec holds no table


def test_standalone_disc_and_point_files_share_words_within_one_call(parse_calls):
    disc = disc_from_json({"double_tubes": ["a", "a"], "sr_discs": _signed(["t", "a", "t"])}, SPEC)
    assert parse_calls == ["a", "t"]
    assert disc.double_tubes[0] is disc.double_tubes[1] is disc.sr_discs[1][1]
    points = point_document_from_json({"points": _signed(["t", "t"])}, SPEC)
    assert parse_calls == ["a", "t", "t"]
    assert points[0][1] is points[1][1] and points[0][1] is not disc.sr_discs[0][1]


@pytest.fixture
def check_calls(monkeypatch):
    """Calls of documents' _object and _expect, by name."""
    calls = Counter()
    for name in ("_object", "_expect"):
        original = getattr(daxcalc.documents, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(daxcalc.documents, name, counted)
    return calls


def test_a_repeated_list_entry_costs_no_checked_decoder_call(check_calls):
    """Doubling every word list of a valid session adds no _object or _expect call: repeats take the shape test only."""
    rng = random.Random(35)
    obj = {
        "manifold": manifold_to_json(ManifoldModel(SPEC, TrivialKernel())),
        "discs": {f"d{i}": disc_to_json(random_srdata(rng, SPEC, max_discs=30)) for i in range(40)},
        "queries": [{"kind": "pairing", "points": disc_to_json(random_srdata(rng, SPEC, max_discs=30))["sr_discs"]}
                    for _ in range(10)],
    }
    doubled = json.loads(json.dumps(obj))
    for disc in doubled["discs"].values():
        disc["double_tubes"] *= 2
        disc["sr_discs"] *= 2
    for query in doubled["queries"]:
        query["points"] *= 2
    counts = []
    for session in (obj, doubled):
        check_calls.clear()
        doc = session_from_json(session)
        counts.append(dict(check_calls))
    assert sum(len(d.sr_discs) + len(d.double_tubes) for d in doc.discs.values()) > 1000
    assert counts[0] == counts[1]
    assert session_from_json(obj).discs == {name: SRData(d.double_tubes[: len(d.double_tubes) // 2],
                                                         d.sr_discs[: len(d.sr_discs) // 2])
                                            for name, d in doc.discs.items()}
