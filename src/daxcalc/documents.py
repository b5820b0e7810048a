"""JSON documents: groups, kernels, manifolds, discs, points and sessions.

Schema errors raise ValidationError carrying a dotted field path; malformed
JSON raises ParseError at the decoder's character offset.  Each list item's
errors carry its index, as in "sr_discs[1].sign".  Word and ring expression
strings embedded in documents use the text grammar from words.py, and a bad
one reports both its field path and its character position, as in
"sr_discs[1].word: unexpected trailing input (at position 2)".  Each
distinct word string in a document is parsed once and every field that spells
it shares that element; the table lives only for the one decoding call.

A session document bundles one manifold (preset id or inline object), a named
map of discs and a list of queries:

    {"manifold": "boundary_connect_sum",
     "discs": {"d1": {"double_tubes": [], "sr_discs": [{"sign": 1, "word": "t"}]},
               "d0": {}},
     "queries": [{"kind": "compare", "discs": ["d1", "d0"]},
                 {"kind": "invariant", "disc": "d1"},
                 {"kind": "reduce", "element": "t^-3"},
                 {"kind": "normalize", "disc": "d1"},
                 {"kind": "pairing", "points": [{"sign": 1, "word": "t"}]}]}

Queries are evaluated in declaration order and every result is one output
line in text mode, or one object in JSON mode.
"""

from __future__ import annotations

import json
from typing import Any

from .engine import compare, phi
from .errors import ParseError, ValidationError
from .forms import ManifoldModel, SRData, instantiate, normalize
from .groups import Factor, GroupElement, GroupSpec, _Value
from .kernel import ExplicitKernel, InversePairsKernel, KernelSpec, TrivialKernel
from .pairing import dax_value
from .ring import _sign_problem
from .words import parse_ringexpr, parse_word

PointList = tuple[tuple[int, GroupElement], ...]


def load_json(text: str) -> Any:
    """Decode JSON text; over-long integers and nesting past this interpreter's json limit are parse errors.

    That limit differs by version (near 1000 levels on 3.11, 10,000 on 3.12+); the CLI allows 64 (cli._MAX_DEPTH).
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from None
    except RecursionError:
        raise ParseError("invalid JSON: nesting too deep") from None
    except ValueError:
        # the only other ValueError: an integer past the int-string digit limit
        raise ParseError("invalid JSON: integer literal too long") from None


_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _expect(value: Any, kind: type, path: str) -> Any:
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError(f"expected {_TYPE_NAMES[kind]}, got {type(value).__name__}", path)
    return value


def _object(value: Any, path: str, required: set, optional: set = frozenset()) -> dict:
    """An object with every required key and no key outside required and optional."""
    data = _expect(value, dict, path)
    missing = required - data.keys()
    if missing:  # the smallest, so the message does not depend on hash order
        raise ValidationError(f"missing required key {min(missing)!r}", path)
    for key in data:
        if key not in required and key not in optional:
            raise ValidationError(f"unknown key {key!r}", path)
    return data


def _at(path: str, build, *args):
    """build(*args), its ParseError or ValidationError re-raised under path; an error's own path goes below path."""
    try:
        return build(*args)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.message}", exc.position) from None
    except ValidationError as exc:
        raise ValidationError(exc.message, path if exc.path is None else f"{path}.{exc.path}") from None


def _list(value: Any, path: str, decode, *args) -> tuple:
    """A list field, each entry decoded by decode(entry, *args, f"{path}[{i}]")."""
    return tuple(decode(entry, *args, f"{path}[{i}]") for i, entry in enumerate(_expect(value, list, path)))


def _ringexpr(value: Any, spec: GroupSpec, path: str):
    """A ring expression field parsed by parse_ringexpr, errors prefixed by path; unlike words, never shared."""
    return _at(path, parse_ringexpr, _expect(value, str, path), spec)


def _word(value: Any, spec: GroupSpec, words: dict[str, GroupElement], path: str) -> GroupElement:
    """A word field: words' element for its text (one table per spec and call), else parse_word's, stored once it parsed."""
    text = _expect(value, str, path)
    g = words.get(text)
    if g is None:
        g = words[text] = _at(path, parse_word, text, spec)
    return g


def _signed_word(value: Any, spec: GroupSpec, words: dict, path: str) -> tuple[int, GroupElement]:
    """An object {"sign": 1 or -1, "word": WORD} in sr_discs or a point list; evaluation drops identity loops."""
    data = _object(value, path, {"sign", "word"})
    sign = _expect(data["sign"], int, f"{path}.sign")
    if problem := _sign_problem(sign):
        raise ValidationError(problem, f"{path}.sign")
    return sign, _word(data["word"], spec, words, f"{path}.word")


_FACTOR_KEYS = {"Z": {"type", "name"}, "Zn": {"type", "name", "n"}}


def _factor_from_json(obj: Any, path: str) -> Factor:
    data = _expect(obj, dict, path)
    kind = _expect(data.get("type"), str, f"{path}.type")
    if kind not in _FACTOR_KEYS:
        raise ValidationError(f"unknown factor type {kind!r}; expected 'Z' or 'Zn'", f"{path}.type")
    _object(data, path, _FACTOR_KEYS[kind])
    order = _expect(data["n"], int, f"{path}.n") if "n" in data else None
    name = _expect(data["name"], str, f"{path}.name")
    return _at(path, Factor, name, order)


def group_from_json(obj: Any, path: str = "group") -> GroupSpec:
    data = _object(obj, path, {"factors"})
    factors = _list(data["factors"], f"{path}.factors", _factor_from_json)
    return _at(f"{path}.factors", GroupSpec, factors)


def group_to_json(spec: GroupSpec) -> dict:
    factors = []
    for f in spec.factors:
        if f.order is None:
            factors.append({"type": "Z", "name": f.name})
        else:
            factors.append({"type": "Zn", "name": f.name, "n": f.order})
    return {"factors": factors}


_KERNEL_PRESETS = {kernel().describe(): kernel for kernel in (TrivialKernel, InversePairsKernel)}


def kernel_from_json(obj: Any, spec: GroupSpec, path: str = "dax_kernel") -> KernelSpec:
    data = _expect(obj, dict, path)
    if "preset" in data:
        _object(data, path, {"preset"})
        name = _expect(data["preset"], str, f"{path}.preset")
        if name not in _KERNEL_PRESETS:
            expected = " or ".join(map(repr, _KERNEL_PRESETS))
            raise ValidationError(f"unknown kernel preset {name!r}; expected {expected}", f"{path}.preset")
        return _KERNEL_PRESETS[name]()
    if "generators" in data:
        _object(data, path, {"generators"})
        gens = _list(data["generators"], f"{path}.generators", _ringexpr, spec)
        return _at(path, ExplicitKernel, gens)
    raise ValidationError("kernel needs either a 'preset' or a 'generators' key", path)


def kernel_to_json(kernel: KernelSpec) -> dict:
    if isinstance(kernel, ExplicitKernel):
        return {"generators": [str(g) for g in kernel.generators]}
    return {"preset": kernel.describe()}


def manifold_from_json(obj: Any, path: str = "manifold") -> ManifoldModel:
    data = _object(obj, path, {"group", "dax_kernel"}, {"label"})
    spec = group_from_json(data["group"], f"{path}.group")
    kernel = kernel_from_json(data["dax_kernel"], spec, f"{path}.dax_kernel")
    label = _expect(data["label"], str, f"{path}.label") if "label" in data else ""
    return ManifoldModel(spec, kernel, label)


def manifold_to_json(manifold: ManifoldModel) -> dict:
    out: dict = {
        "group": group_to_json(manifold.group),
        "dax_kernel": kernel_to_json(manifold.kernel),
    }
    if manifold.label:
        out["label"] = manifold.label
    return out


def disc_from_json(obj: Any, spec: GroupSpec, path: str = "disc") -> SRData:
    return _disc(obj, spec, {}, path)


def _disc(obj: Any, spec: GroupSpec, words: dict, path: str) -> SRData:
    data = _object(obj, path, set(), {"double_tubes", "sr_discs"})
    tubes = _list(data.get("double_tubes", []), f"{path}.double_tubes", _word, spec, words)
    discs = _list(data.get("sr_discs", []), f"{path}.sr_discs", _signed_word, spec, words)
    return SRData(tubes, discs)


def disc_to_json(data: SRData) -> dict:
    return {
        "double_tubes": [str(t) for t in data.double_tubes],
        "sr_discs": [{"sign": s, "word": str(g)} for s, g in data.sr_discs],
    }


def point_document_from_json(obj: Any, spec: GroupSpec, path: str = "points") -> PointList:
    """The standalone file form {"points": [...]} used by the pairing command."""
    data = _object(obj, path, {"points"})
    return _list(data["points"], f"{path}.points", _signed_word, spec, {})


class SessionDocument(_Value):
    _fields = ("manifold", "discs", "queries")

    # queries holds (kind, value) pairs; value decodes the kind's one field:
    # a disc name, a pair of disc names, a RingElement or a PointList
    def __init__(self, manifold: ManifoldModel, discs: dict[str, SRData], queries: tuple[tuple[str, Any], ...]) -> None:
        self._set(manifold=manifold, discs=discs, queries=queries)


def _query_from_json(obj: Any, declared: dict, spec: GroupSpec, words: dict, path: str) -> tuple[str, Any]:
    data = _expect(obj, dict, path)
    kind = _expect(data.get("kind"), str, f"{path}.kind")

    def disc_name(value: Any, dpath: str) -> str:
        name = _expect(value, str, dpath)
        if name not in declared:
            raise ValidationError(f"undeclared disc {name!r}", dpath)
        return name

    if kind in ("invariant", "normalize"):
        _object(data, path, {"kind", "disc"})
        return kind, disc_name(data["disc"], f"{path}.disc")
    if kind == "compare":
        _object(data, path, {"kind", "discs"})
        if len(_expect(data["discs"], list, f"{path}.discs")) != 2:
            raise ValidationError("compare takes exactly two disc names", f"{path}.discs")
        return kind, _list(data["discs"], f"{path}.discs", disc_name)
    if kind == "reduce":
        _object(data, path, {"kind", "element"})
        return kind, _ringexpr(data["element"], spec, f"{path}.element")
    if kind == "pairing":
        _object(data, path, {"kind", "points"})
        return kind, _list(data["points"], f"{path}.points", _signed_word, spec, words)
    raise ValidationError(f"unknown query kind {kind!r}", f"{path}.kind")


def session_from_json(obj: Any, path: str = "session") -> SessionDocument:
    data = _object(obj, path, {"manifold"}, {"discs", "queries"})
    if isinstance(data["manifold"], str):
        manifold = _at(f"{path}.manifold", instantiate, data["manifold"])
    else:
        manifold = manifold_from_json(data["manifold"], f"{path}.manifold")
    words: dict[str, GroupElement] = {}  # every word field of this session, by its text
    discs: dict[str, SRData] = {}
    for name, entry in _expect(data.get("discs", {}), dict, f"{path}.discs").items():
        discs[name] = _disc(entry, manifold.group, words, f"{path}.discs.{name}")
    queries = _list(data.get("queries", []), f"{path}.queries", _query_from_json, discs, manifold.group, words)
    return SessionDocument(manifold, discs, queries)


def execute(doc: SessionDocument) -> list[dict]:
    """Evaluate the queries in declaration order; one result object each."""
    results = []
    for kind, value in doc.queries:
        if kind == "invariant":
            record = {"disc": value, "value": str(phi(doc.discs[value], doc.manifold))}
        elif kind == "compare":
            a, b = value
            record = {"discs": [a, b], **vars(compare(doc.discs[a], doc.discs[b], doc.manifold))}
        elif kind == "reduce":
            record = {"value": str(doc.manifold.kernel.reduce(value))}
        elif kind == "normalize":
            normed = normalize(doc.discs[value], doc.manifold)
            record = {"disc": value, "value": disc_to_json(normed)}
        else:
            pairing = dax_value(value, doc.manifold.group)
            record = {"value": str(pairing.value), "dropped": pairing.dropped}
        results.append({"kind": kind, **record})
    return results


def render_text(results: list[dict]) -> list[str]:
    """One deterministic line per result."""
    lines = []
    for result in results:
        if result["kind"] == "compare":
            lines.append(f"{result['outcome']}  certificate: {result['certificate']}")
        elif result["kind"] == "normalize":
            lines.append(json.dumps(result["value"]))
        else:
            lines.append(str(result["value"]))
    return lines
