"""JSON documents: groups, kernels, manifolds, discs, points and sessions.

Schema errors raise ValidationError carrying a dotted field path; malformed
JSON raises ParseError at the decoder's character offset.  Word and ring
expression strings embedded in documents use the text grammar from words.py,
with the field path prefixed onto any error they produce.

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
from dataclasses import dataclass
from typing import Any

from .engine import compare, phi
from .errors import ParseError, ValidationError
from .forms import ManifoldModel, SRData, normalize
from .groups import Factor, GroupElement, GroupSpec
from .kernel import ExplicitKernel, InversePairsKernel, KernelSpec, TrivialKernel
from .pairing import dax_value
from .presets import instantiate
from .ring import RingElement
from .words import parse_ringexpr, parse_word

PointList = tuple[tuple[int, GroupElement], ...]


def load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from None


def dump_json(value: Any) -> str:
    """Canonical one-line rendering used for all document output."""
    return json.dumps(value, separators=(", ", ": "), sort_keys=False)


def _expect_object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"expected an object, got {type(value).__name__}", path)
    return value


def _expect_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"expected a list, got {type(value).__name__}", path)
    return value


def _expect_string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"expected a string, got {type(value).__name__}", path)
    return value


def _expect_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"expected an integer, got {type(value).__name__}", path)
    return value


def _check_keys(obj: dict, path: str, required: set, optional: set = frozenset()) -> None:
    for key in required:
        if key not in obj:
            raise ValidationError(f"missing required key {key!r}", path)
    for key in obj:
        if key not in required and key not in optional:
            raise ValidationError(f"unknown key {key!r}", path)


def _field_word(value: Any, spec: GroupSpec, path: str) -> GroupElement:
    text = _expect_string(value, path)
    try:
        return parse_word(text, spec)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.args[0]}") from None


def _field_ringexpr(value: Any, spec: GroupSpec, path: str) -> RingElement:
    text = _expect_string(value, path)
    try:
        return parse_ringexpr(text, spec)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc.args[0]}") from None
    except ValidationError as exc:
        raise ValidationError(str(exc), path) from None


def _signed_word(value: Any, spec: GroupSpec, path: str) -> tuple[int, GroupElement]:
    """An object {"sign": 1 or -1, "word": WORD}, as in sr_discs and point lists."""
    data = _expect_object(value, path)
    _check_keys(data, path, {"sign", "word"})
    sign = _expect_int(data["sign"], f"{path}.sign")
    if sign not in (1, -1):
        raise ValidationError(f"sign must be 1 or -1, got {sign}", f"{path}.sign")
    return sign, _field_word(data["word"], spec, f"{path}.word")


def group_from_json(obj: Any, path: str = "group") -> GroupSpec:
    data = _expect_object(obj, path)
    _check_keys(data, path, {"factors"})
    factors = []
    for i, entry in enumerate(_expect_list(data["factors"], f"{path}.factors")):
        fpath = f"{path}.factors[{i}]"
        fobj = _expect_object(entry, fpath)
        kind = _expect_string(fobj.get("type"), f"{fpath}.type")
        if kind == "Z":
            _check_keys(fobj, fpath, {"type", "name"})
            order = None
        elif kind == "Zn":
            _check_keys(fobj, fpath, {"type", "name", "n"})
            order = _expect_int(fobj["n"], f"{fpath}.n")
        else:
            raise ValidationError(f"unknown factor type {kind!r}; expected 'Z' or 'Zn'", f"{fpath}.type")
        name = _expect_string(fobj["name"], f"{fpath}.name")
        try:
            factors.append(Factor(name, order))
        except ValidationError as exc:
            raise ValidationError(str(exc), fpath) from None
    try:
        return GroupSpec(tuple(factors))
    except ValidationError as exc:
        raise ValidationError(str(exc), f"{path}.factors") from None


def group_to_json(spec: GroupSpec) -> dict:
    factors = []
    for f in spec.factors:
        if f.order is None:
            factors.append({"type": "Z", "name": f.name})
        else:
            factors.append({"type": "Zn", "name": f.name, "n": f.order})
    return {"factors": factors}


def kernel_from_json(obj: Any, spec: GroupSpec, path: str = "dax_kernel") -> KernelSpec:
    data = _expect_object(obj, path)
    if "preset" in data:
        _check_keys(data, path, {"preset"})
        name = _expect_string(data["preset"], f"{path}.preset")
        if name == "trivial":
            return TrivialKernel()
        if name == "inverse_pairs":
            return InversePairsKernel()
        raise ValidationError(
            f"unknown kernel preset {name!r}; expected 'trivial' or 'inverse_pairs'",
            f"{path}.preset",
        )
    if "generators" in data:
        _check_keys(data, path, {"generators"})
        generators = []
        for i, entry in enumerate(_expect_list(data["generators"], f"{path}.generators")):
            gpath = f"{path}.generators[{i}]"
            gen = _field_ringexpr(entry, spec, gpath)
            if gen.is_zero:
                raise ValidationError("kernel generator must be nonzero", gpath)
            generators.append(gen)
        return ExplicitKernel(tuple(generators))
    raise ValidationError("kernel needs either a 'preset' or a 'generators' key", path)


def kernel_to_json(kernel: KernelSpec) -> dict:
    if isinstance(kernel, TrivialKernel):
        return {"preset": "trivial"}
    if isinstance(kernel, InversePairsKernel):
        return {"preset": "inverse_pairs"}
    return {"generators": [str(g) for g in kernel.generators]}


def manifold_from_json(obj: Any, path: str = "manifold") -> ManifoldModel:
    data = _expect_object(obj, path)
    _check_keys(data, path, {"group", "dax_kernel"}, {"label"})
    spec = group_from_json(data["group"], f"{path}.group")
    kernel = kernel_from_json(data["dax_kernel"], spec, f"{path}.dax_kernel")
    label = _expect_string(data["label"], f"{path}.label") if "label" in data else ""
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
    data = _expect_object(obj, path)
    _check_keys(data, path, set(), {"double_tubes", "sr_discs"})
    tubes = []
    for i, entry in enumerate(_expect_list(data.get("double_tubes", []), f"{path}.double_tubes")):
        tubes.append(_field_word(entry, spec, f"{path}.double_tubes[{i}]"))
    discs = []
    for i, entry in enumerate(_expect_list(data.get("sr_discs", []), f"{path}.sr_discs")):
        discs.append(_signed_word(entry, spec, f"{path}.sr_discs[{i}]"))
    return SRData(tuple(tubes), tuple(discs))


def disc_to_json(data: SRData) -> dict:
    return {
        "double_tubes": [str(t) for t in data.double_tubes],
        "sr_discs": [{"sign": s, "word": str(g)} for s, g in data.sr_discs],
    }


def points_from_json(obj: Any, spec: GroupSpec, path: str = "points") -> PointList:
    points = []
    for i, entry in enumerate(_expect_list(obj, path)):
        # identity loops are legal here; evaluation filters them out
        points.append(_signed_word(entry, spec, f"{path}[{i}]"))
    return tuple(points)


def point_document_from_json(obj: Any, spec: GroupSpec, path: str = "points") -> PointList:
    """The standalone file form {"points": [...]} used by the pairing command."""
    data = _expect_object(obj, path)
    _check_keys(data, path, {"points"})
    return points_from_json(data["points"], spec, f"{path}.points")


@dataclass(frozen=True)
class Query:
    """One session query; exactly the fields for its kind are set."""

    kind: str
    disc: str | None = None
    discs: tuple[str, str] | None = None
    element: RingElement | None = None
    points: PointList | None = None


@dataclass(frozen=True)
class SessionDocument:
    manifold: ManifoldModel
    discs: dict[str, SRData]
    queries: tuple[Query, ...]


def _query_from_json(obj: Any, declared: dict, spec: GroupSpec, path: str) -> Query:
    data = _expect_object(obj, path)
    kind = _expect_string(data.get("kind"), f"{path}.kind")

    def disc_name(value: Any, dpath: str) -> str:
        name = _expect_string(value, dpath)
        if name not in declared:
            raise ValidationError(f"undeclared disc {name!r}", dpath)
        return name

    if kind in ("invariant", "normalize"):
        _check_keys(data, path, {"kind", "disc"})
        return Query(kind, disc=disc_name(data["disc"], f"{path}.disc"))
    if kind == "compare":
        _check_keys(data, path, {"kind", "discs"})
        pair = _expect_list(data["discs"], f"{path}.discs")
        if len(pair) != 2:
            raise ValidationError("compare takes exactly two disc names", f"{path}.discs")
        names = tuple(disc_name(n, f"{path}.discs[{i}]") for i, n in enumerate(pair))
        return Query(kind, discs=names)
    if kind == "reduce":
        _check_keys(data, path, {"kind", "element"})
        return Query(kind, element=_field_ringexpr(data["element"], spec, f"{path}.element"))
    if kind == "pairing":
        _check_keys(data, path, {"kind", "points"})
        return Query(kind, points=points_from_json(data["points"], spec, f"{path}.points"))
    raise ValidationError(f"unknown query kind {kind!r}", f"{path}.kind")


def session_from_json(obj: Any, path: str = "session") -> SessionDocument:
    data = _expect_object(obj, path)
    _check_keys(data, path, {"manifold"}, {"discs", "queries"})
    raw_manifold = data["manifold"]
    if isinstance(raw_manifold, str):
        try:
            manifold = instantiate(raw_manifold)
        except ValidationError as exc:
            raise ValidationError(str(exc), f"{path}.manifold") from None
    else:
        manifold = manifold_from_json(raw_manifold, f"{path}.manifold")
    discs: dict[str, SRData] = {}
    for name, entry in _expect_object(data.get("discs", {}), f"{path}.discs").items():
        discs[name] = disc_from_json(entry, manifold.group, f"{path}.discs.{name}")
    queries = []
    for i, entry in enumerate(_expect_list(data.get("queries", []), f"{path}.queries")):
        queries.append(_query_from_json(entry, discs, manifold.group, f"{path}.queries[{i}]"))
    return SessionDocument(manifold, discs, tuple(queries))


def execute(doc: SessionDocument) -> list[dict]:
    """Evaluate the queries in declaration order; one result object each."""
    results = []
    for query in doc.queries:
        if query.kind == "invariant":
            value = phi(doc.discs[query.disc], doc.manifold)
            results.append({"kind": "invariant", "disc": query.disc, "value": str(value)})
        elif query.kind == "compare":
            a, b = query.discs
            verdict = compare(doc.discs[a], doc.discs[b], doc.manifold)
            results.append(
                {
                    "kind": "compare",
                    "discs": [a, b],
                    "outcome": verdict.outcome,
                    "certificate": verdict.certificate,
                    "rule": verdict.rule,
                }
            )
        elif query.kind == "reduce":
            results.append({"kind": "reduce", "value": str(doc.manifold.kernel.reduce(query.element))})
        elif query.kind == "normalize":
            normed = normalize(doc.discs[query.disc], doc.manifold)
            results.append({"kind": "normalize", "disc": query.disc, "value": disc_to_json(normed)})
        else:
            value = dax_value(query.points, doc.manifold.group)
            results.append({"kind": "pairing", "value": str(value.value), "dropped": value.dropped})
    return results


def render_text(results: list[dict]) -> list[str]:
    """One deterministic line per result."""
    lines = []
    for result in results:
        if result["kind"] == "compare":
            lines.append(f"{result['outcome']}  certificate: {result['certificate']}")
        elif result["kind"] == "normalize":
            lines.append(dump_json(result["value"]))
        else:
            lines.append(str(result["value"]))
    return lines
