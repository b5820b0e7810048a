"""Disc presentations relative to a base disc, and their move calculus.

A presentation lists double tubes (nontrivial 2-torsion elements) and signed
self-referential discs (nontrivial elements with a sign).  Raw data may repeat
tubes and carry opposite-signed duplicates; normalization applies the three
moves that do not change the isotopy class:

  1. merge each pair of equal double tubes into one +1 self-referential disc
     carrying the same element,
  2. cancel opposite-signed self-referential discs on the same element, and
  3. sort both lists canonically (any permutation is allowed, so the order
     carries no information).

Normalized data satisfies the distinctness and no-opposite-pair constraints
and is a fixed point of normalize.

Three built-in manifold models cover the worked examples: the boundary
connect sum of S^2 x D^2 and S^1 x B^3 (infinite cyclic group, zero kernel),
the interior connect sum of the same pieces (infinite cyclic group,
inverse-pair kernel), and a simply connected manifold (trivial group, zero
kernel).  Kernels for other manifolds are supplied by the user as explicit
generator lists.
"""

from __future__ import annotations

from collections import Counter

from .errors import ValidationError, _require, _require_iter
from .groups import Factor, GroupElement, GroupSpec, _Value, canonical_key
from .kernel import ExplicitKernel, InversePairsKernel, KernelSpec, TrivialKernel
from .ring import _sign_problem


class SRData(_Value):
    """Disc data: double tubes and signed self-referential discs."""

    _fields = ("double_tubes", "sr_discs")
    double_tubes = sr_discs = ()

    def __init__(self, double_tubes: tuple[GroupElement, ...] = (), sr_discs: tuple[tuple[int, GroupElement], ...] = ()) -> None:
        what = "double_tubes and sr_discs must be sequences"
        tubes = tuple(_require_iter(double_tubes, what))
        discs = tuple(_require_iter(sr_discs, what))
        for j, disc in enumerate(discs):
            if not isinstance(disc, (tuple, list)) or len(disc) != 2:
                raise ValidationError("disc must be a (sign, element) pair", f"sr_discs[{j}]")
        self._set(double_tubes=tubes, sr_discs=tuple(tuple(d) for d in discs))

    @property
    def is_empty(self) -> bool:
        return not self.double_tubes and not self.sr_discs


class ManifoldModel(_Value):
    """The ambient data the invariant depends on: group, kernel, a label."""

    _fields = ("group", "kernel", "label")
    label = ""

    def __init__(self, group: GroupSpec, kernel: KernelSpec, label: str = "") -> None:
        _require(group, GroupSpec, "manifold group must be a GroupSpec")
        _require(kernel, KernelSpec, "manifold kernel must be a kernel spec")
        _require(label, str, "manifold label must be a string")
        gens = kernel.generators if isinstance(kernel, ExplicitKernel) else ()
        if gens and gens[0].spec != group:  # ExplicitKernel holds all to one spec
            raise ValidationError("kernel generators[0] is not over the manifold group")
        self._set(group=group, kernel=kernel, label=label)

    def describe(self) -> str:
        return f"group: {self.group}  kernel: {self.kernel.describe()}"


_T = GroupSpec((Factor("t"),))  # infinite cyclic, generated by t
_PIECES = "S^2 x D^2 and S^1 x B^3"

_PRESETS = {
    "boundary_connect_sum": ManifoldModel(_T, TrivialKernel(), f"boundary connect sum of {_PIECES}"),
    "connect_sum": ManifoldModel(_T, InversePairsKernel(), f"connect sum of {_PIECES}"),
    "simply_connected": ManifoldModel(GroupSpec(), TrivialKernel(), "simply connected manifold"),
}

PRESET_IDS = tuple(_PRESETS)


def instantiate(preset_id: str) -> ManifoldModel:
    """The preset's model; models are frozen, so every call shares one object."""
    try:
        return _PRESETS[preset_id]
    except (KeyError, TypeError):
        raise ValidationError(
            f"unknown preset {preset_id!r}; available: {', '.join(PRESET_IDS)}"
        ) from None


def validate(data: SRData, manifold: ManifoldModel) -> list[str]:
    """Check the raw-data constraints; returns one message per violation."""
    _require(data, SRData, "disc data must be an SRData")
    _require(manifold, ManifoldModel, "manifold must be a ManifoldModel")
    problems: list[str] = []
    group = manifold.group  # decoded elements share this object, so `is` spares them GroupSpec.__eq__
    for i, tube in enumerate(data.double_tubes):
        if not isinstance(tube, GroupElement) or (tube.spec is not group and tube.spec != group):
            problems.append(f"double_tubes[{i}]: element is not over the manifold group")
        elif tube.is_identity:
            problems.append(f"double_tubes[{i}]: element is trivial")
        elif not tube.is_two_torsion():
            problems.append(f"double_tubes[{i}]: element is not 2-torsion")
    for j, (sign, g) in enumerate(data.sr_discs):
        if problem := _sign_problem(sign):
            problems.append(f"sr_discs[{j}]: {problem}")
        if not isinstance(g, GroupElement) or (g.spec is not group and g.spec != group):
            problems.append(f"sr_discs[{j}]: element is not over the manifold group")
        elif g.is_identity:
            problems.append(f"sr_discs[{j}]: element is trivial")
    return problems


def validate_or_raise(data: SRData, manifold: ManifoldModel) -> None:
    problems = validate(data, manifold)
    if problems:
        raise ValidationError("invalid disc data: " + "; ".join(problems))


def concat(d1: SRData, d2: SRData) -> SRData:
    """List concatenation of the two presentations; no moves applied."""
    _require(d1, SRData, "disc data must be an SRData")
    _require(d2, SRData, "disc data must be an SRData")
    elements = d1.double_tubes + d2.double_tubes + tuple(g for _, g in d1.sr_discs + d2.sr_discs)
    if not all(isinstance(g, GroupElement) for g in elements):
        raise ValidationError("cannot concatenate disc data with entries that are not group elements")
    if len({g.spec for g in elements}) > 1:
        raise ValidationError("cannot concatenate disc data over different manifolds")
    return SRData(d1.double_tubes + d2.double_tubes, d1.sr_discs + d2.sr_discs)


def normalize(data: SRData, manifold: ManifoldModel) -> SRData:
    """Apply tube merging, disc cancellation and canonical sorting to a fixed point."""
    validate_or_raise(data, manifold)
    tube_counts = Counter(data.double_tubes)
    tubes = [t for t, count in tube_counts.items() if count % 2 == 1]
    net = Counter({t: count // 2 for t, count in tube_counts.items()})
    for sign, g in data.sr_discs:
        net[g] += sign
    discs: list[tuple[int, GroupElement]] = []
    for g in sorted((g for g, total in net.items() if total), key=canonical_key):
        total = net[g]
        discs.extend([(1 if total > 0 else -1, g)] * abs(total))
    tubes.sort(key=canonical_key)
    return SRData(tuple(tubes), tuple(discs))


def negate_data(data: SRData) -> SRData:
    """Data whose invariant value is the negative of the input's.

    Signs of self-referential discs flip; each double tube keeps a copy and
    gains a -1 self-referential disc on the same element, since two equal
    tubes merge into a single +1 disc.
    """
    tubes = _require(data, SRData, "disc data must be an SRData").double_tubes
    for j, (sign, _) in enumerate(data.sr_discs):
        if problem := _sign_problem(sign):
            raise ValidationError(problem, f"sr_discs[{j}]")
    discs = [(-sign, g) for sign, g in data.sr_discs]
    discs.extend((-1, t) for t in tubes)
    return SRData(tubes, tuple(discs))
