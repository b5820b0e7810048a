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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import ValidationError, _iterate, _require
from .groups import GroupElement, GroupSpec, canonical_key
from .kernel import ExplicitKernel, KernelSpec


@dataclass(frozen=True)
class SRData:
    """Disc data: double tubes and signed self-referential discs."""

    double_tubes: tuple[GroupElement, ...] = ()
    sr_discs: tuple[tuple[int, GroupElement], ...] = ()

    def __post_init__(self):
        what = "double_tubes and sr_discs must be sequences"
        object.__setattr__(self, "double_tubes", tuple(_iterate(self.double_tubes, what)))
        discs = tuple(_iterate(self.sr_discs, what))
        for j, disc in enumerate(discs):
            if not isinstance(disc, (tuple, list)) or len(disc) != 2:
                raise ValidationError(f"sr_discs[{j}]: disc must be a (sign, element) pair")
        object.__setattr__(self, "sr_discs", tuple(tuple(d) for d in discs))

    @property
    def is_empty(self) -> bool:
        return not self.double_tubes and not self.sr_discs


@dataclass(frozen=True)
class ManifoldModel:
    """The ambient data the invariant depends on: group, kernel, a label."""

    group: GroupSpec
    kernel: KernelSpec
    label: str = ""

    def __post_init__(self):
        _require(self.group, GroupSpec, "manifold group must be a GroupSpec")
        _require(self.kernel, KernelSpec, "manifold kernel must be a kernel spec")
        _require(self.label, str, "manifold label must be a string")
        gens = self.kernel.generators if isinstance(self.kernel, ExplicitKernel) else ()
        if gens and gens[0].spec != self.group:  # ExplicitKernel holds all to one spec
            raise ValidationError("kernel generators[0] is not over the manifold group")

    def describe(self) -> str:
        return f"group: {self.group}  kernel: {self.kernel.describe()}"


def validate(data: SRData, manifold: ManifoldModel) -> list[str]:
    """Check the raw-data constraints; returns one message per violation."""
    _require(data, SRData, "disc data must be an SRData")
    _require(manifold, ManifoldModel, "manifold must be a ManifoldModel")
    problems: list[str] = []
    for i, tube in enumerate(data.double_tubes):
        if not isinstance(tube, GroupElement) or tube.spec != manifold.group:
            problems.append(f"double_tubes[{i}]: element is not over the manifold group")
        elif tube.is_identity:
            problems.append(f"double_tubes[{i}]: element is trivial")
        elif not tube.is_two_torsion():
            problems.append(f"double_tubes[{i}]: element is not 2-torsion")
    for j, (sign, g) in enumerate(data.sr_discs):
        if type(sign) is not int or sign not in (1, -1):
            problems.append(f"sr_discs[{j}]: sign must be +1 or -1, got {sign}")
        if not isinstance(g, GroupElement) or g.spec != manifold.group:
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
    discs = [(-sign, g) for sign, g in data.sr_discs]
    discs.extend((-1, t) for t in tubes)
    return SRData(tubes, tuple(discs))
