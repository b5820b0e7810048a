"""Signed double-point bookkeeping for homotopies of embedded arcs.

A homotopy between arc loops, put in general position, leaves a finite list
of signed double points, each carrying the loop class it traces out.  Its
invariant value is the signed sum of those classes, with trivial-loop points
filtered away; the filter count is reported so the caller can see it happen.
The same evaluation applies to compositions of spin maps, where trivial
entries are rejected outright instead of filtered.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from .errors import ValidationError
from .groups import GroupElement, GroupSpec
from .ring import RingElement


class DaxValue(NamedTuple):
    value: RingElement
    dropped: int


def _check_points(points: Sequence[tuple[int, GroupElement]], spec: GroupSpec) -> None:
    for i, (sign, loop) in enumerate(points):
        if isinstance(sign, bool) or sign not in (1, -1):
            raise ValidationError(f"points[{i}]: sign must be +1 or -1, got {sign}")
        if loop.spec != spec:
            raise ValidationError(f"points[{i}]: element is not over the given group spec")


def dax_value(points: Sequence[tuple[int, GroupElement]], spec: GroupSpec) -> DaxValue:
    """Signed sum of the nontrivial loops; identity loops are dropped and counted."""
    _check_points(points, spec)
    total = Counter()
    dropped = 0
    for sign, loop in points:
        if loop.is_identity:
            dropped += 1
        else:
            total[loop] += sign
    return DaxValue(RingElement.from_mapping(spec, total), dropped)


def spin_composition_value(
    spins: Sequence[tuple[int, GroupElement]], spec: GroupSpec
) -> RingElement:
    """Value of a composition of spin maps; order never matters, spins commute.

    Trivial spin entries contribute nothing and are rejected to force the
    caller to be explicit.
    """
    value = dax_value(spins, spec).value
    for i, (_, g) in enumerate(spins):
        if g.is_identity:
            raise ValidationError(f"spins[{i}]: spin element must be nontrivial")
    return value
