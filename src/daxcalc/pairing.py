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

from .errors import ValidationError, _require_iter
from .groups import GroupElement, GroupSpec
from .ring import RingElement, _sign_problem


class DaxValue(NamedTuple):
    value: RingElement
    dropped: int


def _signed_sum(points: Sequence[tuple[int, GroupElement]], spec: GroupSpec, name: str) -> tuple[Counter, list[int]]:
    """Signed sum of the nontrivial loops and the indices of the identity ones; an error's path is name[i]."""
    total, dropped = Counter(), []
    for i, point in enumerate(_require_iter(points, f"{name} must be an iterable of pairs")):
        try:
            sign, loop = point
        except (TypeError, ValueError):
            raise ValidationError("point must be a (sign, element) pair", f"{name}[{i}]") from None
        if problem := _sign_problem(sign):
            raise ValidationError(problem, f"{name}[{i}]")
        if not isinstance(loop, GroupElement) or loop.spec != spec:
            raise ValidationError("element is not over the given group spec", f"{name}[{i}]")
        if loop.is_identity:
            dropped.append(i)
        else:
            total[loop] += sign
    return total, dropped


def dax_value(points: Sequence[tuple[int, GroupElement]], spec: GroupSpec) -> DaxValue:
    """Signed sum of the nontrivial loops; identity loops are dropped and counted."""
    total, dropped = _signed_sum(points, spec, "points")
    return DaxValue(RingElement.from_mapping(spec, total), len(dropped))


def spin_composition_value(spins: Sequence[tuple[int, GroupElement]], spec: GroupSpec) -> RingElement:
    """Value of a composition of spin maps; order never matters, spins commute.

    Trivial spin entries contribute nothing and are rejected to force the
    caller to be explicit.
    """
    total, dropped = _signed_sum(spins, spec, "spins")
    if dropped:
        raise ValidationError("spin element must be nontrivial", f"spins[{dropped[0]}]")
    return RingElement.from_mapping(spec, total)
