"""The disc invariant and the three-valued isotopy comparison.

phi sends a presentation to the reduced sum of its tube elements and signed
pairs g + g^-1 in the quotient of the group ring by the kernel.  A nonzero
phi difference certifies non-isotopy; equality of normalized data certifies
isotopy; over the trivial group everything is isotopic.  When phi values
agree but the data differ the answer is UNKNOWN: the kernel of phi is not
known in general, and the calculator never overclaims.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .forms import ManifoldModel, SRData, normalize, validate_or_raise
from .ring import RingElement, dax_sum

ISOTOPIC = "ISOTOPIC"
NOT_ISOTOPIC = "NOT_ISOTOPIC"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class Verdict:
    outcome: str
    certificate: str
    rule: str


def phi(data: SRData, manifold: ManifoldModel) -> RingElement:
    """Invariant value of a presentation, reduced modulo the manifold kernel."""
    validate_or_raise(data, manifold)
    total = Counter(data.double_tubes)
    for sign, g in data.sr_discs:
        total.update(dict(dax_sum(g, sign).terms))
    return manifold.kernel.reduce(RingElement.from_mapping(manifold.group, total))


def compare(d1: SRData, d2: SRData, manifold: ManifoldModel) -> Verdict:
    """Decide (non-)isotopy of two presentations over the same manifold."""
    validate_or_raise(d1, manifold)
    validate_or_raise(d2, manifold)
    if manifold.group.is_trivial:
        return Verdict(ISOTOPIC, "pi1(M) = 1", "pi1-trivial")
    n1 = normalize(d1, manifold)
    n2 = normalize(d2, manifold)
    if n1 == n2:
        return Verdict(ISOTOPIC, _format_data(n1), "equal-normal-form")
    v1 = phi(d1, manifold)
    v2 = phi(d2, manifold)
    difference = manifold.kernel.reduce(v1 - v2)
    if difference.is_zero:
        return Verdict(UNKNOWN, str(v1), "phi-coincide")
    return Verdict(NOT_ISOTOPIC, str(difference), "phi-difference")


def _format_data(data: SRData) -> str:
    tubes = ", ".join(str(t) for t in data.double_tubes)
    discs = ", ".join(f"{'+' if s > 0 else '-'}{g}" for s, g in data.sr_discs)
    return f"tubes [{tubes}] discs [{discs}]"
