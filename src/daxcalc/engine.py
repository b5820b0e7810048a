"""The disc invariant and the three-valued isotopy comparison.

phi sends a presentation to the reduced sum of its tube elements and signed
pairs g + g^-1 in the quotient of the group ring by the kernel.  A nonzero
phi difference certifies non-isotopy; equality of normalized data certifies
isotopy; over the trivial group everything is isotopic.  When phi values
agree but the data differ the answer is UNKNOWN: the kernel of phi is not
known in general, and the calculator never overclaims.

Each kernel's reduce returns a canonical coset representative, so compare
sums phi(d1) - phi(d2) unreduced and reduces that once.  Only an UNKNOWN
verdict reduces a second time, for its certificate, the reduced phi(d1).
"""

from __future__ import annotations

from collections import Counter

from .forms import ManifoldModel, SRData, normalize, validate_or_raise
from .groups import _Value
from .ring import RingElement

ISOTOPIC = "ISOTOPIC"
NOT_ISOTOPIC = "NOT_ISOTOPIC"
UNKNOWN = "UNKNOWN"


class Verdict(_Value):
    _fields = ("outcome", "certificate", "rule")  # execute copies vars(verdict) in this order

    def __init__(self, outcome: str, certificate: str, rule: str) -> None:
        self._set(outcome=outcome, certificate=certificate, rule=rule)


def phi(data: SRData, manifold: ManifoldModel) -> RingElement:
    """Invariant value of a presentation, reduced modulo the manifold kernel."""
    total = _phi_sum(data, manifold)  # checks the data before the kernel is read
    return manifold.kernel.reduce(RingElement._counted(manifold.group, total))


def compare(d1: SRData, d2: SRData, manifold: ManifoldModel) -> Verdict:
    """Decide (non-)isotopy of two presentations over the same manifold.

    Past the normal-form check, phi(d1) - phi(d2) is summed unreduced and
    reduced once; only UNKNOWN reduces again, for its certificate phi(d1).
    """
    validate_or_raise(d1, manifold)
    validate_or_raise(d2, manifold)
    if manifold.group.is_trivial:
        return Verdict(ISOTOPIC, "pi1(M) = 1", "pi1-trivial")
    n1 = normalize(d1, manifold)
    n2 = normalize(d2, manifold)
    if n1 == n2:
        return Verdict(ISOTOPIC, _format_data(n1), "equal-normal-form")
    s1 = _phi_sum(d1, manifold)
    total = s1.copy()
    total.subtract(_phi_sum(d2, manifold))
    difference = manifold.kernel.reduce(RingElement._counted(manifold.group, total))
    if difference.is_zero:
        v1 = manifold.kernel.reduce(RingElement._counted(manifold.group, s1))
        return Verdict(UNKNOWN, str(v1), "phi-coincide")
    return Verdict(NOT_ISOTOPIC, str(difference), "phi-difference")


def _phi_sum(data: SRData, manifold: ManifoldModel) -> Counter:
    """The checked data's tubes plus sign*(g + g^-1) per disc, not yet reduced."""
    validate_or_raise(data, manifold)
    total = Counter(data.double_tubes)
    for sign, g in data.sr_discs:  # sign*(g + g^-1); 2-torsion g gets 2*sign
        total[g] += sign
        total[~g] += sign
    return total


def _format_data(data: SRData) -> str:
    tubes = ", ".join(str(t) for t in data.double_tubes)
    discs = ", ".join(f"{'+' if s > 0 else '-'}{g}" for s, g in data.sr_discs)
    return f"tubes [{tubes}] discs [{discs}]"
