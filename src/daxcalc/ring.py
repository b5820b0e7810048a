"""The additive group of integer combinations of nontrivial group elements.

Values of the disc invariant live here: finitely supported sums c1*g1 + ... +
ck*gk with integer coefficients and every gi a nontrivial group element.  The
identity element is excluded from the support by construction.  Only the
additive structure is provided; ring multiplication is never needed.  A sum
of many terms is collected in one dict and built once by from_mapping, so each
value is validated once; `+` is for combining two values that already exist.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import ValidationError
from .groups import GroupElement, GroupSpec, canonical_key


@dataclass(frozen=True)
class RingElement:
    """Finitely supported integer combination, keys sorted canonically."""

    spec: GroupSpec
    terms: tuple[tuple[GroupElement, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(tuple(t) for t in self.terms))
        keys = []
        for g, coeff in self.terms:
            if g.spec != self.spec:
                raise ValidationError("term element belongs to a different group spec")
            if g.is_identity:
                raise ValidationError("identity element is excluded from the support")
            if coeff == 0:
                raise ValidationError("zero coefficients must not be stored")
            keys.append(canonical_key(g))
        # canonical_key is injective on reduced words: sorted and distinct = keys increase
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValidationError("terms must be strictly sorted in canonical order")

    @classmethod
    def zero(cls, spec: GroupSpec) -> "RingElement":
        return cls(spec, ())

    @classmethod
    def from_mapping(cls, spec: GroupSpec, mapping: Mapping[GroupElement, int]) -> "RingElement":
        items = sorted(mapping.items(), key=lambda item: canonical_key(item[0]))
        return cls(spec, tuple((g, c) for g, c in items if c != 0))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> tuple[GroupElement, ...]:
        return tuple(g for g, _ in self.terms)

    def coefficient(self, g: GroupElement) -> int:
        for key, coeff in self.terms:
            if key == g:
                return coeff
        return 0

    def items(self) -> Iterator[tuple[GroupElement, int]]:
        return iter(self.terms)

    def __add__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        if other.spec != self.spec:
            raise ValidationError("cannot add ring elements over different group specs")
        combined = Counter(dict(self.terms))
        combined.update(dict(other.terms))
        return RingElement.from_mapping(self.spec, combined)

    def __neg__(self) -> "RingElement":
        return RingElement(self.spec, tuple((g, -c) for g, c in self.terms))

    def __sub__(self, other: "RingElement") -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-other)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for g, c in self.terms:
            mag = abs(c)
            try:
                digits = str(mag)
            except ValueError:  # past the interpreter's int-to-str digit limit
                raise ValidationError(f"coefficient of {mag.bit_length()} bits is too long to print") from None
            body = str(g) if mag == 1 else f"{digits}*{g}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)


def monomial(g: GroupElement, coeff: int) -> RingElement:
    """The single-term combination coeff*g; coeff 0 gives zero."""
    if coeff != 0 and g.is_identity:
        raise ValidationError("monomial requires a nontrivial group element")
    return RingElement.from_mapping(g.spec, {g: coeff})


def dax_sum(g: GroupElement, sign: int) -> RingElement:
    """The signed pair sign*(g + g^-1); for 2-torsion g this is sign*2g."""
    if isinstance(sign, bool) or sign not in (1, -1):
        raise ValidationError(f"sign must be +1 or -1, got {sign}")
    if g.is_identity:
        raise ValidationError("dax_sum is undefined on the identity element")
    return RingElement.from_mapping(g.spec, {h: sign * n for h, n in Counter((g, ~g)).items()})
