"""The additive group of integer combinations of nontrivial group elements.

Values of the disc invariant live here: finitely supported sums c1*g1 + ... +
ck*gk with integer coefficients and every gi a nontrivial group element; ring
multiplication is never needed.  One checked door: values with a spec or
terms from outside are built by the constructor, from_mapping, zero or
monomial, which check every term.  Values built from checked ones (+, -,
dax_sum, phi, kernel reduction, parsing) go through _counted or _trusted,
which check nothing; callers pass terms unsorted, and _trusted sorts them.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping

from .errors import ValidationError, _require, _require_iter
from .groups import GroupElement, GroupSpec, _Value, canonical_key


class RingElement(_Value):
    """Finitely supported integer combination, keys sorted canonically."""

    _fields = ("spec", "terms")

    def __init__(self, spec: GroupSpec, terms: tuple[tuple[GroupElement, int], ...]) -> None:
        self._set(spec=spec, terms=terms)
        self.__post_init__()

    def __post_init__(self):  # the checks, apart from __init__ so that a tracer can wrap them
        _require(self.spec, GroupSpec, "ring element spec must be a GroupSpec")
        what = "terms must be (group element, coefficient) pairs"
        entries = tuple(_require_iter(self.terms, what))  # outside the try: the caller's own TypeError passes
        try:
            object.__setattr__(self, "terms", tuple(map(tuple, entries)))
            keys = []
            for g, coeff in self.terms:
                if not isinstance(g, GroupElement):
                    raise ValidationError(f"term element {g!r} is not a group element")
                if g.spec != self.spec:
                    raise ValidationError("term element belongs to a different group spec")
                if g.is_identity:
                    raise ValidationError("identity element is excluded from the support")
                if type(coeff) is not int or coeff == 0:
                    raise ValidationError(f"coefficient {coeff!r} must be a nonzero integer")
                keys.append(canonical_key(g))
        except (TypeError, ValueError):  # an entry that is not a pair
            raise ValidationError(what) from None
        # canonical_key is injective on reduced words: sorted and distinct = keys increase
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValidationError("terms must be strictly sorted in canonical order")

    @classmethod
    def _trusted(cls, spec: GroupSpec, keyed: Iterable[tuple[tuple, GroupElement, int]]) -> "RingElement":
        """Sort checked (key, element, coefficient) triples, keys distinct, and drop zeros; skips __post_init__."""
        x = object.__new__(cls)
        object.__setattr__(x, "spec", spec)
        object.__setattr__(x, "terms", tuple((g, c) for _, g, c in sorted(t for t in keyed if t[2])))
        return x

    @classmethod
    def _counted(cls, spec: GroupSpec, mapping: Mapping[GroupElement, int]) -> "RingElement":
        """A mapping of checked nontrivial elements of spec to ints; keys each term once, checks nothing."""
        return cls._trusted(spec, ((canonical_key(g), g, c) for g, c in mapping.items()))

    @classmethod
    def zero(cls, spec: GroupSpec) -> "RingElement":
        return cls(spec, ())

    @classmethod
    def from_mapping(cls, spec: GroupSpec, mapping: Mapping[GroupElement, int]) -> "RingElement":
        """The checked door for a mapping of terms: int zeros are dropped, any other zero-like value is rejected."""
        items = sorted(_require(mapping, Mapping, "mapping must be a Mapping").items(), key=lambda item: canonical_key(item[0]))
        return cls(spec, tuple((g, c) for g, c in items if type(c) is not int or c))  # __post_init__ rejects 0.0 and False

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
        return self._combine(other, Counter.update)

    def __neg__(self) -> "RingElement":
        return RingElement._counted(self.spec, {g: -c for g, c in self.terms})

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self._combine(other, Counter.subtract)

    def _combine(self, other: "RingElement", fold) -> "RingElement":
        if not isinstance(other, RingElement):
            return NotImplemented
        if other.spec != self.spec:
            raise ValidationError("cannot add ring elements over different group specs")
        combined = Counter(dict(self.terms))
        fold(combined, dict(other.terms))
        return RingElement._counted(self.spec, combined)

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
    """The single-term combination coeff*g; only an int 0 gives zero."""
    if _require(g, GroupElement, "element must be a GroupElement").is_identity and (type(coeff) is not int or coeff):
        raise ValidationError("monomial requires a nontrivial group element")
    return RingElement.from_mapping(g.spec, {g: coeff})


def _sign_problem(sign) -> str:
    """The one sign rule: "" for the int +1 or -1, else the message; callers add their prefix."""
    return "" if type(sign) is int and sign in (1, -1) else f"sign must be +1 or -1, got {sign}"


def dax_sum(g: GroupElement, sign: int) -> RingElement:
    """The signed pair sign*(g + g^-1); for 2-torsion g this is sign*2g."""
    if problem := _sign_problem(sign):
        raise ValidationError(problem)
    if _require(g, GroupElement, "element must be a GroupElement").is_identity:
        raise ValidationError("dax_sum is undefined on the identity element")
    return RingElement._counted(g.spec, {h: sign * n for h, n in Counter((g, ~g)).items()})
