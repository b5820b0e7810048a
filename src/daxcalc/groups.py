"""Exact word arithmetic in free products of cyclic groups.

Elements are reduced words: sequences of (factor index, exponent) syllables
with adjacent syllables in distinct factors and no zero exponents.  Reduction
by cascading syllable merges solves the word problem for this group class,
which covers every fundamental group the calculator works with (free groups,
finite cyclic groups and their free products, and the trivial group as the
empty product).  Every word _merge builds (a parse, product, inverse or power)
shares one (index, exponent) pair per syllable with |exponent| <= 16 from a
table fixed when its spec is built; a second maps each printed spelling with
1 <= |exponent| <= 16 ("t", "t^-3") to its pair for words.py.  Each holds at
most 32 entries per factor, a spec at most _MAX_FACTORS factors of names of
at most _MAX_NAME characters, and input never makes either grow.
"""

from __future__ import annotations

import re
from typing import Iterable, Union

from .errors import ValidationError, _require, _require_iter

_NAME = r"[A-Za-z][A-Za-z0-9_]*"  # a factor name; words.py builds its word patterns from it
_NAME_RE = re.compile(_NAME + r"\Z")
_MAX_FACTORS = 256  # bounds the per-factor tables: about 6 KiB each for short names
_MAX_NAME = 64  # the spelling table holds 31 copies of each name


class _Value:
    """Base of the immutable values: repr, ==, hash and match patterns read the fields named in _fields.

    A constructor checks its arguments, then sets each field once through _set;
    any later assignment or deletion raises AttributeError.  A value without
    fields, such as a preset kernel, takes no arguments.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self) -> None:
        pass

    def __init_subclass__(cls):
        # the constructor signatures are public and say "-> None"; the __future__ import would make that the string 'None'
        cls.__init__.__annotations__["return"] = None
        cls.__match_args__ = cls._fields  # a positional pattern such as `case Factor(name, order)` binds the fields in order

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or all(getattr(self, name) == getattr(other, name) for name in self._fields)

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self._fields))


class Factor(_Value):
    """One cyclic factor: infinite cyclic when order is None, else Z/order."""

    _fields = ("name", "order")
    order = None

    def __init__(self, name: str, order: int | None = None) -> None:
        if isinstance(name, str) and len(name) > _MAX_NAME:  # before the regex walks it
            raise ValidationError(f"a factor name may have at most {_MAX_NAME} characters, got {len(name)}")
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValidationError(f"invalid factor name {name!r}")
        if order is not None and type(order) is not int:
            raise ValidationError(f"finite factor {name!r} must have an integer order, got {order!r}")
        if order is not None and order < 2:
            raise ValidationError(
                f"finite factor {name!r} must have order >= 2, got {order}"
            )
        self._set(name=name, order=order)


class GroupSpec(_Value):
    """An ordered free product of cyclic factors; empty means the trivial group."""

    _fields = ("factors",)
    factors = ()

    def __init__(self, factors: tuple[Factor, ...] = ()) -> None:
        factors = tuple(_require_iter(factors, "factors must be an iterable of Factor"))
        if len(factors) > _MAX_FACTORS:
            raise ValidationError(f"a group may have at most {_MAX_FACTORS} factors, got {len(factors)}")
        for i, f in enumerate(factors):
            if not isinstance(f, Factor):
                raise ValidationError(f"{f!r} is not a Factor", f"factors[{i}]")
        index = {f.name: i for i, f in enumerate(factors)}
        if len(index) != len(factors):
            raise ValidationError("factor names must be pairwise distinct")
        # _merge's one shared (index, exp) per reduced syllable with |exp| <= 16; input never adds to it
        pairs = tuple({e: (i, e) for e in range(-16, 17) if e and (f.order is None or 0 < e < f.order)} for i, f in enumerate(factors))
        # the name, order, pair and spelling tables are left out of _fields, so ==, hash and repr see only the factors
        self._set(
            factors=factors,
            _index=index,
            _orders=tuple(f.order for f in factors),
            _pairs=pairs,
            # words._syllables' one lookup per spelling with 1 <= |exp| <= 16; the raw (unreduced) pair, _pairs' where it has one
            _spellings={f.name if e == 1 else f"{f.name}^{e}": pairs[i].get(e) or (i, e) for i, f in enumerate(factors) for e in range(-16, 17) if e},
        )

    @property
    def is_trivial(self) -> bool:
        return not self.factors

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ValidationError(f"unknown factor name {name!r}") from None

    def identity(self) -> "GroupElement":
        return GroupElement(self, ())

    def generator(self, name: str) -> "GroupElement":
        return self.element([(name, 1)])

    def element(self, syllables: Iterable[tuple[Union[int, str], int]]) -> "GroupElement":
        """Build the reduced word with the given syllables, checking every one before any is merged."""
        pairs = []
        for syllable in _require_iter(syllables, "syllables must be an iterable of pairs"):
            try:
                ref, exp = syllable
            except (TypeError, ValueError):
                raise ValidationError(f"syllable {syllable!r} is not a (factor, exponent) pair") from None
            index = ref if type(ref) is int else self.index_of(ref)
            if type(exp) is not int:
                raise ValidationError(f"exponent {exp!r} is not a reduced integer for factor index {index}")
            if not 0 <= index < len(self._orders):
                raise ValidationError(f"factor index {index} out of range")
            pairs.append((index, exp))
        return self._merge([], pairs)

    def _merge(self, stack: list[tuple[int, int]], syllables: Iterable[tuple[int, int]]) -> "GroupElement":
        """Merge each (in-range index, int exponent) pair onto the reduced word in stack; wrap it, skipping the constructor's checks."""
        orders, pairs = self._orders, self._pairs
        for index, exp in syllables:
            if stack and stack[-1][0] == index:
                exp += stack.pop()[1]
            if (order := orders[index]) is not None:
                exp %= order
            if exp:
                stack.append(pairs[index].get(exp) or (index, exp))
        g = object.__new__(GroupElement)
        object.__setattr__(g, "spec", self)
        object.__setattr__(g, "syllables", tuple(stack))
        return g

    def __str__(self) -> str:
        if self.is_trivial:
            return "1"
        parts = [f.name if f.order is None else f"{f.name}(order {f.order})" for f in self.factors]
        return " * ".join(parts)


class GroupElement(_Value):
    """A reduced word over a GroupSpec; the empty word is the identity."""

    _fields = ("spec", "syllables")

    def __init__(self, spec: GroupSpec, syllables: tuple[tuple[int, int], ...]) -> None:
        _require(spec, GroupSpec, "element spec must be a GroupSpec")
        what = "syllables must be (factor index, exponent) pairs"
        entries = tuple(_require_iter(syllables, what))  # outside the try: the caller's own TypeError passes
        try:
            syllables = tuple(map(tuple, entries))
            orders, prev = spec._orders, None
            for index, exp in syllables:
                if type(index) is not int:
                    raise ValidationError(f"factor index {index!r} is not an integer")
                if type(exp) is int and not 0 <= index < len(orders):
                    raise ValidationError(f"factor index {index} out of range")
                if type(exp) is not int or exp == 0 or orders[index] is not None and not 0 < exp < orders[index]:
                    raise ValidationError(f"exponent {exp!r} is not a reduced integer for factor index {index}")
                if prev == index:
                    raise ValidationError("adjacent syllables must use distinct factors")
                prev = index
        except (TypeError, ValueError):  # an entry that is not a pair
            raise ValidationError(what) from None
        self._set(spec=spec, syllables=syllables)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.syllables == other.syllables and (self.spec is other.spec or self.spec == other.spec)

    def __hash__(self):
        return hash(self.syllables)  # the spec is compared by ==, left out of the hash

    @property
    def is_identity(self) -> bool:
        return not self.syllables

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.spec != self.spec:
            raise ValidationError("cannot multiply elements over different group specs")
        return self.spec._merge(list(self.syllables), other.syllables)

    def __invert__(self) -> "GroupElement":
        return self.spec._merge([], ((i, -exp) for i, exp in reversed(self.syllables)))

    def __pow__(self, n: int) -> "GroupElement":
        if type(n) is not int:
            return NotImplemented
        base = ~self if n < 0 else self
        n = abs(n)
        result = self.spec.identity()
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def is_two_torsion(self) -> bool:
        """True iff the element is nontrivial and squares to the identity."""
        return not self.is_identity and (self * self).is_identity

    def __str__(self) -> str:
        if self.is_identity:
            return "1"
        parts = []
        try:
            for index, exp in self.syllables:
                name = self.spec.factors[index].name
                parts.append(name if exp == 1 else f"{name}^{exp}")
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise ValidationError(f"exponent of {abs(exp).bit_length()} bits is too long to print") from None
        return "*".join(parts)

    def __lt__(self, other: "GroupElement") -> bool:
        return canonical_key(self) < canonical_key(other)


def canonical_key(g: GroupElement):
    """Sort key realizing the canonical total order on reduced words.

    Shorter words come first; ties break syllable by syllable on
    (factor index, |exponent|, sign) with positive exponents before negative.
    """
    syllables = _require(g, GroupElement, "element must be a GroupElement").syllables
    return len(syllables), tuple((index, abs(exp), 0 if exp > 0 else 1) for index, exp in syllables)


def compare_canonical(a: GroupElement, b: GroupElement) -> int:
    """Three-way comparison under the canonical order: -1, 0 or 1."""
    ka, kb = canonical_key(a), canonical_key(b)  # each checks its element before .spec is read
    if a.spec != b.spec:
        raise ValidationError("cannot compare elements over different group specs")
    return (ka > kb) - (ka < kb)
