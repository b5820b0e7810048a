"""Shared random generators and an exact lattice membership oracle.

The oracle decides whether a vector lies in the integer row span of a
generator matrix without calling any kernel reduction code.  Independent
rows leave a unique rational solution, found by exact elimination; a
dependency yields a primitive integer null vector u with some u[j] > 0,
so any solution can be shifted until 0 <= c_j < u[j], and that coefficient
is enumerated while the remaining rows recurse.  Both paths are exact, so
the oracle is a sound and complete decision procedure for the small
instances the tests generate.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from daxcalc import (
    ExplicitKernel,
    Factor,
    GroupElement,
    GroupSpec,
    InversePairsKernel,
    ParseError,
    RingElement,
    SRData,
    TrivialKernel,
    canonical_key,
)

FACTOR_NAMES = ("a", "b", "c")


def random_spec(rng: random.Random, max_factors: int = 3) -> GroupSpec:
    count = rng.randint(1, max_factors)
    factors = []
    for name in FACTOR_NAMES[:count]:
        order = rng.choice((None, None, 2, 2, 3, 4))
        factors.append(Factor(name, order))
    return GroupSpec(tuple(factors))


def random_element(rng: random.Random, spec: GroupSpec, max_syllables: int = 4) -> GroupElement:
    syllables = []
    for _ in range(rng.randint(0, max_syllables)):
        index = rng.randrange(len(spec.factors))
        exp = rng.choice((-3, -2, -1, 1, 2, 3))
        syllables.append((index, exp))
    return spec.element(syllables)


def random_nontrivial(rng: random.Random, spec: GroupSpec, max_syllables: int = 4) -> GroupElement:
    while True:
        g = random_element(rng, spec, max_syllables)
        if not g.is_identity:
            return g


def random_two_torsion(rng: random.Random, spec: GroupSpec, max_syllables: int = 2):
    """A random conjugate w x^(n/2) w^-1 over an even factor, or None."""
    evens = [i for i, f in enumerate(spec.factors) if f.order is not None and f.order % 2 == 0]
    if not evens:
        return None
    index = rng.choice(evens)
    core = spec.element([(index, spec.factors[index].order // 2)])
    w = random_element(rng, spec, max_syllables)
    return w * core * ~w


def random_ring_element(
    rng: random.Random, spec: GroupSpec, max_terms: int = 4, max_coeff: int = 3
) -> RingElement:
    mapping: dict[GroupElement, int] = {}
    for _ in range(rng.randint(0, max_terms)):
        g = random_nontrivial(rng, spec, max_syllables=2)
        coeff = rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c])
        mapping[g] = mapping.get(g, 0) + coeff
    return RingElement.from_mapping(spec, mapping)


def random_srdata(rng: random.Random, spec: GroupSpec, max_discs: int = 4) -> SRData:
    tubes = []
    for _ in range(rng.randint(0, 2)):
        tube = random_two_torsion(rng, spec, max_syllables=1)
        if tube is not None:
            tubes.append(tube)
    discs = []
    for _ in range(rng.randint(0, max_discs)):
        discs.append((rng.choice((1, -1)), random_nontrivial(rng, spec)))
    return SRData(tuple(tubes), tuple(discs))


def random_kernel(rng: random.Random, spec: GroupSpec):
    roll = rng.random()
    if roll < 0.3:
        return TrivialKernel()
    if roll < 0.6:
        return InversePairsKernel()
    generators = []
    for _ in range(rng.randint(1, 3)):
        gen = random_ring_element(rng, spec, max_terms=3)
        if not gen.is_zero:
            generators.append(gen)
    if not generators:
        return TrivialKernel()
    return ExplicitKernel(tuple(generators))


def ring_to_rows(elements: list[RingElement]) -> tuple[list[list[int]], list[GroupElement]]:
    """Coordinate rows of the given ring elements over their union support."""
    support = sorted({g for x in elements for g in x.support()}, key=canonical_key)
    index = {g: i for i, g in enumerate(support)}
    rows = []
    for x in elements:
        row = [0] * len(support)
        for g, c in x.items():
            row[index[g]] = c
        rows.append(row)
    return rows, support


def _null_vector(rows: list[list[int]]):
    """A primitive integer u with u . rows = 0, or None if rows are independent."""
    k, n = len(rows), len(rows[0])
    m = [[Fraction(v) for v in row] for row in rows]
    t = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, k) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        t[r], t[pivot] = t[pivot], t[r]
        for i in range(k):
            if i != r and m[i][c] != 0:
                ratio = m[i][c] / m[r][c]
                m[i] = [a - ratio * b for a, b in zip(m[i], m[r])]
                t[i] = [a - ratio * b for a, b in zip(t[i], t[r])]
        r += 1
        if r == k:
            return None
    scale = 1
    for f in t[r]:
        scale = scale * f.denominator // gcd(scale, f.denominator)
    u = [int(f * scale) for f in t[r]]
    shrink = 0
    for v in u:
        shrink = gcd(shrink, v)
    return [v // shrink for v in u]


def _solve_independent(rows: list[list[int]], target: list[int]) -> bool:
    """Exact solve of c . rows = target for independent rows; True iff integral."""
    k, n = len(rows), len(rows[0])
    aug = [[Fraction(rows[i][c]) for i in range(k)] + [Fraction(target[c])] for c in range(n)]
    r = 0
    for col in range(k):
        pivot = next(i for i in range(r, n) if aug[i][col] != 0)
        aug[r], aug[pivot] = aug[pivot], aug[r]
        for i in range(n):
            if i != r and aug[i][col] != 0:
                ratio = aug[i][col] / aug[r][col]
                aug[i] = [a - ratio * b for a, b in zip(aug[i], aug[r])]
        r += 1
    if any(aug[i][k] != 0 for i in range(r, n)):
        return False
    return all((aug[i][k] / aug[i][i]).denominator == 1 for i in range(k))


def lattice_member(rows: list[list[int]], target: list[int]) -> bool:
    """True iff target is an integer combination of the rows."""
    if not any(target):
        return True
    if not rows:
        return False
    u = _null_vector(rows)
    if u is None:
        return _solve_independent(rows, target)
    j = next(i for i, v in enumerate(u) if v != 0)
    if u[j] < 0:
        u = [-v for v in u]
    rest = rows[:j] + rows[j + 1 :]
    for value in range(u[j]):
        shifted = [t - value * rj for t, rj in zip(target, rows[j])]
        if lattice_member(rest, shifted):
            return True
    return False


# The hand-written tokenizer of daxcalc.words before it became one regex
# scanner, kept verbatim as the reference for the differential tests.
def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _is_name_char(ch: str) -> bool:
    return ch == "_" or _is_digit(ch) or ("a" <= ch <= "z") or ("A" <= ch <= "Z")


def reference_tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "*+-^":
            tokens.append((ch, ch, i))
            i += 1
        elif _is_digit(ch):
            j = i
            while j < len(text) and _is_digit(text[j]):
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif _is_name_char(ch):
            j = i
            while j < len(text) and _is_name_char(text[j]):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


# names, "_", ASCII digits, operators, ASCII and Unicode whitespace
# (\x1c is a separator that str.isspace accepts), Unicode digits and junk
SCANNER_ALPHABET = (
    ["t", "a", "b", "x_1", "_", "T9", "0", "1", "7", "42", "*", "+", "-", "^", " ", "\t", "\n"]
    + ["\x1c", "\u2003", "\xa0", "\u0663", "\uff11", "\u00b2", "\u00e9", "!", "(", "/", ".", "\x00"]
)


def random_scanner_text(rng: random.Random, max_pieces: int = 12) -> str:
    return "".join(rng.choice(SCANNER_ALPHABET) for _ in range(rng.randint(0, max_pieces)))
