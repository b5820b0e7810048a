"""Differential tests: the one-loop word merge and the one-sort normalize
agree with their two-copy predecessors kept in helpers, and every word the
merge builds without the constructor's checks passes those checks.

Each case compares the results, or the error class and message, on a
fixed-seed corpus that includes cascading cancellations, unknown factor
names and out-of-range indices, 2-torsion tube pairs, opposite-sign
duplicate discs, elements over foreign specs and bad signs.

The merge takes each syllable with |exponent| <= 16 from one table per spec,
so every path that reaches it (parse_word, parse_ringexpr terms,
GroupSpec.element, *, ~ and **) is also checked on exponents inside and
outside that range, over finite factors whose order is above and below it.
Sharing is checked through public attributes only: words built separately
hold the same syllable objects, an exponent outside the range gets its own,
and a copied or unpickled spec builds equal, still shared words.
"""

import copy
import pickle
import random

from daxcalc import (
    DaxError,
    Factor,
    GroupElement,
    GroupSpec,
    ManifoldModel,
    RingElement,
    SRData,
    TrivialKernel,
    canonical_key,
    normalize,
    parse_ringexpr,
    parse_word,
)

from helpers import (
    random_element,
    random_kernel,
    random_nontrivial,
    random_spec,
    random_srdata,
    random_two_torsion,
    reference_element,
    reference_invert,
    reference_mul,
    reference_normalize,
)

CASES = 3000
FOREIGN = GroupSpec((Factor("z", 2),))


def outcome(fn, *args):
    """Not helpers.outcome: the unchecked merge may raise only a DaxError, and values, not str(), must be equal."""
    try:
        return "value", fn(*args)
    except DaxError as exc:
        return type(exc), str(exc)


def random_syllables(rng: random.Random, spec: GroupSpec) -> list:
    syllables = []
    for _ in range(rng.randint(0, 8)):
        roll = rng.random()
        if roll < 0.03:
            ref = len(spec.factors)  # out of range
        elif roll < 0.06:
            ref = "z"  # unknown name
        elif roll < 0.4:
            ref = rng.choice(spec.factors).name
        else:
            ref = rng.randrange(len(spec.factors))
        syllables.append((ref, rng.randint(-5, 5)))
    return syllables


def test_element_matches_the_reference():
    rng = random.Random(701)
    for _ in range(CASES):
        spec = random_spec(rng)
        syllables = random_syllables(rng, spec)
        assert outcome(spec.element, syllables) == outcome(reference_element, spec, syllables), syllables


def test_mul_matches_the_reference():
    rng = random.Random(702)
    for _ in range(CASES):
        spec = random_spec(rng)
        a = random_element(rng, spec, max_syllables=6)
        roll = rng.random()
        if roll < 0.05:
            b = rng.choice((3, "t", None))
        elif roll < 0.1:
            b = random_element(rng, random_spec(rng))  # foreign unless the specs coincide
        else:
            # cancel a random tail of a, so merges cascade into the stack
            tail = GroupElement(spec, a.syllables[rng.randint(0, len(a.syllables)):])
            b = ~tail * random_element(rng, spec)
        assert outcome(a.__mul__, b) == outcome(reference_mul, a, b), (a, b)


def finite_spec(rng: random.Random) -> GroupSpec:
    spec = random_spec(rng)
    if all(f.order is None for f in spec.factors):
        i = rng.randrange(len(spec.factors))
        factors = list(spec.factors)
        factors[i] = Factor(factors[i].name, rng.choice((2, 3, 4, 6)))
        spec = GroupSpec(tuple(factors))
    return spec


def checked(spec: GroupSpec, g: GroupElement) -> GroupElement:
    """g rebuilt through the public constructor, which checks every syllable."""
    assert type(g.syllables) is tuple and all(type(s) is tuple for s in g.syllables), g.syllables
    return GroupElement(spec, g.syllables)


def test_trusted_merge_output_passes_the_checking_constructor():
    rng = random.Random(704)
    for _ in range(CASES):
        spec = finite_spec(rng)
        syllables = [(rng.randrange(len(spec.factors)), rng.randint(-9, 9)) for _ in range(rng.randint(0, 10))]
        g = spec.element(syllables)
        assert checked(spec, g) == g == reference_element(spec, syllables), syllables
        h = random_element(rng, spec, max_syllables=6)
        for result in (g * h, h * g, ~g, g * ~g, g ** rng.randint(-3, 3)):
            assert checked(spec, result) == result, (g, h)
        assert (g * ~g).is_identity and ~g == reference_invert(g) and g * h == reference_mul(g, h)


def random_hostile_srdata(rng: random.Random, spec: GroupSpec) -> SRData:
    data = random_srdata(rng, spec, max_discs=6)
    tubes = list(data.double_tubes)
    discs = list(data.sr_discs)
    for _ in range(rng.randint(0, 3)):
        tube = random_two_torsion(rng, spec)
        if tube is not None:
            tubes.extend([tube] * rng.randint(1, 3))
    for sign, g in list(discs):
        if rng.random() < 0.4:
            discs.append((-sign, g))
        if rng.random() < 0.2:
            discs.append((sign, g))
    for tube in tubes[:2]:
        if rng.random() < 0.3:
            discs.append((rng.choice((1, -1)), tube))
    roll = rng.random()
    if roll < 0.04:
        discs.append((1, FOREIGN.generator("z")))
    elif roll < 0.08:
        tubes.append(FOREIGN.generator("z"))
    elif roll < 0.12 and discs:
        j = rng.randrange(len(discs))
        discs[j] = (rng.choice((0, 2, True, 1.0, -1.0)), discs[j][1])
    elif roll < 0.14:
        tubes.append(random_nontrivial(rng, spec))  # usually not 2-torsion
    rng.shuffle(tubes)
    rng.shuffle(discs)
    return SRData(tuple(tubes), tuple(discs))


def test_normalize_matches_the_reference():
    rng = random.Random(703)
    for _ in range(CASES):
        spec = random_spec(rng)
        kernel = random_kernel(rng, spec) if rng.random() < 0.5 else TrivialKernel()
        manifold = ManifoldModel(spec, kernel)
        data = random_hostile_srdata(rng, spec)
        assert outcome(normalize, data, manifold) == outcome(reference_normalize, data, manifold), data


def wide_spec(rng: random.Random) -> GroupSpec:
    """One to three factors, finite ones of order below, at and above the shared range."""
    names = ("t", "a", "b")[: rng.randint(1, 3)]
    return GroupSpec(tuple(Factor(name, rng.choice((None, None, 2, 3, 16, 17, 18, 40))) for name in names))


def wide_syllables(rng: random.Random, spec: GroupSpec, max_syllables: int = 10) -> list:
    """(index, exponent) pairs, mostly |exponent| <= 20, some far past 16."""
    syllables = []
    for _ in range(rng.randint(0, max_syllables)):
        exp = rng.randint(-20, 20) if rng.random() < 0.9 else rng.choice((1, -1)) * rng.randint(17, 10**30)
        syllables.append((rng.randrange(len(spec.factors)), exp))
    return syllables


def spelled(spec: GroupSpec, syllables) -> str:
    """Text for the unreduced syllables, with the spacing the grammar allows."""
    names = [spec.factors[i].name if exp == 1 else f"{spec.factors[i].name} ^ {exp}" for i, exp in syllables]
    return " * ".join(names) or "1"


def reference_inverse(g: GroupElement) -> GroupElement:
    return reference_element(g.spec, [(index, -exp) for index, exp in reversed(g.syllables)])


def reference_power(g: GroupElement, n: int) -> GroupElement:
    base = reference_inverse(g) if n < 0 else g
    result = reference_element(g.spec, [])
    for _ in range(abs(n)):
        result = reference_mul(result, base)
    return result


def assert_same(g: GroupElement, ref: GroupElement) -> None:
    assert g == ref and g.syllables == ref.syllables, (g, ref)
    assert hash(g) == hash(ref) and str(g) == str(ref) and canonical_key(g) == canonical_key(ref), (g, ref)


def test_every_merge_path_matches_the_reference_inside_and_outside_the_shared_range():
    rng = random.Random(705)
    for _ in range(1500):
        spec = wide_spec(rng)
        syllables = wide_syllables(rng, spec)
        ref = reference_element(spec, syllables)
        named = [(spec.factors[i].name, exp) if rng.random() < 0.5 else (i, exp) for i, exp in syllables]
        for g in (parse_word(spelled(spec, syllables), spec), spec.element(syllables), spec.element(named)):
            assert_same(g, ref)
        other_syllables = wide_syllables(rng, spec)
        h = spec.element(other_syllables)
        ref_h = reference_element(spec, other_syllables)
        assert_same(spec.element(syllables) * h, reference_mul(ref, ref_h))
        assert_same(h * ~h, reference_element(spec, []))
        assert_same(~spec.element(syllables), reference_inverse(ref))
        n = rng.randint(-4, 4)
        assert_same(spec.element(syllables) ** n, reference_power(ref, n))


def test_ring_expression_terms_match_the_reference():
    rng = random.Random(706)
    for _ in range(800):
        spec = wide_spec(rng)
        terms, count = [], rng.randint(1, 5)
        while len(terms) < count:
            syllables = wide_syllables(rng, spec)
            if not reference_element(spec, syllables).is_identity:
                terms.append((rng.choice((1, -1)), rng.randint(1, 3), syllables))
        text = " ".join(f"{'-' if sign < 0 else '+'} {coeff}*{spelled(spec, syl)}" for sign, coeff, syl in terms)
        combined: dict = {}
        for sign, coeff, syllables in terms:
            g = reference_element(spec, syllables)
            combined[g] = combined.get(g, 0) + sign * coeff
        ref = RingElement.from_mapping(spec, combined)
        x = parse_ringexpr(text.removeprefix("+ "), spec)
        assert x == ref and len(x.terms) == len(ref.terms), text
        for (g, c), (ref_g, ref_c) in zip(x.terms, ref.terms):
            assert_same(g, ref_g)
            assert c == ref_c


SHARED = GroupSpec((Factor("t"), Factor("a", 2), Factor("b", 40)))


def small_syllables(spec: GroupSpec) -> dict:
    """Each syllable object with |exponent| <= 16, read off one-syllable words parsed one by one."""
    table = {}
    for f in spec.factors:
        for exp in range(-16, 17):
            g = parse_word(f"{f.name}^{exp}", spec)
            if g.syllables and abs(g.syllables[0][1]) <= 16:  # b^-1 reduces to b^39
                table[g.syllables[0]] = g.syllables[0]
    return table


def test_words_built_separately_share_their_small_syllables():
    table = small_syllables(SHARED)
    assert len(table) == 2 * 16 + 1 + 16  # t^-16..t^16, a, b^1..b^16 (b^-1 is b^39)
    g = parse_word("t^3*a*b^16*t^-16*b^-1", SHARED)
    h = parse_word("b^16 * t^-16 * a * t^3", SHARED)
    words = [g, h, g * h, ~g, g**3, g**-2, SHARED.element([("t", 2), ("t", 1), ("b", 8), ("a", 3)])]
    words += parse_ringexpr("2*t^3*a - b^7 + t^-16", SHARED).support()
    for word in words:
        for syllable in word.syllables:
            if syllable in table:
                assert syllable is table[syllable], (word, syllable)
    unshared = {s for w in words for s in w.syllables} - set(table)
    assert (2, 39) in unshared and all(abs(exp) > 16 for _, exp in unshared)  # b^-1 reduces to b^39


def test_an_exponent_outside_the_range_gets_its_own_pair_and_the_table_does_not_grow():
    text = "t^100000"
    first, second = parse_word(text, SHARED), parse_word(text, SHARED)
    assert str(first) == text and first == second and hash(first) == hash(second)
    assert first.syllables[0] is not second.syllables[0]
    for exp in (17, -17, 100000):  # built many times over, still one pair per word
        pairs = [parse_word(f"t^{exp}*a", SHARED).syllables[0] for _ in range(3)]
        pairs += [(SHARED.generator("t") ** exp).syllables[0] for _ in range(2)]
        assert len({id(p) for p in pairs}) == len(pairs) and len(set(pairs)) == 1
    b17 = [parse_word("b^17", SHARED).syllables[0] for _ in range(2)]  # past the range, below the order
    assert b17[0] == b17[1] and b17[0] is not b17[1]


def test_a_copied_or_unpickled_spec_builds_equal_shared_words():
    rng = random.Random(707)
    corpus = [wide_syllables(rng, SHARED) for _ in range(200)]
    for copied in (copy.deepcopy(SHARED), pickle.loads(pickle.dumps(SHARED))):
        assert copied == SHARED and hash(copied) == hash(SHARED) and str(copied) == str(SHARED)
        for syllables in corpus:
            g = copied.element(syllables)
            assert_same(g, SHARED.element(syllables))
            assert_same(parse_word(spelled(copied, syllables), copied), g)
            assert_same(g * SHARED.element(syllables), reference_mul(g, g))
        assert parse_word("t^3", copied).syllables[0] is parse_word("a*t^3", copied).syllables[1]
        assert pickle.loads(pickle.dumps(parse_word("t^3*b^9", SHARED))) == parse_word("t^3*b^9", copied)
