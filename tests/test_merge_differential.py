"""Differential tests: the one-loop word merge and the one-sort normalize
agree with their two-copy predecessors kept in helpers, and every word the
merge builds without the constructor's checks passes those checks.

Each case compares the results, or the error class and message, on a
fixed-seed corpus that includes cascading cancellations, unknown factor
names and out-of-range indices, 2-torsion tube pairs, opposite-sign
duplicate discs, elements over foreign specs and bad signs.
"""

import random

from daxcalc import (
    DaxError,
    Factor,
    GroupElement,
    GroupSpec,
    ManifoldModel,
    SRData,
    TrivialKernel,
    normalize,
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
