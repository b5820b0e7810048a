"""Explicit reduction over the generators' support: differential checks.

ExplicitKernel.reduce builds its lattice basis from the generators' support
alone and passes x's other terms through, and hermite_normal_form narrows one
list of live rows per column.  The seed versions, whose basis also spanned
x's support and whose elimination rescanned every row, are kept in
helpers.py; here both run on a fixed-seed corpus and must agree on every
output or error.  The last test checks the reduction's coset properties.
"""

import random

from daxcalc import ExplicitKernel, RingElement, hermite_normal_form

from helpers import (
    random_ring_element,
    random_spec,
    reference_explicit_reduce,
    reference_hermite_normal_form,
)

CASES = 3000


def outcome(fn, *args):
    """str() of the result, or the error class and message."""
    try:
        result = fn(*args)
    except Exception as exc:  # the class is part of what is compared
        return type(exc).__name__, str(exc)
    return "ok", str(result)


def random_generators(rng, spec):
    """Zero to four nonzero generators, sometimes one a multiple of another."""
    generators = []
    for _ in range(rng.randint(0, 4)):
        gen = random_ring_element(rng, spec, max_terms=3)
        if not gen.is_zero:
            generators.append(gen)
    if generators and rng.random() < 0.2:
        k = rng.choice((-2, -1, 2, 3))
        generators.append(RingElement.from_mapping(spec, {g: k * c for g, c in generators[0].items()}))
    return tuple(generators)


def random_x(rng, spec, other, generators):
    """Zero, foreign, off-support, or mixed on and off the generators' support."""
    roll = rng.random()
    if roll < 0.1:
        return RingElement.zero(spec)
    if roll < 0.15:
        return random_ring_element(rng, other)
    x = random_ring_element(rng, spec, max_terms=6)
    if generators and roll < 0.7:
        on = {g: rng.randint(-9, 9) for gen in generators for g in gen.support() if rng.random() < 0.6}
        x = x + RingElement.from_mapping(spec, on)
    return x


def random_matrix(rng):
    """Zero, negative, rank-deficient or random integer rows of one width."""
    k, n = rng.randint(0, 6), rng.randint(0, 7)
    roll = rng.random()
    if roll < 0.1:
        return [[0] * n for _ in range(k)]
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
    if roll < 0.25:
        rows = [[-abs(v) for v in row] for row in rows]
    elif roll < 0.5 and k >= 2:
        # one row an integer combination of two others
        b = rng.randrange(k)
        a, c = (rng.choice([i for i in range(k) if i != b]) for _ in range(2))
        alpha, beta = rng.randint(-3, 3), rng.randint(-3, 3)
        rows[b] = [alpha * u + beta * v for u, v in zip(rows[a], rows[c])]
    return rows


def test_explicit_reduce_matches_the_reference():
    rng = random.Random(505)
    for _ in range(CASES):
        spec = random_spec(rng)
        other = random_spec(rng)
        generators = random_generators(rng, spec)
        x = random_x(rng, spec, other, generators)
        kernel = ExplicitKernel(generators)
        assert outcome(kernel.reduce, x) == outcome(reference_explicit_reduce, generators, x)


def test_hermite_normal_form_matches_the_reference():
    rng = random.Random(606)
    for _ in range(CASES):
        rows = random_matrix(rng)
        assert hermite_normal_form(rows) == reference_hermite_normal_form(rows)


def test_reduce_is_idempotent_and_constant_on_cosets():
    rng = random.Random(707)
    for _ in range(CASES // 3):
        spec = random_spec(rng)
        generators = random_generators(rng, spec)
        kernel = ExplicitKernel(generators)
        x = random_x(rng, spec, spec, generators)
        reduced = kernel.reduce(x)
        assert kernel.reduce(reduced) == reduced
        # k is an integer combination of the generators, so x + k is in x's coset
        k = RingElement.zero(spec)
        for gen in generators:
            m = rng.randint(-3, 3)
            k = k + RingElement.from_mapping(spec, {g: m * c for g, c in gen.items()})
        assert kernel.reduce(x + k) == reduced
