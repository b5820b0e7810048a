"""Explicit reduction over the generators' support: differential checks.

ExplicitKernel.reduce builds its lattice basis from the generators' support
alone and passes x's other terms through, and hermite_normal_form inserts the
rows one at a time.  The seed versions, whose basis also spanned x's support
and whose Euclidean elimination rescanned every row, are kept in helpers.py;
here both run on fixed-seed corpora, small and shaped like the benchmark's
40-generator kernel, and must agree on every output or error.  The row
operations update rows in place, from the pivot column on, so further corpora
aim at the edges of that (negative leading entries, rows zero up to the last
column, one column, 100-digit entries), and two tests check that neither the
caller's rows nor a kernel's later reduces see those updates.  The last test
checks the reduction's coset properties.

The workload-sized tests, like every test in this directory, run under the
wall-clock bound that tests/conftest.py sets, far above the under 1 s each
takes on a 2-vCPU VM, so a row operation that leaves a pivot column
unreduced fails them instead of hanging.
"""

import copy
import random

from daxcalc import ExplicitKernel, Factor, GroupSpec, RingElement, hermite_normal_form

from helpers import (
    outcome,
    random_nontrivial,
    random_ring_element,
    random_spec,
    reference_explicit_reduce,
    reference_hermite_normal_form,
)

CASES = 3000
# the benchmark's explicit-kernel group
WORKLOAD_SPEC = GroupSpec((Factor("a", 2), Factor("b", 3), Factor("t")))
COEFFS = [c for c in range(-9, 10) if c]


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


def sparse_row(rng, n, nonzeros=6):
    """n entries, `nonzeros` of them nonzero with |c| <= 9, like a workload kernel generator."""
    row = [0] * n
    for j in rng.sample(range(n), min(n, nonzeros)):
        row[j] = rng.choice(COEFFS)
    return row


def larger_matrix(rng):
    """Up to 20 x 25, sparse or dense, some rank-deficient, duplicated or all-negative."""
    k, n = rng.randint(1, 20), rng.randint(1, 25)
    if rng.random() < 0.5:
        rows = [sparse_row(rng, n) for _ in range(k)]
    else:
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(k)]
    roll = rng.random()
    if roll < 0.2:
        rows = [[-abs(v) for v in row] for row in rows]
    elif roll < 0.45 and k >= 3:
        # a third of the rows integer combinations of two others
        for b in rng.sample(range(k), k // 3):
            a, c = rng.sample([i for i in range(k) if i != b], 2)
            alpha, beta = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[b] = [alpha * u + beta * v for u, v in zip(rows[a], rows[c])]
    elif roll < 0.65 and k >= 2:
        rows += [list(rng.choice(rows)) for _ in range(rng.randint(1, k))]
        rng.shuffle(rows)
    return rows


def workload_generators(rng):
    """20 to 40 generators of six terms, |c| <= 9, sharing a support a little larger or smaller than their number."""
    n = rng.randint(20, 40)
    size = n + rng.randint(-4, 8)
    pool = set()
    while len(pool) < size:
        pool.add(random_nontrivial(rng, WORKLOAD_SPEC, max_syllables=4))
    pool = sorted(pool, key=str)
    generators = []
    for _ in range(n):
        terms = rng.sample(pool, 6)
        generators.append(RingElement.from_mapping(WORKLOAD_SPEC, {g: rng.choice(COEFFS) for g in terms}))
    return tuple(generators)


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


def test_hermite_normal_form_matches_the_reference_on_larger_matrices():
    rng = random.Random(808)
    corpus = [[], [[]], [[], [], []], [[0] * 25 for _ in range(20)]]
    corpus += [larger_matrix(rng) for _ in range(300)]
    corpus.append([sparse_row(rng, 48) for _ in range(40)])
    for rows in corpus:
        assert hermite_normal_form(rows) == reference_hermite_normal_form(rows)


def negative_led_row(rng, n):
    """A row of width n >= 1 whose first nonzero entry is negative."""
    lead = rng.randrange(n)
    return [0] * lead + [-rng.randint(1, 9)] + [rng.randint(-9, 9) for _ in range(n - lead - 1)]


def edge_matrix(rng):
    """Up to 8 x 9 of negative-led rows, rows zero up to the last column, and random rows, shuffled."""
    k, n = rng.randint(1, 8), rng.randint(1, 9)
    makers = (
        lambda: negative_led_row(rng, n),
        lambda: [0] * (n - 1) + [rng.randint(-9, 9)],
        lambda: [rng.randint(-9, 9) for _ in range(n)],
    )
    return [rng.choice(makers)() for _ in range(k)]


def test_hermite_normal_form_matches_the_reference_on_edge_rows():
    rng = random.Random(1001)
    corpus = [[negative_led_row(rng, n) for _ in range(k)] for k, n in ((1, 1), (2, 1), (3, 4), (6, 6), (8, 5))]
    corpus += [[[0] * (n - 1) + [v] for v in values] for n, values in ((1, [-3]), (4, [-6, 4]), (5, [0, -7, 2, 3]))]
    corpus += [[[rng.randint(-99, 99)] for _ in range(rng.randint(1, 8))] for _ in range(100)]  # one column
    corpus += [edge_matrix(rng) for _ in range(400)]
    for rows in corpus:
        assert hermite_normal_form(rows) == reference_hermite_normal_form(rows)


def test_hermite_normal_form_matches_the_reference_on_100_digit_entries():
    rng = random.Random(1002)
    big = 10**100
    corpus = [[[rng.randint(-big, big)] for _ in range(3)]]
    corpus += [[[rng.randint(-big, big) for _ in range(3)]] * 2]  # a repeated row: rank 1
    for _ in range(12):
        k, n = rng.randint(1, 4), rng.randint(1, 5)
        corpus.append([[rng.choice((0, rng.randint(-big, big))) for _ in range(n)] for _ in range(k)])
    corpus.append([negative_led_row(rng, 4) for _ in range(3)] + [[rng.randint(-big, big) for _ in range(4)]])
    for rows in corpus:
        assert hermite_normal_form(rows) == reference_hermite_normal_form(rows)


def test_hermite_normal_form_leaves_its_input_unchanged():
    rng = random.Random(1003)
    corpus = [larger_matrix(rng) for _ in range(100)] + [edge_matrix(rng) for _ in range(100)]
    corpus.append([sparse_row(rng, 48) for _ in range(40)])
    for rows in corpus:
        before = copy.deepcopy(rows)
        hnf, _ = hermite_normal_form(rows)
        assert rows == before
        assert not any(out is row for out in hnf for row in rows)


def test_repeated_reduces_on_one_kernel_agree():
    rng = random.Random(1004)
    for _ in range(8):
        generators = workload_generators(rng)
        kernel = ExplicitKernel(generators)
        xs = [random_x(rng, WORKLOAD_SPEC, WORKLOAD_SPEC, generators) for _ in range(4)]
        first = [kernel.reduce(x) for x in xs]
        assert [kernel.reduce(x) for x in reversed(xs)] == first[::-1]
        assert kernel.reduce(xs[0]) == first[0]
        assert first == [ExplicitKernel(generators).reduce(x) for x in xs]


def test_explicit_reduce_matches_the_reference_with_many_generators():
    rng = random.Random(909)
    for _ in range(50):
        generators = workload_generators(rng)
        kernel = ExplicitKernel(generators)
        for _ in range(2):  # the second reduce reuses the kernel's lattice matrix
            x = random_x(rng, WORKLOAD_SPEC, random_spec(rng), generators)
            assert outcome(kernel.reduce, x) == outcome(reference_explicit_reduce, generators, x)


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
