import random

import pytest

from daxcalc import (
    ExplicitKernel,
    Factor,
    GroupSpec,
    InversePairsKernel,
    RingElement,
    TrivialKernel,
    ValidationError,
    equal_mod_kernel,
    hermite_normal_form,
    monomial,
    parse_ringexpr,
)

from helpers import (
    lattice_member,
    random_kernel,
    random_ring_element,
    random_spec,
    ring_to_rows,
)

SPEC = GroupSpec((Factor("t"), Factor("a", 2)))
T = SPEC.generator("t")
A = SPEC.generator("a")


def expr(text: str) -> RingElement:
    return parse_ringexpr(text, SPEC)


def test_trivial_kernel():
    kernel = TrivialKernel()
    x = expr("t + 2*a")
    assert kernel.reduce(x) == x
    assert kernel.describe() == "trivial"
    assert not equal_mod_kernel(expr("t"), expr("t^-1"), kernel)


def test_inverse_pairs_folding():
    kernel = InversePairsKernel()
    assert kernel.reduce(expr("t^-3")) == expr("t^3")
    assert kernel.reduce(expr("t + t^-1")) == expr("2*t")
    assert kernel.reduce(expr("t - t^-1")).is_zero
    # 2-torsion is its own inverse and stays put
    assert kernel.reduce(expr("a")) == expr("a")
    assert equal_mod_kernel(expr("t"), expr("t^-1"), kernel)
    assert not equal_mod_kernel(expr("t"), expr("t^2"), kernel)


def test_inverse_pairs_fuzz():
    rng = random.Random(11)
    kernel = InversePairsKernel()
    for _ in range(200):
        spec = random_spec(rng)
        x = random_ring_element(rng, spec)
        assert kernel.reduce(kernel.reduce(x)) == kernel.reduce(x)
        y = random_ring_element(rng, spec)
        assert kernel.reduce(x + y) == kernel.reduce(kernel.reduce(x) + kernel.reduce(y))


def test_explicit_kernel_validation():
    with pytest.raises(ValidationError):
        ExplicitKernel((RingElement.zero(SPEC),))
    other = GroupSpec((Factor("t"),))
    with pytest.raises(ValidationError):
        ExplicitKernel((expr("t"), monomial(other.generator("t"), 1)))
    with pytest.raises(ValidationError, match=r"^kernel generators use a different group spec$"):
        ExplicitKernel((expr("t"),)).reduce(monomial(other.generator("t"), 1))


def test_explicit_kernel_single_generator():
    kernel = ExplicitKernel((expr("t - t^-1"),))
    assert kernel.reduce(expr("t - t^-1")).is_zero
    assert kernel.reduce(expr("2*t - 2*t^-1")).is_zero
    assert equal_mod_kernel(expr("t"), expr("t^-1"), kernel)
    # t^3 - t^-3 is not a multiple of the single listed generator
    assert not equal_mod_kernel(expr("t^3"), expr("t^-3"), kernel)
    assert kernel.describe() == "explicit (1 generators)"


def test_explicit_kernel_empty_is_trivial():
    kernel = ExplicitKernel(())
    x = expr("t + a")
    assert kernel.reduce(x) == x


@pytest.mark.parametrize(
    "rows, expected, pivots",
    [
        ([[2, 4], [6, 8]], [[2, 0], [0, 4]], [(0, 0), (1, 1)]),
        ([[1, 0], [0, 1]], [[1, 0], [0, 1]], [(0, 0), (1, 1)]),
        ([[0, 3]], [[0, 3]], [(0, 1)]),
        ([[-2]], [[2]], [(0, 0)]),
        ([[2, 1], [4, 2]], [[2, 1]], [(0, 0)]),
        ([[3, 1], [1, 1]], [[1, 1], [0, 2]], [(0, 0), (1, 1)]),
    ],
)
def test_hermite_normal_form_pinned(rows, expected, pivots):
    hnf, got_pivots = hermite_normal_form(rows)
    assert hnf == expected
    assert got_pivots == pivots


def test_hermite_normal_form_properties():
    rng = random.Random(12)
    for _ in range(200):
        k = rng.randint(1, 3)
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        hnf, pivots = hermite_normal_form(rows)
        # pivots positive, strictly increasing columns, entries above in range
        last_col = -1
        for r, c in pivots:
            assert hnf[r][c] > 0
            assert c > last_col
            last_col = c
            for above in range(r):
                assert 0 <= hnf[above][c] < hnf[r][c]
        # same lattice in both directions
        for row in hnf:
            assert lattice_member(rows, row)
        for row in rows:
            assert lattice_member(hnf, row) if hnf else not any(row)


def test_reduce_is_canonical_coset_representative():
    rng = random.Random(13)
    checked = 0
    while checked < 150:
        spec = random_spec(rng)
        generators = [
            gen
            for gen in (random_ring_element(rng, spec, max_terms=3) for _ in range(rng.randint(1, 3)))
            if not gen.is_zero
        ]
        if not generators:
            continue
        kernel = ExplicitKernel(tuple(generators))
        x = random_ring_element(rng, spec)
        y = random_ring_element(rng, spec)
        reduced = kernel.reduce(x)
        # idempotent, and the change is a lattice member
        assert kernel.reduce(reduced) == reduced
        rows, support = ring_to_rows([*generators, x, reduced])
        target = [reduced.coefficient(g) - x.coefficient(g) for g in support]
        assert lattice_member(rows[: len(generators)], target)
        # reduction respects addition of kernel generators
        assert kernel.reduce(x + generators[0]) == reduced
        # coset equality in both phrasings
        assert equal_mod_kernel(x, y, kernel) == (kernel.reduce(x) == kernel.reduce(y))
        checked += 1


def test_inverse_pairs_image_uses_positive_exponents():
    # over Z = <t> the fold always lands on the nonnegative side
    free = GroupSpec((Factor("t"),))
    t = free.generator("t")
    rng = random.Random(15)
    kernel = InversePairsKernel()
    for _ in range(100):
        x = RingElement.zero(free)
        for _ in range(rng.randint(0, 5)):
            exponent = rng.choice([e for e in range(-6, 7) if e])
            x = x + monomial(t**exponent, rng.randint(-3, 3))
        for g in kernel.reduce(x).support():
            assert g.syllables[0][1] > 0


def test_equal_mod_kernel_spec_mismatch():
    other = GroupSpec((Factor("t"),))
    with pytest.raises(ValidationError):
        equal_mod_kernel(expr("t"), monomial(other.generator("t"), 1), TrivialKernel())


def test_random_kernel_reduce_consistency():
    rng = random.Random(14)
    for _ in range(150):
        spec = random_spec(rng)
        kernel = random_kernel(rng, spec)
        x = random_ring_element(rng, spec)
        assert kernel.reduce(kernel.reduce(x)) == kernel.reduce(x)
        assert equal_mod_kernel(x, x, kernel)


def test_equal_mod_kernel_is_equivalence_fuzz():
    rng = random.Random(16)
    for _ in range(200):
        spec = random_spec(rng)
        kernel = random_kernel(rng, spec)
        x = random_ring_element(rng, spec)
        y = random_ring_element(rng, spec)
        z = random_ring_element(rng, spec)
        if isinstance(kernel, ExplicitKernel) and kernel.generators:
            # force some genuinely equivalent pairs into the mix
            y = x + kernel.generators[0]
            z = y - kernel.generators[-1]
        assert equal_mod_kernel(x, y, kernel) == equal_mod_kernel(y, x, kernel)
        if equal_mod_kernel(x, y, kernel) and equal_mod_kernel(y, z, kernel):
            assert equal_mod_kernel(x, z, kernel)


class IntSubclass(int):
    pass


@pytest.mark.parametrize(
    "rows",
    [
        [[2], [3, 1]],  # a longer row used to lose its extra entries
        [[1, 2], [3]],  # a shorter row used to end in IndexError
        [[1.5, 2]],
        [[1, 2], [True, 0]],
        [[1, 2], [3, 4], [5, False]],  # a bool in a later row
        [[1, 2], [3, IntSubclass(4)]],  # an int subclass is not an int
        [[1, 2], [3, 4.0]],  # a float in the last column
    ],
)
def test_hermite_normal_form_rejects_ragged_or_non_integer_rows(rows):
    with pytest.raises(ValidationError, match="integer lists as long as rows"):
        hermite_normal_form(rows)


def test_explicit_kernel_rejects_a_generator_that_is_not_a_ring_element():
    with pytest.raises(ValidationError, match=r"generators\[0\]: kernel generator must be a ring element"):
        ExplicitKernel((5,))


@pytest.mark.parametrize(
    "kernel", [TrivialKernel(), InversePairsKernel(), ExplicitKernel(()), ExplicitKernel((monomial(T, 2),))],
    ids=["trivial", "inverse_pairs", "explicit-empty", "explicit"],
)
def test_reduce_rejects_a_value_that_is_not_a_ring_element(kernel):
    with pytest.raises(ValidationError, match="reduced value must be a RingElement, got int"):
        kernel.reduce(5)


@pytest.mark.parametrize("x, y", [(monomial(T, 1), 5), (5, monomial(T, 1))], ids=["second", "first"])
def test_equal_mod_kernel_rejects_a_value_that_is_not_a_ring_element(x, y):
    with pytest.raises(ValidationError, match="compared value must be a RingElement, got int"):
        equal_mod_kernel(x, y, InversePairsKernel())
