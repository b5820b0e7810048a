import random

import pytest

from daxcalc import (
    Factor,
    GroupSpec,
    ValidationError,
    dax_value,
    monomial,
    spin_composition_value,
)

from helpers import random_element, random_spec

SPEC = GroupSpec((Factor("t"), Factor("a", 2)))
T = SPEC.generator("t")
A = SPEC.generator("a")
ONE = SPEC.identity()


def test_dax_value_basic():
    value = dax_value([(1, T), (-1, T)], SPEC)
    assert value.value.is_zero
    assert value.dropped == 0
    value = dax_value([(1, T), (1, A), (1, T)], SPEC)
    assert value.value == monomial(T, 2) + monomial(A, 1)


def test_dax_value_drops_identity_loops():
    value = dax_value([(1, ONE), (-1, T), (1, ONE)], SPEC)
    assert value.value == monomial(T, -1)
    assert value.dropped == 2
    assert dax_value([], SPEC).value.is_zero


def test_dax_value_validation():
    with pytest.raises(ValidationError):
        dax_value([(0, T)], SPEC)
    with pytest.raises(ValidationError):
        dax_value([(True, T)], SPEC)
    other = GroupSpec((Factor("t"),))
    with pytest.raises(ValidationError):
        dax_value([(1, other.generator("t"))], SPEC)


def test_dax_value_rejects_float_sign():
    with pytest.raises(ValidationError, match="points\\[0\\]: sign must be \\+1 or -1, got 1.0"):
        dax_value([(1.0, T)], SPEC)


def test_dax_value_rejects_a_loop_that_is_not_an_element():
    with pytest.raises(ValidationError, match="points\\[0\\]: element is not over the given group spec"):
        dax_value(((1, "t"),), SPEC)


def test_dax_value_additive_under_concatenation():
    rng = random.Random(31)
    for _ in range(200):
        spec = random_spec(rng)
        first = [(rng.choice((1, -1)), random_element(rng, spec)) for _ in range(rng.randint(0, 5))]
        second = [(rng.choice((1, -1)), random_element(rng, spec)) for _ in range(rng.randint(0, 5))]
        whole = dax_value(first + second, spec)
        left = dax_value(first, spec)
        right = dax_value(second, spec)
        assert whole.value == left.value + right.value
        assert whole.dropped == left.dropped + right.dropped


def test_spin_composition_matches_dax_value():
    spins = [(1, T), (-1, A), (1, T**2)]
    assert spin_composition_value(spins, SPEC) == dax_value(spins, SPEC).value


def test_spin_composition_order_independent():
    rng = random.Random(32)
    for _ in range(100):
        spec = random_spec(rng)
        spins = []
        for _ in range(rng.randint(1, 5)):
            g = random_element(rng, spec)
            if not g.is_identity:
                spins.append((rng.choice((1, -1)), g))
        shuffled = spins[:]
        rng.shuffle(shuffled)
        assert spin_composition_value(spins, spec) == spin_composition_value(shuffled, spec)
        assert spin_composition_value(spins, spec) == dax_value(spins, spec).value


def test_dax_values_generate_a_usable_kernel():
    # values computed from point data can seed an explicit kernel directly
    from daxcalc import ExplicitKernel, equal_mod_kernel

    v1 = dax_value([(1, T), (1, ~T)], SPEC).value
    v2 = dax_value([(1, A)], SPEC).value
    kernel = ExplicitKernel((v1, v2))
    probe = dax_value([(1, T**2), (1, A), (-1, T)], SPEC).value
    assert equal_mod_kernel(probe, probe + v1 - v2, kernel)
    assert not equal_mod_kernel(probe, probe + monomial(T**5, 1), kernel)


def test_spin_composition_rejects_identity():
    with pytest.raises(ValidationError):
        spin_composition_value([(1, ONE)], SPEC)


def test_spin_inverse_cancels():
    # tau_{-g} is the inverse of tau_g: composing them contributes zero
    assert spin_composition_value([(1, T), (-1, T)], SPEC).is_zero


def test_dax_value_rejects_a_point_that_is_not_a_pair():
    with pytest.raises(ValidationError, match=r"points\[0\]: point must be a \(sign, element\) pair"):
        dax_value([(1, T, 3)], SPEC)


def test_dax_value_walks_a_one_shot_iterator_once():
    value = dax_value(iter([(1, T), (1, ONE), (-1, A)]), SPEC)
    assert value.value == monomial(T, 1) + monomial(A, -1)
    assert value.dropped == 1


def test_spin_composition_value_walks_a_one_shot_iterator_once():
    assert spin_composition_value(iter([(1, T), (1, A)]), SPEC) == monomial(T, 1) + monomial(A, 1)
    with pytest.raises(ValidationError, match=r"spins\[1\]: spin element must be nontrivial"):
        spin_composition_value(iter([(1, T), (1, ONE)]), SPEC)


FOREIGN = GroupSpec((Factor("z"),)).generator("z")


@pytest.mark.parametrize(
    "spins, message",
    [
        ([(1, T), (0, A)], "spins[1]: sign must be +1 or -1, got 0"),
        ([(1, T), (1, A, 3)], "spins[1]: point must be a (sign, element) pair"),
        ([(1, T), (-1, FOREIGN)], "spins[1]: element is not over the given group spec"),
    ],
)
def test_spin_composition_value_names_a_bad_spin_after_its_parameter(spins, message):
    with pytest.raises(ValidationError) as excinfo:
        spin_composition_value(spins, SPEC)
    assert str(excinfo.value) == message


def test_a_bad_spin_is_reported_before_a_trivial_one():
    with pytest.raises(ValidationError, match=r"spins\[1\]: sign must be \+1 or -1, got 2"):
        spin_composition_value([(1, ONE), (2, T)], SPEC)
