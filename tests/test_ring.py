import random

import pytest

from daxcalc import (
    Factor,
    GroupSpec,
    RingElement,
    ValidationError,
    dax_sum,
    monomial,
)

from helpers import random_nontrivial, random_ring_element, random_spec

SPEC = GroupSpec((Factor("t"), Factor("a", 2)))
T = SPEC.generator("t")
A = SPEC.generator("a")


def test_zero():
    zero = RingElement.zero(SPEC)
    assert zero.is_zero
    assert str(zero) == "0"
    assert zero + zero == zero
    assert -zero == zero


def test_monomial():
    assert str(monomial(T, 1)) == "t"
    assert str(monomial(T, -3)) == "-3*t"
    assert monomial(T, 0).is_zero
    with pytest.raises(ValidationError):
        monomial(SPEC.identity(), 1)


def test_addition_combines_terms():
    x = monomial(T, 2) + monomial(~T, 1) + monomial(T, -1)
    assert x.coefficient(T) == 1
    assert x.coefficient(~T) == 1
    assert x.coefficient(A) == 0
    assert (x - x).is_zero


def test_addition_spec_mismatch():
    other = GroupSpec((Factor("t"),))
    with pytest.raises(ValidationError):
        monomial(T, 1) + monomial(other.generator("t"), 1)


def test_term_storage_validation():
    with pytest.raises(ValidationError):
        RingElement(SPEC, ((T, 0),))
    with pytest.raises(ValidationError):
        RingElement(SPEC, ((SPEC.identity(), 1),))
    with pytest.raises(ValidationError):
        # unsorted support
        RingElement(SPEC, ((~T, 1), (T, 1)))
    with pytest.raises(ValidationError):
        RingElement(SPEC, ((T, 1), (T, 2)))


@pytest.mark.parametrize(
    "build, text",
    [
        (lambda: monomial(T, 1) + monomial(~T, 1), "t + t^-1"),
        (lambda: monomial(T, -2) + monomial(A, -1), "-2*t - a"),
        (lambda: monomial(T, 3), "3*t"),
        (lambda: monomial(T**2, 1) + monomial(T, -1), "-t + t^2"),
        (lambda: monomial(A, 2) + monomial(T, 1), "t + 2*a"),
    ],
)
def test_str_canonical(build, text):
    assert str(build()) == text


def test_dax_sum_generic():
    assert str(dax_sum(T, 1)) == "t + t^-1"
    assert str(dax_sum(T, -1)) == "-t - t^-1"
    assert str(dax_sum(T**3, 1)) == "t^3 + t^-3"


def test_dax_sum_two_torsion():
    # a = a^-1, so the pair degenerates to a doubled monomial
    assert str(dax_sum(A, 1)) == "2*a"
    assert str(dax_sum(A, -1)) == "-2*a"
    conj = T * A * ~T
    assert dax_sum(conj, 1) == monomial(conj, 2)


def test_dax_sum_errors():
    with pytest.raises(ValidationError):
        dax_sum(SPEC.identity(), 1)
    with pytest.raises(ValidationError):
        dax_sum(T, 2)


def test_dax_sum_rejects_bool_sign():
    # True == 1, but a bool sign is rejected as in forms.validate and dax_value
    with pytest.raises(ValidationError, match="sign must be \\+1 or -1, got True"):
        dax_sum(T, True)


def test_dax_sum_inverse_symmetry():
    assert dax_sum(~T, 1) == dax_sum(T, 1)
    assert dax_sum(~(T * A), -1) == dax_sum(T * A, -1)


def test_additive_group_fuzz():
    rng = random.Random(7)
    for _ in range(1000):
        spec = random_spec(rng)
        x = random_ring_element(rng, spec)
        y = random_ring_element(rng, spec)
        z = random_ring_element(rng, spec)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x + RingElement.zero(spec) == x
        assert (x - x).is_zero
        assert -(-x) == x
        for g in (x + y).support():
            assert (x + y).coefficient(g) == x.coefficient(g) + y.coefficient(g)


def test_dax_sum_inverse_symmetry_fuzz():
    rng = random.Random(8)
    for _ in range(300):
        spec = random_spec(rng)
        g = random_nontrivial(rng, spec)
        sign = rng.choice((1, -1))
        assert dax_sum(g, sign) == dax_sum(~g, sign)
