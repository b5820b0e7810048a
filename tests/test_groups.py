import copy
import pickle
import random

import pytest

from daxcalc import (
    Factor,
    GroupElement,
    GroupSpec,
    ValidationError,
    canonical_key,
    compare_canonical,
)

import oracle
from helpers import plain_spec, random_element, random_spec, random_two_torsion

FREE = GroupSpec((Factor("t"),))
MIXED = GroupSpec((Factor("t"), Factor("a", 2), Factor("b", 3)))


def test_factor_validation():
    with pytest.raises(ValidationError):
        Factor("2bad")
    with pytest.raises(ValidationError):
        Factor("")
    with pytest.raises(ValidationError):
        Factor("a", 1)
    with pytest.raises(ValidationError):
        GroupSpec((Factor("t"), Factor("t")))


def test_trivial_group():
    trivial = GroupSpec()
    assert trivial.is_trivial
    assert trivial.identity().is_identity
    assert str(trivial.identity()) == "1"


@pytest.mark.parametrize(
    "syllables, expected",
    [
        ([], "1"),
        ([("t", 3)], "t^3"),
        ([("t", 1), ("t", -1)], "1"),
        ([("t", 2), ("t", 3)], "t^5"),
        ([("t", 2), ("a", 1), ("a", 1)], "t^2"),
        ([("a", 1), ("b", 1), ("b", 2), ("a", 1), ("t", 1)], "t"),
        ([("a", -1)], "a"),
        ([("b", -1)], "b^2"),
        ([("b", 7)], "b"),
        ([("t", 1), ("a", 1), ("t", -1)], "t*a*t^-1"),
    ],
)
def test_element_reduction(syllables, expected):
    assert str(MIXED.element(syllables)) == expected


def test_cascading_merge():
    # a b b^2 a collapses step by step down to the empty word
    g = MIXED.element([("a", 1), ("b", 1), ("b", 2), ("a", 1)])
    assert g.is_identity


@pytest.mark.parametrize("index", [5, len(MIXED.factors), -1])
def test_reduced_form_enforced(index):
    with pytest.raises(ValidationError):
        # adjacent syllables in the same factor
        GroupElement(FREE, ((0, 1), (0, 1)))
    with pytest.raises(ValidationError):
        GroupElement(FREE, ((0, 0),))
    with pytest.raises(ValidationError):
        # exponent out of range for the order-2 factor
        GroupElement(MIXED, ((1, 5),))
    with pytest.raises(ValidationError, match=rf"^factor index {index} out of range$"):
        GroupElement(MIXED, ((index, 1),))


def test_multiplication_and_inverse():
    t = FREE.generator("t")
    assert str(t * t) == "t^2"
    assert (t * ~t).is_identity
    assert str(~(t * t * t)) == "t^-3"
    g = MIXED.element([("t", 1), ("a", 1)])
    assert str(~g) == "a*t^-1"
    assert (g * ~g).is_identity


def test_invert_matches_the_reducing_reference():
    rng = random.Random(46)
    orders, identities, two_torsion = set(), 0, 0
    for _ in range(3000):
        spec = random_spec(rng)
        orders.update(f.order for f in spec.factors)
        g = random_two_torsion(rng, spec) if rng.random() < 0.2 else None
        g = g or random_element(rng, spec, max_syllables=6)
        identities += g.is_identity
        two_torsion += g.is_two_torsion()
        inverse = ~g
        assert inverse.syllables == oracle.inverse(plain_spec(spec), g.syllables)
        assert inverse.spec is spec
        assert (g * inverse).is_identity
    assert orders == {None, 2, 3, 4}
    assert identities and two_torsion


def test_invert_does_not_re_reduce(monkeypatch):
    g = MIXED.element([("t", 2), ("b", 1), ("a", 1), ("t", -1)])

    def element(self, syllables):
        raise AssertionError("GroupSpec.element called")

    monkeypatch.setattr(GroupSpec, "element", element)
    assert (~g).syllables == oracle.inverse(plain_spec(MIXED), g.syllables)


def test_equal_words_over_equal_specs_are_equal_and_hash_equal():
    twin = GroupSpec((Factor("t"), Factor("a", 2), Factor("b", 3)))
    assert twin is not MIXED and twin == MIXED
    g = MIXED.element([("t", 1), ("a", 1)])
    h = twin.element([("t", 1), ("a", 1)])
    assert g == h
    assert hash(g) == hash(h)


def test_equal_syllables_over_different_specs_are_distinct_keys():
    f, m = FREE.generator("t"), MIXED.generator("t")
    assert f.syllables == m.syllables
    assert f != m
    keys = {f: 1, m: 2}
    assert len(keys) == 2 and keys[f] == 1 and keys[m] == 2


def test_hash_does_not_hash_the_spec(monkeypatch):
    g = MIXED.element([("t", 1), ("a", 1)])
    same = MIXED.element([("t", 1), ("a", 1)])

    def spec_hash(self):
        raise AssertionError("GroupSpec.__hash__ called")

    monkeypatch.setattr(GroupSpec, "__hash__", spec_hash)
    assert hash(g) == hash(same)
    assert {g: 1}[same] == 1
    assert len({FREE.generator("t"): 1, MIXED.generator("t"): 2}) == 2


def test_mixed_spec_multiplication_rejected():
    with pytest.raises(ValidationError, match=r"^cannot multiply elements over different group specs$"):
        FREE.generator("t") * MIXED.generator("t")
    with pytest.raises(ValidationError):
        compare_canonical(FREE.generator("t"), MIXED.generator("t"))


def test_pow():
    t = FREE.generator("t")
    assert str(t**4) == "t^4"
    assert str(t**-4) == "t^-4"
    assert (t**0).is_identity
    g = MIXED.element([("t", 1), ("a", 1)])
    assert g**-2 == ~g * ~g


def test_two_torsion():
    a = MIXED.generator("a")
    b = MIXED.generator("b")
    t = MIXED.generator("t")
    assert a.is_two_torsion()
    assert not b.is_two_torsion()
    assert not t.is_two_torsion()
    assert not MIXED.identity().is_two_torsion()
    conj = t * a * ~t
    assert conj.is_two_torsion()
    order4 = GroupSpec((Factor("c", 4),))
    c = order4.generator("c")
    assert not c.is_two_torsion()
    assert (c * c).is_two_torsion()


def test_canonical_order():
    t = FREE.generator("t")
    words = [t**2, ~t, t, FREE.identity(), t**-2]
    words.sort(key=canonical_key)
    assert [str(g) for g in words] == ["1", "t", "t^-1", "t^2", "t^-2"]
    assert compare_canonical(t, ~t) == -1
    assert compare_canonical(~t, t) == 1
    assert compare_canonical(t, t) == 0
    # syllable count dominates factor index
    short = MIXED.generator("b")
    long = MIXED.element([("t", 1), ("a", 1)])
    assert compare_canonical(short, long) == -1


def test_group_axioms_fuzz():
    rng = random.Random(42)
    for _ in range(1000):
        spec = random_spec(rng)
        x = random_element(rng, spec)
        y = random_element(rng, spec)
        z = random_element(rng, spec)
        assert (x * y) * z == x * (y * z)
        assert (x * ~x).is_identity
        assert ~(x * y) == ~y * ~x
        assert x * spec.identity() == x


def test_canonical_order_is_total_fuzz():
    rng = random.Random(45)
    for _ in range(500):
        spec = random_spec(rng)
        x = random_element(rng, spec)
        y = random_element(rng, spec)
        z = random_element(rng, spec)
        assert compare_canonical(x, y) == -compare_canonical(y, x)
        assert (compare_canonical(x, y) == 0) == (x == y)
        if compare_canonical(x, y) <= 0 and compare_canonical(y, z) <= 0:
            assert compare_canonical(x, z) <= 0


def test_str_parse_stability_fuzz():
    # str round-trips through element construction from parsed syllables
    rng = random.Random(43)
    for _ in range(200):
        spec = random_spec(rng)
        g = random_element(rng, spec, max_syllables=8)
        rebuilt = spec.element(g.syllables)
        assert rebuilt == g
        assert str(rebuilt) == str(g)


@pytest.mark.parametrize("order", [2.0, True, "2"])
def test_factor_rejects_a_non_integer_order(order):
    with pytest.raises(ValidationError, match="must have an integer order"):
        Factor("a", order)


@pytest.mark.parametrize("exp", [1.0, 1.5, True])
def test_element_constructor_rejects_a_non_integer_exponent(exp):
    with pytest.raises(ValidationError, match="is not a reduced integer"):
        GroupElement(FREE, ((0, exp),))


@pytest.mark.parametrize("syllables", [[(0, 1), (0, True)], [(0, 1.5), (0, -1.5)], [(0, 2.0)], [(0, 1.5), ("zz", 1)]])
def test_element_rejects_a_non_integer_exponent_before_merging(syllables):
    with pytest.raises(ValidationError, match="is not a reduced integer for factor index 0"):
        MIXED.element(syllables)


def test_a_bool_factor_index_is_rejected():
    with pytest.raises(ValidationError, match="factor index True is not an integer"):
        GroupElement(MIXED, ((True, 1),))
    with pytest.raises(ValidationError, match="unknown factor name True"):
        MIXED.element([(True, 1)])


def test_multiplying_by_a_non_element_is_a_type_error():
    t = FREE.generator("t")
    with pytest.raises(TypeError):
        t * 3


def test_less_than_agrees_with_the_canonical_order():
    rng = random.Random(46)
    for _ in range(200):
        spec = random_spec(rng)
        words = [random_element(rng, spec) for _ in range(6)]
        ordered = sorted(words)
        assert ordered == sorted(words, key=canonical_key)
        assert all(compare_canonical(a, b) <= 0 for a, b in zip(ordered, ordered[1:]))
        assert all((a < b) == (compare_canonical(a, b) == -1) for a in words for b in words)


def test_a_factor_that_is_not_a_factor_is_rejected():
    with pytest.raises(ValidationError, match=r"factors\[0\]: 't' is not a Factor"):
        GroupSpec(("t",))


@pytest.mark.parametrize("syllables", [(5,), ((0,),)])
def test_element_constructor_rejects_a_syllable_that_is_not_a_pair(syllables):
    with pytest.raises(ValidationError, match=r"syllables must be \(factor index, exponent\) pairs"):
        GroupElement(FREE, syllables)


@pytest.mark.parametrize("syllable", [5, (0, 1, 2)])
def test_element_rejects_a_syllable_that_is_not_a_pair(syllable):
    with pytest.raises(ValidationError, match=r"is not a \(factor, exponent\) pair"):
        MIXED.element([syllable])


@pytest.mark.parametrize("n", [True, 1.5])
def test_power_by_a_non_int_is_a_type_error(n):
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \*\* or pow\(\)"):
        FREE.generator("t") ** n


@pytest.mark.parametrize("index", [-1, 3])
def test_element_rejects_an_index_out_of_range(index):
    # the merge reads the order table unchecked, so -1 would silently read the last factor's order
    with pytest.raises(ValidationError, match=rf"^factor index {index} out of range$"):
        MIXED.element([(index, 1)])


def test_element_checks_a_syllable_after_earlier_ones_cancel():
    with pytest.raises(ValidationError, match=r"^unknown factor name 'zz'$"):
        MIXED.element([("t", 1), ("t", -1), ("zz", 1)])


@pytest.mark.parametrize("build", [lambda: MIXED.index_of(["t"]), lambda: MIXED.element([(["t"], 1)])])
def test_an_unhashable_factor_name_is_unknown(build):
    with pytest.raises(ValidationError, match=r"unknown factor name \['t'\]"):
        build()


def test_a_factor_name_past_the_length_limit_is_named_first():
    assert Factor("x" * 64).name == "x" * 64
    for name in ("x" * 65, "2" * 65):  # the second fails the pattern too, but its length is named first
        with pytest.raises(ValidationError, match=r"^a factor name may have at most 64 characters, got 65$"):
            Factor(name)


def test_duplicate_factor_names_are_rejected():
    with pytest.raises(ValidationError, match="factor names must be pairwise distinct"):
        GroupSpec((Factor("t"), Factor("a", 2), Factor("t", 3)))


def test_separately_built_equal_specs_agree():
    other = GroupSpec((Factor("t"), Factor("a", 2), Factor("b", 3)))
    assert other == MIXED
    assert hash(other) == hash(MIXED)
    assert repr(other) == repr(MIXED)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda spec: pickle.loads(pickle.dumps(spec))])
def test_copied_specs_still_resolve_names(clone):
    spec = clone(MIXED)
    assert spec == MIXED
    assert [spec.index_of(name) for name in ("t", "a", "b")] == [0, 1, 2]
    with pytest.raises(ValidationError, match="unknown factor name 'c'"):
        spec.index_of("c")


def test_element_rejects_a_bad_syllable_before_the_walk_goes_on():
    def bad_then_raising():
        yield ("zz", 1)
        raise TypeError("from inside the walk")

    with pytest.raises(ValidationError, match=r"^unknown factor name 'zz'$"):
        FREE.element(bad_then_raising())


@pytest.mark.parametrize("syllables", [((0, 1),), ()])
def test_element_rejects_a_spec_that_is_not_a_group_spec(syllables):
    with pytest.raises(ValidationError, match="element spec must be a GroupSpec, got int"):
        GroupElement(5, syllables)
