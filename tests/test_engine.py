import random

import pytest

from daxcalc import (
    ISOTOPIC,
    NOT_ISOTOPIC,
    UNKNOWN,
    ExplicitKernel,
    Factor,
    GroupSpec,
    InversePairsKernel,
    ManifoldModel,
    SRData,
    TrivialKernel,
    ValidationError,
    compare,
    concat,
    dax_sum,
    equal_mod_kernel,
    instantiate,
    normalize,
    parse_ringexpr,
    phi,
)

from helpers import random_kernel, random_spec, random_srdata

BCS = instantiate("boundary_connect_sum")
T = BCS.group.generator("t")
MIXED = ManifoldModel(GroupSpec((Factor("t"), Factor("a", 2))), TrivialKernel())


def test_phi_single_disc():
    data = SRData((), ((1, T),))
    assert phi(data, BCS) == parse_ringexpr("t + t^-1", BCS.group)
    assert phi(SRData((), ((-1, T),)), BCS) == parse_ringexpr("-t - t^-1", BCS.group)
    assert phi(SRData(), BCS).is_zero


def test_phi_tubes_and_discs():
    a = MIXED.group.generator("a")
    t = MIXED.group.generator("t")
    data = SRData((a, a), ((1, t),))
    assert phi(data, MIXED) == parse_ringexpr("t + t^-1 + 2*a", MIXED.group)


def test_phi_reduces_mod_kernel():
    cs = instantiate("connect_sum")
    t = cs.group.generator("t")
    data = SRData((), ((1, t**-3),))
    # t^-3 + t^3 folds onto the canonical side
    assert phi(data, cs) == parse_ringexpr("2*t^3", cs.group)


def test_phi_rejects_invalid_data():
    with pytest.raises(ValidationError):
        phi(SRData((T,), ()), BCS)


def test_compare_not_isotopic_with_certificate():
    verdict = compare(SRData((), ((1, T),)), SRData(), BCS)
    assert verdict.outcome == NOT_ISOTOPIC
    assert verdict.certificate == "t + t^-1"
    assert verdict.rule == "phi-difference"


def test_compare_equal_normal_form():
    d1 = SRData((), ((1, T), (1, T**2)))
    d2 = SRData((), ((1, T**2), (1, T)))
    verdict = compare(d1, d2, BCS)
    assert verdict.outcome == ISOTOPIC
    assert verdict.rule == "equal-normal-form"


def test_compare_unknown_on_inverse_pair():
    d1 = SRData((), ((1, T),))
    d2 = SRData((), ((1, ~T),))
    verdict = compare(d1, d2, BCS)
    assert verdict.outcome == UNKNOWN
    assert verdict.rule == "phi-coincide"
    assert verdict.certificate == "t + t^-1"


def test_compare_trivial_group():
    sc = instantiate("simply_connected")
    verdict = compare(SRData(), SRData(), sc)
    assert verdict.outcome == ISOTOPIC
    assert verdict.rule == "pi1-trivial"


def test_compare_kernel_can_merge_discs():
    manifold = ManifoldModel(BCS.group, InversePairsKernel())
    d1 = SRData((), ((1, T),))
    d2 = SRData((), ((1, ~T),))
    # phi values agree mod the kernel but the data are distinct: UNKNOWN
    verdict = compare(d1, d2, manifold)
    assert verdict.outcome == UNKNOWN


def test_compare_validates_both_sides():
    with pytest.raises(ValidationError):
        compare(SRData(), SRData((T,), ()), BCS)


def test_certificate_is_reduced_difference_fuzz():
    rng = random.Random(41)
    unknown = 0
    for _ in range(200):
        spec = random_spec(rng)
        manifold = ManifoldModel(spec, random_kernel(rng, spec))
        d1 = random_srdata(rng, spec)
        d2 = random_srdata(rng, spec)
        verdict = compare(d1, d2, manifold)
        difference = manifold.kernel.reduce(phi(d1, manifold) - phi(d2, manifold))
        if verdict.outcome == NOT_ISOTOPIC:
            assert not difference.is_zero
            assert verdict.certificate == str(difference)
        else:
            assert difference.is_zero
        if verdict.outcome == UNKNOWN:
            assert verdict.certificate == str(phi(d1, manifold))
            unknown += 1
    assert unknown


def test_compare_reduces_once_and_again_only_for_unknown(monkeypatch):
    # counted calls, not time: equal normal forms stop before phi, the
    # unreduced phi difference is reduced once, and UNKNOWN reduces phi(d1)
    # a second time for its certificate
    spec = GroupSpec((Factor("t"),))
    t = spec.generator("t")
    manifold = ManifoldModel(spec, ExplicitKernel((dax_sum(t, 1),)))
    reduce = ExplicitKernel.reduce
    calls = []

    def counting_reduce(self, x):
        calls.append(x)
        return reduce(self, x)

    monkeypatch.setattr(ExplicitKernel, "reduce", counting_reduce)
    d1 = SRData((), ((1, t**2),))
    for d2, rule, reduces in (
        (SRData((), ((1, t**2),)), "equal-normal-form", 0),
        (SRData((), ((1, t**3),)), "phi-difference", 1),
        (SRData((), ((1, t**2), (-1, t))), "phi-coincide", 2),
    ):
        calls.clear()
        assert compare(d1, d2, manifold).rule == rule
        assert len(calls) == reduces, rule


def test_phi_homomorphism_short_fuzz():
    rng = random.Random(40)
    for _ in range(100):
        spec = random_spec(rng)
        manifold = ManifoldModel(spec, random_kernel(rng, spec))
        d1 = random_srdata(rng, spec)
        d2 = random_srdata(rng, spec)
        total = phi(concat(d1, d2), manifold)
        assert equal_mod_kernel(total, phi(d1, manifold) + phi(d2, manifold), manifold.kernel)


def test_isotopic_data_compare_isotopic_fuzz():
    rng = random.Random(44)
    for _ in range(100):
        spec = random_spec(rng)
        manifold = ManifoldModel(spec, random_kernel(rng, spec))
        data = random_srdata(rng, spec)
        # a presentation and its normal form present the same disc
        verdict = compare(data, normalize(data, manifold), manifold)
        assert verdict.outcome == ISOTOPIC


def test_compare_reflexive_and_symmetric_fuzz():
    rng = random.Random(46)
    for _ in range(200):
        spec = random_spec(rng)
        manifold = ManifoldModel(spec, random_kernel(rng, spec))
        d1 = random_srdata(rng, spec)
        d2 = random_srdata(rng, spec)
        assert compare(d1, d1, manifold).outcome == ISOTOPIC
        assert compare(d1, d2, manifold).outcome == compare(d2, d1, manifold).outcome


def test_powers_of_t_have_distinct_invariants():
    values = [phi(SRData((), ((1, T**i),)), BCS) for i in range(1, 21)]
    seen = set()
    for value in values:
        assert value not in seen
        seen.add(value)
