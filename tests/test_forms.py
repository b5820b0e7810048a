import random

import pytest

from daxcalc import (
    PRESET_IDS,
    Factor,
    GroupSpec,
    ManifoldModel,
    SRData,
    TrivialKernel,
    ValidationError,
    concat,
    instantiate,
    monomial,
    negate_data,
    normalize,
    phi,
    validate,
)

from helpers import random_kernel, random_spec, random_srdata

SPEC = GroupSpec((Factor("t"), Factor("a", 2)))
M = ManifoldModel(SPEC, TrivialKernel(), "test manifold")
T = SPEC.generator("t")
A = SPEC.generator("a")


def test_manifold_rejects_foreign_kernel_generators():
    from daxcalc import ExplicitKernel

    other = GroupSpec((Factor("t"),))
    kernel = ExplicitKernel((monomial(other.generator("t"), 1),))
    with pytest.raises(ValidationError):
        ManifoldModel(SPEC, kernel)


def test_validate_reports_each_problem():
    data = SRData((T, A, SPEC.identity()), ((2, T), (1, SPEC.identity())))
    problems = validate(data, M)
    assert any("double_tubes[0]" in p and "2-torsion" in p for p in problems)
    assert any("double_tubes[2]" in p and "trivial" in p for p in problems)
    assert any("sr_discs[0]" in p and "sign" in p for p in problems)
    assert any("sr_discs[1]" in p and "trivial" in p for p in problems)
    assert len(problems) == 4


def test_validate_rejects_boolean_sign():
    problems = validate(SRData((), ((True, T),)), M)
    assert problems == ["sr_discs[0]: sign must be +1 or -1, got True"]


def test_validate_rejects_float_sign():
    data = SRData((), ((1.0, T), (1.0, T)))
    assert validate(data, M) == [
        "sr_discs[0]: sign must be +1 or -1, got 1.0",
        "sr_discs[1]: sign must be +1 or -1, got 1.0",
    ]
    for evaluate in (phi, normalize):
        with pytest.raises(ValidationError) as excinfo:
            evaluate(data, M)
        assert str(excinfo.value) == (
            "invalid disc data: sr_discs[0]: sign must be +1 or -1, got 1.0; sr_discs[1]: sign must be +1 or -1, got 1.0"
        )


def test_validate_rejects_a_tube_that_is_not_an_element():
    problems = validate(SRData(("t",), ()), M)
    assert problems == ["double_tubes[0]: element is not over the manifold group"]


def test_validate_foreign_elements():
    other = GroupSpec((Factor("t"),))
    data = SRData((), ((1, other.generator("t")),))
    problems = validate(data, M)
    assert problems and "manifold group" in problems[0]


def test_validate_clean():
    data = SRData((A,), ((1, T), (-1, T**2)))
    assert validate(data, M) == []


def test_validate_compares_specs_by_value_not_identity():
    twin = GroupSpec((Factor("t"), Factor("a", 2)))  # equal to SPEC, a different object
    assert twin == SPEC and twin is not SPEC
    data = SRData((twin.generator("a"),), ((1, twin.generator("t")),))
    assert validate(data, M) == []
    other = GroupSpec((Factor("t"), Factor("a", 4)))
    data = SRData((other.generator("a") ** 2,), ((1, other.generator("t")),))
    assert validate(data, M) == [
        "double_tubes[0]: element is not over the manifold group",
        "sr_discs[0]: element is not over the manifold group",
    ]


def test_normalize_merges_tube_pairs():
    assert normalize(SRData((A, A), ()), M) == SRData((), ((1, A),))
    assert normalize(SRData((A, A, A), ()), M) == SRData((A,), ((1, A),))
    conj = T * A * ~T
    assert normalize(SRData((conj, A, conj), ()), M) == SRData((A,), ((1, conj),))


def test_normalize_cancels_opposite_discs():
    data = SRData((), ((1, T), (-1, T)))
    assert normalize(data, M).is_empty
    data = SRData((), ((1, T), (-1, T), (1, T)))
    assert normalize(data, M) == SRData((), ((1, T),))


def test_normalize_sorts_canonically():
    data = SRData((), ((-1, A), (1, T), (1, T)))
    assert normalize(data, M) == SRData((), ((1, T), (1, T), (-1, A)))


def test_normalize_tube_merge_feeds_cancellation():
    # two a-tubes merge into (+1, a), which then cancels the listed (-1, a)
    data = SRData((A, A), ((-1, A),))
    assert normalize(data, M).is_empty


def test_normalize_rejects_invalid():
    with pytest.raises(ValidationError):
        normalize(SRData((T,), ()), M)


def test_concat():
    d1 = SRData((A,), ((1, T),))
    d2 = SRData((), ((-1, T),))
    assert concat(d1, d2) == SRData((A,), ((1, T), (-1, T)))
    other = GroupSpec((Factor("t"),))
    with pytest.raises(ValidationError):
        concat(d1, SRData((), ((1, other.generator("t")),)))


def test_negate_data_inverts_phi():
    data = SRData((A,), ((1, T), (-1, T * A)))
    negated = negate_data(data)
    assert phi(negated, M) == -phi(data, M)
    assert phi(concat(data, negated), M).is_zero


@pytest.mark.parametrize("sign", ["x", None, True, 2, 1.0])
def test_negate_data_rejects_a_bad_sign(sign):
    data = SRData((), ((1, T), (sign, T)))
    with pytest.raises(ValidationError) as info:
        negate_data(data)
    assert str(info.value) == f"sr_discs[1]: sign must be +1 or -1, got {sign}"
    assert str(info.value) == validate(data, M)[0]


def test_normalize_idempotent_fuzz():
    rng = random.Random(21)
    for _ in range(500):
        spec = random_spec(rng)
        manifold = ManifoldModel(spec, random_kernel(rng, spec))
        data = random_srdata(rng, spec)
        once = normalize(data, manifold)
        assert normalize(once, manifold) == once
        # normalization preserves the invariant exactly
        assert phi(once, manifold) == phi(data, manifold)


def test_concat_commutes_up_to_normalization_fuzz():
    rng = random.Random(24)
    for _ in range(300):
        spec = random_spec(rng)
        manifold = ManifoldModel(spec, TrivialKernel())
        d1 = random_srdata(rng, spec)
        d2 = random_srdata(rng, spec)
        assert normalize(concat(d1, d2), manifold) == normalize(concat(d2, d1), manifold)


def test_normalized_data_has_no_cancelling_pair_fuzz():
    rng = random.Random(22)
    for _ in range(200):
        spec = random_spec(rng)
        manifold = ManifoldModel(spec, TrivialKernel())
        data = normalize(random_srdata(rng, spec), manifold)
        tubes = list(data.double_tubes)
        assert len(set(tubes)) == len(tubes)
        seen = {}
        for sign, g in data.sr_discs:
            assert seen.get(g, sign) == sign
            seen[g] = sign


def test_negate_fuzz():
    rng = random.Random(23)
    for _ in range(200):
        spec = random_spec(rng)
        manifold = ManifoldModel(spec, TrivialKernel())
        data = random_srdata(rng, spec)
        assert phi(negate_data(data), manifold) == -phi(data, manifold)
        assert normalize(concat(data, negate_data(data)), manifold).is_empty


def test_preset_manifold_round_trip_with_normalize():
    manifold = instantiate("boundary_connect_sum")
    t = manifold.group.generator("t")
    data = SRData((), ((1, t), (1, ~t)))
    assert normalize(data, manifold) == SRData((), ((1, t), (1, ~t)))


def test_instantiate_is_stable():
    for preset_id in PRESET_IDS:
        assert instantiate(preset_id) is instantiate(preset_id)


def test_concat_rejects_an_entry_that_is_not_an_element():
    with pytest.raises(ValidationError, match="not group elements"):
        concat(SRData(("t",), ()), SRData())
    with pytest.raises(ValidationError, match="not group elements"):
        concat(SRData(), SRData((), ((1, "t"),)))


@pytest.mark.parametrize("discs", [(5,), ((1,),), ((1, T, T),), ("ab",)])
def test_srdata_rejects_a_disc_that_is_not_a_pair(discs):
    with pytest.raises(ValidationError, match=r"sr_discs\[0\]: disc must be a \(sign, element\) pair"):
        SRData((), discs)


def test_manifold_rejects_a_group_that_is_not_a_group_spec():
    with pytest.raises(ValidationError, match="manifold group must be a GroupSpec, got int"):
        ManifoldModel(5, TrivialKernel())


def test_manifold_rejects_a_kernel_that_is_not_a_kernel_spec():
    with pytest.raises(ValidationError, match="manifold kernel must be a kernel spec, got int"):
        ManifoldModel(SPEC, 5)
    with pytest.raises(ValidationError, match="manifold kernel must be a kernel spec, got GroupSpec"):
        ManifoldModel(SPEC, SPEC)


@pytest.mark.parametrize("label, kind", [(5, "int"), (None, "NoneType"), (b"x", "bytes")])
def test_manifold_rejects_a_label_that_is_not_a_string(label, kind):
    with pytest.raises(ValidationError) as excinfo:
        ManifoldModel(SPEC, TrivialKernel(), label)
    assert str(excinfo.value) == f"manifold label must be a string, got {kind}"
