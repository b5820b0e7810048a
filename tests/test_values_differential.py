"""Differential tests: the hand-written value classes behave as the frozen
dataclasses they replace.

The dataclass twins below declare the eleven value classes as they were
declared before: the same names, fields, defaults and hash flags.  Every
value in a fixed-seed corpus is rebuilt from its twin, field by field, and
must print the same repr; every pair of values must be equal exactly when
their twins are, and equal values must hash alike.  The corpus is built
twice from one seed, so each value meets an equal one built separately, and
it holds equal words over different specs, ring values, discs, kernels,
manifolds, verdicts and session documents.  Setting or deleting any
attribute of any value raises AttributeError and leaves the value as it was,
and a positional class pattern binds the fields in the twin's order.
"""

import random
from dataclasses import dataclass, field, fields

import pytest

import daxcalc
from daxcalc.documents import SessionDocument as RealSessionDocument

from helpers import random_kernel, random_nontrivial, random_ring_element, random_spec, random_srdata


@dataclass(frozen=True)
class Factor:
    name: str
    order: int | None = None


@dataclass(frozen=True)
class GroupSpec:
    factors: tuple = ()


@dataclass(frozen=True)
class GroupElement:
    spec: GroupSpec = field(hash=False)
    syllables: tuple


@dataclass(frozen=True)
class RingElement:
    spec: GroupSpec
    terms: tuple


@dataclass(frozen=True)
class TrivialKernel:
    pass


@dataclass(frozen=True)
class InversePairsKernel:
    pass


@dataclass(frozen=True)
class ExplicitKernel:
    generators: tuple


@dataclass(frozen=True)
class SRData:
    double_tubes: tuple = ()
    sr_discs: tuple = ()


@dataclass(frozen=True)
class ManifoldModel:
    group: GroupSpec
    kernel: object
    label: str = ""


@dataclass(frozen=True)
class Verdict:
    outcome: str
    certificate: str
    rule: str


@dataclass(frozen=True)
class SessionDocument:
    manifold: ManifoldModel
    discs: dict
    queries: tuple


TWINS = {
    daxcalc.Factor: Factor,
    daxcalc.GroupSpec: GroupSpec,
    daxcalc.GroupElement: GroupElement,
    daxcalc.RingElement: RingElement,
    daxcalc.TrivialKernel: TrivialKernel,
    daxcalc.InversePairsKernel: InversePairsKernel,
    daxcalc.ExplicitKernel: ExplicitKernel,
    daxcalc.SRData: SRData,
    daxcalc.ManifoldModel: ManifoldModel,
    daxcalc.Verdict: Verdict,
    RealSessionDocument: SessionDocument,
}


def twin(value):
    """value rebuilt from the twins, each field twinned in turn; tuples and dicts are rebuilt around their entries."""
    cls = TWINS.get(type(value))
    if cls is not None:
        return cls(**{f.name: twin(getattr(value, f.name)) for f in fields(cls)})
    if isinstance(value, tuple):
        return tuple(map(twin, value))
    if isinstance(value, dict):
        return {key: twin(entry) for key, entry in value.items()}
    return value


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError:  # a session document holds a dict
        return TypeError


def corpus(seed: int) -> list:
    rng = random.Random(seed)
    free = daxcalc.GroupSpec((daxcalc.Factor("t"),))
    mixed = daxcalc.GroupSpec((daxcalc.Factor("t"), daxcalc.Factor("a", 2)))
    # the same syllables over different specs, and the identity of each spec
    values = [daxcalc.GroupSpec(), free, mixed, free.generator("t"), mixed.generator("t"), free.identity(), mixed.identity()]
    values += [daxcalc.TrivialKernel(), daxcalc.InversePairsKernel(), daxcalc.Verdict("ISOTOPIC", "", "pi1-trivial")]
    for _ in range(8):
        spec = random_spec(rng)
        g = random_nontrivial(rng, spec)
        kernel = random_kernel(rng, spec)
        d1, d2 = random_srdata(rng, spec), random_srdata(rng, spec)
        manifold = daxcalc.ManifoldModel(spec, kernel, rng.choice(("", "label")))
        x = random_ring_element(rng, spec)
        values += [spec, *spec.factors, g, ~g, x, daxcalc.monomial(g, 2), daxcalc.dax_sum(g, -1), kernel, d1, d2]
        values += [daxcalc.ExplicitKernel((daxcalc.monomial(g, 2),)), manifold, daxcalc.compare(d1, d2, manifold)]
        values.append(daxcalc.normalize(d1, manifold))
        values.append(RealSessionDocument(manifold, {"d1": d1, "d2": d2}, (("compare", ("d1", "d2")), ("reduce", x))))
    return values


VALUES = corpus(31) + corpus(31)  # each value also meets an equal one built separately


def test_the_corpus_covers_every_class_and_equal_values_built_apart():
    assert {type(v) for v in VALUES} == TWINS.keys()
    half = len(VALUES) // 2
    assert all(a == b and a is not b for a, b in zip(VALUES[:half], VALUES[half:]))


def test_repr_is_the_twins():
    for value in VALUES:
        assert repr(value) == repr(twin(value))


def test_values_are_equal_exactly_when_their_twins_are_and_equal_values_hash_alike():
    twins = [twin(v) for v in VALUES]
    hashes = [hash_or_error(v) for v in VALUES]
    assert [h is TypeError for h in hashes] == [hash_or_error(t) is TypeError for t in twins]
    equal_pairs = 0
    for a, ta, ha in zip(VALUES, twins, hashes):
        for b, tb, hb in zip(VALUES, twins, hashes):
            assert (a == b) is (ta == tb), (a, b)
            assert (a != b) is (ta != tb), (a, b)
            if a == b:
                assert ha == hb, (a, b)
                equal_pairs += a is not b
    assert equal_pairs > len(VALUES)


def test_vars_of_a_verdict_keeps_the_field_order():
    verdicts = [v for v in VALUES if type(v) is daxcalc.Verdict]
    assert len(verdicts) > 3
    for v in verdicts:
        assert list(vars(v)) == ["outcome", "certificate", "rule"]
        assert list(vars(v).items()) == list(vars(twin(v)).items())


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda cls: cls.__name__)
def test_no_field_can_be_set_or_deleted(cls):
    value = next(v for v in VALUES if type(v) is cls)
    before = repr(value)
    for name in [f.name for f in fields(TWINS[cls])] + ["extra"]:
        with pytest.raises(AttributeError, match=f"^cannot assign to field {name!r}$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field {name!r}$"):
            delattr(value, name)
    assert repr(value) == before



def bind_positionally(value):
    """What a class pattern with one capture per match arg binds, in order."""
    cls = type(value)
    match len(cls.__match_args__), value:
        case 0, cls():
            return ()
        case 1, cls(a):
            return (a,)
        case 2, cls(a, b):
            return (a, b)
        case 3, cls(a, b, c):
            return (a, b, c)


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda cls: cls.__name__)
def test_a_positional_pattern_binds_the_fields_as_the_twins_do(cls):
    assert cls.__match_args__ == TWINS[cls].__match_args__
    for value in [v for v in VALUES if type(v) is cls]:
        assert bind_positionally(value) == tuple(getattr(value, f.name) for f in fields(TWINS[cls]))
