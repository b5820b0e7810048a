"""Every public entry point rejects a wrong-typed argument with one DaxError line.

Each case starts from a valid call and puts object() in one argument slot.
The cases cover every function in test_api's PINNED_FUNCTIONS and every
public constructor and method that takes an argument, except the named
exemptions; test_every_public_callable_is_swept_or_exempt keeps that list
complete when the API grows.  dax_value and spin_composition_value start from
no points, so their spec slot reaches the ring constructor's own spec check:
the pairing sums keep the checked door.

ITERABLE_ARGUMENTS is the one table of the container arguments that
errors._require_iter guards: the full message for one that is not iterable,
and the caller's own TypeError, raised while the guard's iterator is walked,
passing through unchanged.

ENTRY_ERRORS is the one table of errors about a single entry of a container
argument: each carries the entry as its .path ("sr_discs[1]") and a message
without it, and prints as "path: message".
"""

import inspect

import pytest

import daxcalc
from daxcalc import (
    DaxError,
    ExplicitKernel,
    Factor,
    GroupElement,
    GroupSpec,
    InversePairsKernel,
    ManifoldModel,
    RingElement,
    SRData,
    TrivialKernel,
    ValidationError,
    dax_value,
    hermite_normal_form,
    monomial,
    negate_data,
    spin_composition_value,
)

from test_api import PINNED_CLASSES, PINNED_FUNCTIONS

SPEC = GroupSpec((Factor("t"), Factor("a", 2)))
T = SPEC.generator("t")
A = SPEC.generator("a")
X = monomial(T, 1)
KERNEL = ExplicitKernel((monomial(T, 2),))
MANIFOLD = ManifoldModel(SPEC, InversePairsKernel(), "label")
D1 = SRData((A,), ((1, T),))
D2 = SRData((), ((-1, T),))

# qualified name -> (callable, a valid argument tuple)
VALID_CALLS = {
    "canonical_key": (daxcalc.canonical_key, (T,)),
    "compare": (daxcalc.compare, (D1, D2, MANIFOLD)),
    "compare_canonical": (daxcalc.compare_canonical, (T, A)),
    "concat": (daxcalc.concat, (D1, D2)),
    "dax_sum": (daxcalc.dax_sum, (T, 1)),
    "dax_value": (daxcalc.dax_value, ([], SPEC)),
    "equal_mod_kernel": (daxcalc.equal_mod_kernel, (X, X, KERNEL)),
    "hermite_normal_form": (daxcalc.hermite_normal_form, ([[2, 1]],)),
    "instantiate": (daxcalc.instantiate, ("connect_sum",)),
    "monomial": (daxcalc.monomial, (T, 1)),
    "negate_data": (daxcalc.negate_data, (D1,)),
    "normalize": (daxcalc.normalize, (D1, MANIFOLD)),
    "parse_ringexpr": (daxcalc.parse_ringexpr, ("2*t - a", SPEC)),
    "parse_word": (daxcalc.parse_word, ("t*a", SPEC)),
    "phi": (daxcalc.phi, (D1, MANIFOLD)),
    "spin_composition_value": (daxcalc.spin_composition_value, ([], SPEC)),
    "validate": (daxcalc.validate, (D1, MANIFOLD)),
    "ExplicitKernel": (ExplicitKernel, ((monomial(T, 2),),)),
    "ExplicitKernel.reduce": (KERNEL.reduce, (X,)),
    "Factor": (Factor, ("b", 3)),
    "GroupElement": (GroupElement, (SPEC, ((0, 1),))),
    "GroupSpec": (GroupSpec, ((Factor("t"),),)),
    "GroupSpec.element": (SPEC.element, ([(0, 1)],)),
    "GroupSpec.generator": (SPEC.generator, ("t",)),
    "GroupSpec.index_of": (SPEC.index_of, ("t",)),
    "InversePairsKernel.reduce": (InversePairsKernel().reduce, (X,)),
    "ManifoldModel": (ManifoldModel, (SPEC, TrivialKernel(), "label")),
    "RingElement": (RingElement, (SPEC, ((T, 1),))),
    "RingElement.from_mapping": (RingElement.from_mapping, (SPEC, {T: 1})),
    "RingElement.zero": (RingElement.zero, (SPEC,)),
    "SRData": (SRData, ((A,), ((1, T),))),
    "TrivialKernel.reduce": (TrivialKernel().reduce, (X,)),
}

# public callables that may end in another error, and why
OPERATOR = "an operator returns NotImplemented, and Python's protocol then raises TypeError"
RECORD = "a plain record that checks nothing"
EXCEPTION = "an exception class"
EXEMPT = {
    "GroupElement.__mul__": OPERATOR,
    "GroupElement.__pow__": OPERATOR,
    "RingElement.__add__": OPERATOR,
    "RingElement.__sub__": OPERATOR,
    "RingElement.coefficient": "a lookup: an object outside the support has coefficient 0",
    "DaxValue": RECORD,
    "Verdict": RECORD,
    "DaxError": EXCEPTION,
    "ParseError": EXCEPTION,
    "ValidationError": EXCEPTION,
}

CASES = [(name, slot) for name, (_, args) in VALID_CALLS.items() for slot in range(len(args))]


def public_callables_with_arguments():
    """Qualified names of the public functions, constructors and methods that take an argument."""
    found = [(name, getattr(daxcalc, name)) for name in PINNED_FUNCTIONS]
    for class_name, (_, members) in PINNED_CLASSES.items():
        cls = getattr(daxcalc, class_name)
        found.append((class_name, cls))
        found.extend((f"{class_name}.{m}", getattr(cls, m)) for m, pin in members.items() if pin != "attribute")
    names = set()
    for name, obj in found:
        try:
            params = [p for p in inspect.signature(obj).parameters if p != "self"]
        except ValueError:  # a constructor inherited from a builtin, such as Exception's
            params = ["args"]
        if params:
            names.add(name)
    return names


def test_every_public_callable_is_swept_or_exempt():
    missing = public_callables_with_arguments() - VALID_CALLS.keys() - EXEMPT.keys()
    assert not missing, sorted(missing)


@pytest.mark.parametrize("name", VALID_CALLS)
def test_the_starting_call_is_valid(name):
    function, args = VALID_CALLS[name]
    function(*args)


@pytest.mark.parametrize("name, slot", CASES, ids=[f"{name}-{slot}" for name, slot in CASES])
def test_a_wrong_typed_argument_raises_one_dax_error_line(name, slot):
    function, args = VALID_CALLS[name]
    args = list(args)
    args[slot] = object()
    with pytest.raises(DaxError) as excinfo:
        function(*args)
    assert "\n" not in str(excinfo.value)


# entry point -> (a call with the container in one slot, a valid first entry, the message when it is 5)
ITERABLE_ARGUMENTS = {
    "GroupSpec": (GroupSpec, Factor("t"), "factors must be an iterable of Factor, got int"),
    "GroupSpec.element": (SPEC.element, (0, 1), "syllables must be an iterable of pairs, got int"),
    "GroupElement": (lambda c: GroupElement(SPEC, c), (0, 1),
                     "syllables must be (factor index, exponent) pairs, got int"),
    "RingElement": (lambda c: RingElement(SPEC, c), (T, 1),
                    "terms must be (group element, coefficient) pairs, got int"),
    "SRData-double_tubes": (SRData, A, "double_tubes and sr_discs must be sequences, got int"),
    "SRData-sr_discs": (lambda c: SRData((), c), (1, T), "double_tubes and sr_discs must be sequences, got int"),
    "ExplicitKernel": (ExplicitKernel, monomial(T, 2), "generators must be an iterable of ring elements, got int"),
    "hermite_normal_form-rows": (hermite_normal_form, [2, 1], "rows must be integer lists, got int"),
    "hermite_normal_form-row": (lambda c: hermite_normal_form([c]), 2, "rows must be integer lists, got int"),
    "dax_value": (lambda c: dax_value(c, SPEC), (1, T), "points must be an iterable of pairs, got int"),
    "spin_composition_value": (lambda c: spin_composition_value(c, SPEC), (1, T),
                               "spins must be an iterable of pairs, got int"),
}


def entries_then_a_type_error(first):
    yield first
    raise TypeError("from inside the walk")


@pytest.mark.parametrize("name", ITERABLE_ARGUMENTS)
def test_container_guard_message_and_pass_through(name):
    call, first, message = ITERABLE_ARGUMENTS[name]
    with pytest.raises(ValidationError) as excinfo:
        call(5)
    assert str(excinfo.value) == message
    with pytest.raises(TypeError, match="^from inside the walk$"):
        call(entries_then_a_type_error(first))


FOREIGN = GroupSpec((Factor("z"),)).generator("z")
ONE = SPEC.element(())

# entry point and rule -> (a call with a bad second entry, its .path, its .message)
ENTRY_ERRORS = {
    "SRData-pair": (lambda: SRData((), ((1, T), (1,))), "sr_discs[1]", "disc must be a (sign, element) pair"),
    "negate_data-sign": (lambda: negate_data(SRData((), ((1, T), (2, T)))), "sr_discs[1]",
                         "sign must be +1 or -1, got 2"),
    "dax_value-pair": (lambda: dax_value([(1, T), (1, A, 3)], SPEC), "points[1]",
                       "point must be a (sign, element) pair"),
    "dax_value-sign": (lambda: dax_value([(1, T), (0, A)], SPEC), "points[1]", "sign must be +1 or -1, got 0"),
    "dax_value-spec": (lambda: dax_value([(1, T), (1, FOREIGN)], SPEC), "points[1]",
                       "element is not over the given group spec"),
    "spin_composition_value-sign": (lambda: spin_composition_value([(1, T), (True, A)], SPEC), "spins[1]",
                                    "sign must be +1 or -1, got True"),
    "spin_composition_value-trivial": (lambda: spin_composition_value([(1, T), (1, ONE)], SPEC), "spins[1]",
                                       "spin element must be nontrivial"),
    "ExplicitKernel-zero": (lambda: ExplicitKernel((X, RingElement.zero(SPEC))), "generators[1]",
                            "kernel generator must be nonzero"),
    "GroupSpec-factor": (lambda: GroupSpec((Factor("t"), 5)), "factors[1]", "5 is not a Factor"),
}


@pytest.mark.parametrize("name", ENTRY_ERRORS)
def test_a_bad_entry_is_the_error_path(name):
    call, path, message = ENTRY_ERRORS[name]
    with pytest.raises(ValidationError) as excinfo:
        call()
    error = excinfo.value
    assert (error.path, error.message, str(error)) == (path, message, f"{path}: {message}")
