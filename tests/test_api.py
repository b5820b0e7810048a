"""The library API: `__all__` and the signature of every public callable.

The pins were captured from the code before the element layer stopped
re-reducing inverses and rehashing specs, and the library API must not change
under such refactors.  Each exported class is pinned by its constructor
signature and its own public members: a method by its signature, anything else
(a property, a field default, a tuple field) as "attribute".  Constants are
pinned by repr.
"""

import inspect

import daxcalc

PINNED_ALL = [
    "DaxError", "DaxValue", "ExplicitKernel", "Factor", "GroupElement", "GroupSpec",
    "ISOTOPIC", "InversePairsKernel", "KernelSpec", "ManifoldModel", "NOT_ISOTOPIC",
    "PRESET_IDS", "ParseError", "RingElement", "SRData", "TrivialKernel", "UNKNOWN",
    "ValidationError", "Verdict", "canonical_key", "compare", "compare_canonical",
    "concat", "dax_sum", "dax_value", "equal_mod_kernel", "hermite_normal_form",
    "instantiate", "monomial", "negate_data", "normalize", "parse_ringexpr", "parse_word",
    "phi", "spin_composition_value", "validate",
]

KERNEL_METHODS = {
    "describe": "(self) -> 'str'",
    "reduce": "(self, x: 'RingElement') -> 'RingElement'",
}

PINNED_CLASSES = {
    "DaxError": (None, {}),
    "DaxValue": (
        "(value: ForwardRef('RingElement'), dropped: ForwardRef('int'))",
        {"dropped": "attribute", "value": "attribute"},
    ),
    "ExplicitKernel": ("(generators: 'tuple[RingElement, ...]') -> None", KERNEL_METHODS),
    "Factor": ("(name: 'str', order: 'int | None' = None) -> None", {"order": "attribute"}),
    "GroupElement": (
        "(spec: 'GroupSpec', syllables: 'tuple[tuple[int, int], ...]') -> None",
        {"is_identity": "attribute", "is_two_torsion": "(self) -> 'bool'"},
    ),
    "GroupSpec": (
        "(factors: 'tuple[Factor, ...]' = ()) -> None",
        {
            "element": "(self, syllables: 'Iterable[tuple[Union[int, str], int]]')"
            " -> \"'GroupElement'\"",
            "factors": "attribute",
            "generator": "(self, name: 'str') -> \"'GroupElement'\"",
            "identity": "(self) -> \"'GroupElement'\"",
            "index_of": "(self, name: 'str') -> 'int'",
            "is_trivial": "attribute",
        },
    ),
    "InversePairsKernel": ("() -> None", KERNEL_METHODS),
    "ManifoldModel": (
        "(group: 'GroupSpec', kernel: 'KernelSpec', label: 'str' = '') -> None",
        {"describe": "(self) -> 'str'", "label": "attribute"},
    ),
    "ParseError": ("(message: 'str', position: 'int | None' = None)", {}),
    "RingElement": (
        "(spec: 'GroupSpec', terms: 'tuple[tuple[GroupElement, int], ...]') -> None",
        {
            "coefficient": "(self, g: 'GroupElement') -> 'int'",
            "from_mapping": "(spec: 'GroupSpec', mapping: 'Mapping[GroupElement, int]')"
            " -> \"'RingElement'\"",
            "is_zero": "attribute",
            "items": "(self) -> 'Iterator[tuple[GroupElement, int]]'",
            "support": "(self) -> 'tuple[GroupElement, ...]'",
            "zero": "(spec: 'GroupSpec') -> \"'RingElement'\"",
        },
    ),
    "SRData": (
        "(double_tubes: 'tuple[GroupElement, ...]' = (),"
        " sr_discs: 'tuple[tuple[int, GroupElement], ...]' = ()) -> None",
        {"double_tubes": "attribute", "is_empty": "attribute", "sr_discs": "attribute"},
    ),
    "TrivialKernel": ("() -> None", KERNEL_METHODS),
    "ValidationError": ("(message: 'str', path: 'str | None' = None)", {}),
    "Verdict": ("(outcome: 'str', certificate: 'str', rule: 'str') -> None", {}),
}

PINNED_FUNCTIONS = {
    "canonical_key": "(g: 'GroupElement')",
    "compare": "(d1: 'SRData', d2: 'SRData', manifold: 'ManifoldModel') -> 'Verdict'",
    "compare_canonical": "(a: 'GroupElement', b: 'GroupElement') -> 'int'",
    "concat": "(d1: 'SRData', d2: 'SRData') -> 'SRData'",
    "dax_sum": "(g: 'GroupElement', sign: 'int') -> 'RingElement'",
    "dax_value": "(points: 'Sequence[tuple[int, GroupElement]]', spec: 'GroupSpec')"
    " -> 'DaxValue'",
    "equal_mod_kernel": "(x: 'RingElement', y: 'RingElement', kernel: 'KernelSpec')"
    " -> 'bool'",
    "hermite_normal_form": "(rows: 'list[list[int]]')"
    " -> 'tuple[list[list[int]], list[tuple[int, int]]]'",
    "instantiate": "(preset_id: 'str') -> 'ManifoldModel'",
    "monomial": "(g: 'GroupElement', coeff: 'int') -> 'RingElement'",
    "negate_data": "(data: 'SRData') -> 'SRData'",
    "normalize": "(data: 'SRData', manifold: 'ManifoldModel') -> 'SRData'",
    "parse_ringexpr": "(text: 'str', spec: 'GroupSpec') -> 'RingElement'",
    "parse_word": "(text: 'str', spec: 'GroupSpec') -> 'GroupElement'",
    "phi": "(data: 'SRData', manifold: 'ManifoldModel') -> 'RingElement'",
    "spin_composition_value": "(spins: 'Sequence[tuple[int, GroupElement]]',"
    " spec: 'GroupSpec') -> 'RingElement'",
    "validate": "(data: 'SRData', manifold: 'ManifoldModel') -> 'list[str]'",
}

PINNED_CONSTANTS = {
    "ISOTOPIC": "'ISOTOPIC'",
    "KernelSpec": "typing.Union[daxcalc.kernel.TrivialKernel,"
    " daxcalc.kernel.InversePairsKernel, daxcalc.kernel.ExplicitKernel]",
    "NOT_ISOTOPIC": "'NOT_ISOTOPIC'",
    "PRESET_IDS": "('boundary_connect_sum', 'connect_sum', 'simply_connected')",
    "UNKNOWN": "'UNKNOWN'",
}


def signature(obj):
    try:
        return str(inspect.signature(obj))
    except ValueError:  # a constructor inherited from a builtin, such as Exception's
        return None


def public_members(cls):
    members = {}
    for name in sorted(vars(cls)):
        if not name.startswith("_"):
            value = getattr(cls, name)
            members[name] = signature(value) if callable(value) else "attribute"
    return members


def test_all_is_pinned():
    assert daxcalc.__all__ == PINNED_ALL
    pinned = PINNED_CLASSES.keys() | PINNED_FUNCTIONS.keys() | PINNED_CONSTANTS.keys()
    assert sorted(pinned) == sorted(PINNED_ALL)


def test_class_signatures_and_public_members_are_pinned():
    for name, (constructor, members) in PINNED_CLASSES.items():
        cls = getattr(daxcalc, name)
        assert isinstance(cls, type), name
        assert (signature(cls), public_members(cls)) == (constructor, members), name


def test_function_signatures_are_pinned():
    for name, pinned in PINNED_FUNCTIONS.items():
        function = getattr(daxcalc, name)
        assert inspect.isfunction(function), name
        assert signature(function) == pinned, name


def test_constants_are_pinned():
    for name, pinned in PINNED_CONSTANTS.items():
        assert repr(getattr(daxcalc, name)) == pinned, name
