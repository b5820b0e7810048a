"""daxcalc: exact calculator for the Dax-type disc isotopy obstruction.

The library side of the package.  Build a GroupSpec, pick or build a kernel,
wrap both in a ManifoldModel, then feed SRData presentations to phi and
compare.  The command line lives in daxcalc.cli.
"""

from .engine import ISOTOPIC, NOT_ISOTOPIC, UNKNOWN, Verdict, compare, phi
from .errors import DaxError, ParseError, ValidationError
from .forms import PRESET_IDS, ManifoldModel, SRData, concat, instantiate, negate_data, normalize, validate
from .groups import Factor, GroupElement, GroupSpec, canonical_key, compare_canonical
from .kernel import (
    ExplicitKernel,
    InversePairsKernel,
    KernelSpec,
    TrivialKernel,
    equal_mod_kernel,
    hermite_normal_form,
)
from .pairing import DaxValue, dax_value, spin_composition_value
from .ring import RingElement, dax_sum, monomial
from .words import parse_ringexpr, parse_word

__all__ = [
    "DaxError",
    "DaxValue",
    "ExplicitKernel",
    "Factor",
    "GroupElement",
    "GroupSpec",
    "ISOTOPIC",
    "InversePairsKernel",
    "KernelSpec",
    "ManifoldModel",
    "NOT_ISOTOPIC",
    "PRESET_IDS",
    "ParseError",
    "RingElement",
    "SRData",
    "TrivialKernel",
    "UNKNOWN",
    "ValidationError",
    "Verdict",
    "canonical_key",
    "compare",
    "compare_canonical",
    "concat",
    "dax_sum",
    "dax_value",
    "equal_mod_kernel",
    "hermite_normal_form",
    "instantiate",
    "monomial",
    "negate_data",
    "normalize",
    "parse_ringexpr",
    "parse_word",
    "phi",
    "spin_composition_value",
    "validate",
]

__version__ = "0.1.0"
