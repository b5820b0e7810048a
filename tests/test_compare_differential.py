"""compare against tests/oracle.py: a differential check.

compare sums phi(d1) - phi(d2) unreduced and reduces that once; it reduces
phi(d1) a second time only for an UNKNOWN verdict's certificate.  The oracle
decides the verdict from the documented rules on plain tuples: normal forms,
phi sums and each kernel's coset representative.  Both must give the same
outcome, certificate and rule.  The fixed-seed corpus runs over each kernel
kind and plants pairs whose phi values agree, so that every kind reaches
both phi rules:
- d1 against d1 with each disc loop g replaced by g^-1, since
  sign*(g + g^-1) does not change under the swap;
- d1 against d1 plus the disc (+1, g), over an explicit kernel that has
  g + g^-1 among its generators.
"""

import random
from collections import Counter

import pytest

from daxcalc import ExplicitKernel, InversePairsKernel, ManifoldModel, SRData, TrivialKernel, compare, dax_sum

import oracle
from helpers import plain_data, plain_kernel, plain_spec, random_nontrivial, random_ring_element, random_spec, random_srdata


def _explicit_kernel(rng, spec, g):
    generators = [dax_sum(g, 1)]
    for _ in range(rng.randint(0, 2)):
        gen = random_ring_element(rng, spec, max_terms=3)
        if not gen.is_zero:
            generators.append(gen)
    rng.shuffle(generators)
    return ExplicitKernel(tuple(generators))


KERNELS = {
    "trivial": lambda rng, spec, g: TrivialKernel(),
    "inverse_pairs": lambda rng, spec, g: InversePairsKernel(),
    "explicit": _explicit_kernel,
}


def _pairs(rng, spec, g):
    d1 = random_srdata(rng, spec)
    yield d1, random_srdata(rng, spec)
    yield d1, SRData(d1.double_tubes, tuple((sign, ~h) for sign, h in d1.sr_discs))
    yield d1, SRData(d1.double_tubes, d1.sr_discs + ((1, g),))
    yield d1, SRData(d1.double_tubes[::-1], d1.sr_discs[::-1])


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_compare_matches_the_three_reduction_reference(kind):
    rng = random.Random(2801)
    rules = Counter()
    for _ in range(80):
        spec = random_spec(rng)
        g = random_nontrivial(rng, spec)
        manifold = ManifoldModel(spec, KERNELS[kind](rng, spec, g))
        for d1, d2 in _pairs(rng, spec, g):
            verdict = compare(d1, d2, manifold)
            expected = oracle.compare(plain_spec(spec), plain_kernel(manifold.kernel), plain_data(d1), plain_data(d2))
            assert (verdict.outcome, verdict.certificate, verdict.rule) == expected, (str(spec), d1, d2)
            rules[verdict.rule] += 1
    assert rules["phi-difference"] and rules["phi-coincide"] and rules["equal-normal-form"], rules
