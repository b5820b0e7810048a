"""Ring sums built once: differential checks against the per-term `+` chains.

phi, dax_sum, dax_value, spin_composition_value and the inverse-pairs fold
collect their terms in one dict and construct the value once, and monomial
builds through the same RingElement.from_mapping.  The seed
versions, which added one monomial at a time, are kept in helpers.py; here
both are run on a fixed-seed corpus and must agree on every output or error.
"""

import random

from daxcalc import (
    InversePairsKernel,
    ManifoldModel,
    RingElement,
    SRData,
    dax_sum,
    dax_value,
    instantiate,
    monomial,
    phi,
    spin_composition_value,
)

from helpers import (
    outcome,
    random_element,
    random_kernel,
    random_nontrivial,
    random_ring_element,
    random_spec,
    random_srdata,
    random_two_torsion,
    reference_dax_sum,
    reference_dax_value,
    reference_inverse_pairs_reduce,
    reference_monomial,
    reference_phi,
    reference_spin_composition_value,
)

CASES = 3000
BAD_SIGNS = (0, 2, -2, True)


def random_points(rng, spec, other):
    """Signed loops with identity loops, bad signs and foreign elements mixed in."""
    points = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        sign = rng.choice(BAD_SIGNS) if roll < 0.05 else rng.choice((1, -1))
        loop = random_element(rng, other if 0.05 <= roll < 0.08 else spec, max_syllables=2)
        points.append((sign, loop))
    return points


def random_disc_data(rng, spec, other):
    """Disc data, one case in ten with a bad sign, a trivial disc or a foreign disc."""
    data = random_srdata(rng, spec, max_discs=6)
    roll = rng.random()
    if roll < 0.05:
        extra = (rng.choice(BAD_SIGNS), random_nontrivial(rng, spec))
    elif roll < 0.08:
        extra = (1, spec.identity())
    elif roll < 0.1:
        extra = (1, random_nontrivial(rng, other))
    else:
        return data
    return SRData(data.double_tubes, data.sr_discs + (extra,))


def test_ring_sums_match_the_per_term_references():
    rng = random.Random(404)
    for _ in range(CASES):
        spec = random_spec(rng)
        other = random_spec(rng)
        manifold = ManifoldModel(spec, random_kernel(rng, spec))
        data = random_disc_data(rng, spec, other)
        assert outcome(phi, data, manifold) == outcome(reference_phi, data, manifold)

        g = random_two_torsion(rng, spec) if rng.random() < 0.3 else None
        g = g or random_element(rng, spec)
        # the reference dax_sum accepts a bool sign; test_ring checks the rejection
        sign = rng.choice((0, 2, -2)) if rng.random() < 0.1 else rng.choice((1, -1))
        assert outcome(dax_sum, g, sign) == outcome(reference_dax_sum, g, sign)

        points = random_points(rng, spec, other)
        assert outcome(dax_value, points, spec) == outcome(reference_dax_value, points, spec)
        assert outcome(spin_composition_value, points, spec) == outcome(
            reference_spin_composition_value, points, spec
        )

        x = random_ring_element(rng, spec, max_terms=6)
        assert outcome(InversePairsKernel().reduce, x) == outcome(reference_inverse_pairs_reduce, x)
        folded = InversePairsKernel().reduce(x)  # built without the constructor's checks, so run them
        assert type(folded.terms) is tuple and RingElement(spec, folded.terms) == folded

        coeff = rng.randint(-3, 3)
        assert outcome(monomial, g, coeff) == outcome(reference_monomial, g, coeff)


def test_phi_validates_a_linear_number_of_terms(monkeypatch):
    # 400 distinct discs t^1 .. t^400 give 800 terms; a per-term `+` chain
    # validates every partial sum, about 162,000 terms in all
    manifold = instantiate("boundary_connect_sum")
    t = manifold.group.generator("t")
    data = SRData((), tuple((1, t**k) for k in range(1, 401)))
    validated = []
    original = RingElement.__post_init__

    def counting(self):
        original(self)
        validated.append(len(self.terms))

    monkeypatch.setattr(RingElement, "__post_init__", counting)
    value = phi(data, manifold)
    assert len(value.terms) == 800
    assert validated == [800]
