"""Ring sums built once: differential checks against the per-term `+` chains.

phi, dax_sum, dax_value, spin_composition_value and the inverse-pairs fold
collect their terms in one dict and construct the value once, and monomial
builds through RingElement.from_mapping.  The seed
versions, which added one monomial at a time, are kept in helpers.py; here
both are run on a fixed-seed corpus and must agree on every output or error.
Every value built from checked values skips the constructor's checks; on the
same corpus each such value must pass them and rebuild equal.
"""

import operator
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
    parse_ringexpr,
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


def checked(build):
    """build, whose ring value must pass the constructor's checks it skipped and rebuild equal."""

    def call(*args):
        value = build(*args)
        assert type(value.terms) is tuple and RingElement(value.spec, value.terms) == value, value
        return value

    return call


def test_ring_sums_match_the_per_term_references():
    rng = random.Random(404)
    second = random.Random(405)  # the second summands, drawn apart so rng's corpus stays as it was
    for _ in range(CASES):
        spec = random_spec(rng)
        other = random_spec(rng)
        manifold = ManifoldModel(spec, random_kernel(rng, spec))
        data = random_disc_data(rng, spec, other)
        assert outcome(checked(phi), data, manifold) == outcome(reference_phi, data, manifold)

        g = random_two_torsion(rng, spec) if rng.random() < 0.3 else None
        g = g or random_element(rng, spec)
        # the reference dax_sum accepts a bool sign; test_ring checks the rejection
        sign = rng.choice((0, 2, -2)) if rng.random() < 0.1 else rng.choice((1, -1))
        assert outcome(checked(dax_sum), g, sign) == outcome(reference_dax_sum, g, sign)

        points = random_points(rng, spec, other)
        assert outcome(dax_value, points, spec) == outcome(reference_dax_value, points, spec)
        assert outcome(spin_composition_value, points, spec) == outcome(
            reference_spin_composition_value, points, spec
        )

        x = random_ring_element(rng, spec, max_terms=6)
        assert outcome(checked(InversePairsKernel().reduce), x) == outcome(reference_inverse_pairs_reduce, x)

        coeff = rng.choice((0.0, -0.0, False)) if rng.random() < 0.1 else rng.randint(-3, 3)  # a zero that is not an int
        assert outcome(monomial, g, coeff) == outcome(reference_monomial, g, coeff)

        y = random_ring_element(second, spec, max_terms=6)
        for build in (operator.add, operator.sub):
            checked(build)(x, y)
        checked(operator.neg)(x)
        checked(parse_ringexpr)(str(x), spec)
        checked(manifold.kernel.reduce)(x)  # an explicit kernel in about two cases of five


def test_phi_validates_a_linear_number_of_terms(monkeypatch):
    # 400 distinct discs t^1 .. t^400 give 800 terms; a per-term `+` chain
    # builds every partial sum, about 162,000 terms in all.  Both doors are
    # counted: the checked constructor and the unchecked builder.
    manifold = instantiate("boundary_connect_sum")
    t = manifold.group.generator("t")
    data = SRData((), tuple((1, t**k) for k in range(1, 401)))
    built = []
    init, trusted = RingElement.__post_init__, RingElement._trusted

    def counting_init(self):
        init(self)
        built.append(len(self.terms))

    def counting_trusted(cls, spec, keyed):
        value = trusted(spec, keyed)
        built.append(len(value.terms))
        return value

    monkeypatch.setattr(RingElement, "__post_init__", counting_init)
    monkeypatch.setattr(RingElement, "_trusted", classmethod(counting_trusted))
    value = phi(data, manifold)
    assert len(value.terms) == 800
    assert built == [800]
