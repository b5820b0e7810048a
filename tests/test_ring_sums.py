"""Ring sums built once: differential checks against tests/oracle.py.

phi, dax_sum, dax_value, spin_composition_value and the inverse-pairs fold
collect their terms in one dict and construct the value once, and monomial
builds through RingElement.from_mapping.  On a fixed-seed corpus each prints
the value the oracle sums, and each fault the corpus plants (a bad sign, an
identity element, a foreign spec, a zero that is not an int) raises its own
error.  Every value built from checked values skips the constructor's checks;
on the same corpus each such value must pass them and rebuild equal.
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

import oracle
from helpers import (
    outcome,
    plain_data,
    plain_kernel,
    plain_ring,
    plain_spec,
    random_element,
    random_kernel,
    random_nontrivial,
    random_ring_element,
    random_spec,
    random_srdata,
    random_two_torsion,
)

CASES = 3000
BAD_SIGNS = (0, 2, -2, True)


def random_points(rng, spec, other):
    """Signed loops with identity loops, bad signs and foreign elements mixed in, and each point's planted fault or None."""
    points, faults = [], []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        sign = rng.choice(BAD_SIGNS) if roll < 0.05 else rng.choice((1, -1))
        loop = random_element(rng, other if 0.05 <= roll < 0.08 else spec, max_syllables=2)
        points.append((sign, loop))
        foreign = 0.05 <= roll < 0.08 and plain_spec(other) != plain_spec(spec)
        faults.append(f"sign must be +1 or -1, got {sign}" if roll < 0.05 else
                      "element is not over the given group spec" if foreign else None)
    return points, faults


def random_disc_data(rng, spec, other):
    """Disc data, one case in ten with a bad sign, a trivial disc or a foreign disc, and validate's problem or None."""
    data = random_srdata(rng, spec, max_discs=6)
    roll = rng.random()
    if roll < 0.05:
        extra = (rng.choice(BAD_SIGNS), random_nontrivial(rng, spec))
        problem = f"sign must be +1 or -1, got {extra[0]}"
    elif roll < 0.08:
        extra, problem = (1, spec.identity()), "element is trivial"
    elif roll < 0.1:
        extra = (1, random_nontrivial(rng, other))
        problem = "element is not over the manifold group" if plain_spec(other) != plain_spec(spec) else None
    else:
        return data, None
    return SRData(data.double_tubes, data.sr_discs + (extra,)), problem and f"sr_discs[{len(data.sr_discs)}]: {problem}"


def point_outcomes(points, faults, spec):
    """What dax_value and spin_composition_value must give: the first planted fault's error, else the oracle's sum."""
    for i, fault in enumerate(faults):
        if fault:
            return [("ValidationError", f"{name}[{i}]: {fault}") for name in ("points", "spins")]
    value, dropped = oracle.point_sum([(sign, loop.syllables) for sign, loop in points])
    text = oracle.ring_text(plain_spec(spec), value)
    identity = next((i for i, (_, loop) in enumerate(points) if not loop.syllables), None)
    spin = ("ok", text) if identity is None else ("ValidationError", f"spins[{identity}]: spin element must be nontrivial")
    return ("ok", text, dropped), spin


def monomial_outcome(g, coeff, spec):
    if type(coeff) is int and coeff == 0:
        return "ok", "0"
    if not g.syllables:
        return "ValidationError", "monomial requires a nontrivial group element"
    if type(coeff) is not int:
        return "ValidationError", f"coefficient {coeff!r} must be a nonzero integer"
    return "ok", oracle.ring_text(plain_spec(spec), {g.syllables: coeff})


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
        plain = plain_spec(spec)
        other = random_spec(rng)
        manifold = ManifoldModel(spec, random_kernel(rng, spec))
        data, problem = random_disc_data(rng, spec, other)
        if problem:
            expected = "ValidationError", f"invalid disc data: {problem}"
        else:
            value = oracle.reduce(plain, plain_kernel(manifold.kernel), oracle.phi_sum(plain, *plain_data(data)))
            expected = "ok", oracle.ring_text(plain, value)
        assert outcome(checked(phi), data, manifold) == expected

        g = random_two_torsion(rng, spec) if rng.random() < 0.3 else None
        g = g or random_element(rng, spec)
        bad_sign = rng.random() < 0.1
        sign = rng.choice(BAD_SIGNS) if bad_sign else rng.choice((1, -1))
        if bad_sign:
            expected = "ValidationError", f"sign must be +1 or -1, got {sign}"
        elif not g.syllables:
            expected = "ValidationError", "dax_sum is undefined on the identity element"
        else:
            expected = "ok", oracle.ring_text(plain, oracle.dax_sum(plain, g.syllables, sign))
        assert outcome(checked(dax_sum), g, sign) == expected

        points, faults = random_points(rng, spec, other)
        value, spin = point_outcomes(points, faults, spec)
        assert outcome(dax_value, points, spec) == value
        assert outcome(spin_composition_value, points, spec) == spin

        x = random_ring_element(rng, spec, max_terms=6)
        expected = "ok", oracle.ring_text(plain, oracle.reduce(plain, "inverse_pairs", plain_ring(x)))
        assert outcome(checked(InversePairsKernel().reduce), x) == expected

        coeff = rng.choice((0.0, -0.0, False)) if rng.random() < 0.1 else rng.randint(-3, 3)  # a zero that is not an int
        assert outcome(monomial, g, coeff) == monomial_outcome(g, coeff, spec)

        y = random_ring_element(second, spec, max_terms=6)
        terms_x = [(c, w) for w, c in plain_ring(x).items()]
        for build, s in ((operator.add, 1), (operator.sub, -1)):
            total, _ = oracle.point_sum(terms_x + [(s * c, w) for w, c in plain_ring(y).items()])
            assert str(checked(build)(x, y)) == oracle.ring_text(plain, total)
        assert str(checked(operator.neg)(x)) == oracle.ring_text(plain, {w: -c for c, w in terms_x})
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
