"""Acceptance checks, one test per criterion.

Each test prints a single PASS line (visible with -v via its name, or with -s
via the report) and fails loudly otherwise.  Randomized criteria use fixed
seeds so a failure is reproducible.
"""

import itertools
import json
import os
import random
import string
import subprocess
import sys
from pathlib import Path

import daxcalc
from daxcalc import (
    ExplicitKernel,
    Factor,
    GroupSpec,
    ISOTOPIC,
    ManifoldModel,
    NOT_ISOTOPIC,
    RingElement,
    SRData,
    TrivialKernel,
    UNKNOWN,
    canonical_key,
    compare,
    concat,
    dax_value,
    equal_mod_kernel,
    instantiate,
    monomial,
    normalize,
    parse_ringexpr,
    phi,
    validate,
)
from daxcalc.cli import main

from helpers import (
    lattice_member,
    random_element,
    random_kernel,
    random_nontrivial,
    random_spec,
    random_srdata,
    ring_to_rows,
)


def _report(number: int, text: str) -> None:
    print(f"[criterion {number:2d}] PASS  {text}")


def _disc(manifold, element, sign=1) -> SRData:
    return SRData((), ((sign, element),))


def test_criterion_01_basic_obstruction():
    manifold = instantiate("boundary_connect_sum")
    t = manifold.group.generator("t")
    value = phi(_disc(manifold, t), manifold)
    assert value == parse_ringexpr("t + t^-1", manifold.group)
    verdict = compare(_disc(manifold, t), SRData(), manifold)
    assert verdict.outcome == NOT_ISOTOPIC
    assert verdict.certificate == "t + t^-1"
    _report(1, "phi(D_t) = t + t^-1 and D_t vs D_0 is NOT_ISOTOPIC")


def test_criterion_02_power_discs_pairwise_distinct():
    manifold = instantiate("boundary_connect_sum")
    t = manifold.group.generator("t")
    discs = {i: _disc(manifold, t**i) for i in range(1, 21)}
    pairs = 0
    for i, j in itertools.combinations(range(1, 21), 2):
        verdict = compare(discs[i], discs[j], manifold)
        assert verdict.outcome == NOT_ISOTOPIC, (i, j, verdict)
        pairs += 1
    assert pairs == 190
    _report(2, "D_{t^i} pairwise NOT_ISOTOPIC for 1 <= i < j <= 20 (190 pairs)")


def test_criterion_03_connect_sum_relations():
    manifold = instantiate("connect_sum")
    t = manifold.group.generator("t")
    reduced = []
    for i in range(1, 11):
        assert equal_mod_kernel(monomial(t**i, 1), monomial(t**-i, 1), manifold.kernel)
        reduced.append(manifold.kernel.reduce(monomial(t**i, 1)))
    assert len(set(reduced)) == 10
    _report(3, "t^i = t^-i mod kernel for i = 1..10 with 10 distinct reduced monomials")


def test_criterion_04_inverse_pair_unknown():
    manifold = instantiate("boundary_connect_sum")
    t = manifold.group.generator("t")
    verdict = compare(_disc(manifold, t), _disc(manifold, ~t), manifold)
    assert verdict.outcome == UNKNOWN
    _report(4, "D_t vs D_{t^-1} stays UNKNOWN rather than overclaiming")


def test_criterion_05_simply_connected():
    manifold = instantiate("simply_connected")
    verdict = compare(SRData(), SRData(), manifold)
    assert verdict.outcome == ISOTOPIC
    # nothing nonempty validates over the trivial group
    identity = manifold.group.identity()
    for data in (SRData((identity,), ()), SRData((), ((1, identity),))):
        assert validate(data, manifold)
    _report(5, "over pi1 = 1 the only valid data is empty and compare says ISOTOPIC")


def test_criterion_06_double_tube_identity():
    spec = GroupSpec((Factor("t"), Factor("a", 2)))
    manifold = ManifoldModel(spec, TrivialKernel())
    a = spec.generator("a")
    data = SRData((a, a), ())
    assert normalize(data, manifold) == SRData((), ((1, a),))
    assert phi(data, manifold) == parse_ringexpr("2*a", spec)
    assert phi(data, manifold) == phi(SRData((), ((1, a),)), manifold)
    _report(6, "two equal double tubes equal one self-referential disc with phi = 2a")


def test_criterion_07_homomorphism_and_move_invariance():
    rng = random.Random(107)
    runs = 500
    for _ in range(runs):
        spec = random_spec(rng)
        manifold = ManifoldModel(spec, random_kernel(rng, spec))
        d1 = random_srdata(rng, spec)
        d2 = random_srdata(rng, spec)
        total = phi(concat(d1, d2), manifold)
        assert equal_mod_kernel(
            total, phi(d1, manifold) + phi(d2, manifold), manifold.kernel
        ), (d1, d2)
        assert phi(normalize(d1, manifold), manifold) == phi(d1, manifold), d1
    _report(7, f"phi additive under concat and stable under normalize on {runs} random data")


def _bounded_ring(rng, spec, max_support=5, max_coeff=3) -> RingElement:
    size = rng.randint(1, max_support)
    support = set()
    for _ in range(20):
        support.add(random_nontrivial(rng, spec, max_syllables=2))
        if len(support) >= size:
            break
    coeffs = [c for c in range(-max_coeff, max_coeff + 1) if c]
    # sort before drawing so the sequence of rng calls is reproducible
    ordered = sorted(support, key=canonical_key)
    return RingElement.from_mapping(spec, {g: rng.choice(coeffs) for g in ordered})


def test_criterion_08_lattice_reduction_oracle():
    rng = random.Random(108)
    kernels = 0
    while kernels < 200:
        spec = random_spec(rng)
        generators = tuple(_bounded_ring(rng, spec) for _ in range(rng.randint(1, 3)))
        kernel = ExplicitKernel(generators)
        x = _bounded_ring(rng, spec)
        if rng.random() < 0.5:
            # force a member pair: y differs from x by a small combination
            y = x
            for gen in generators:
                for _ in range(rng.randint(0, 2)):
                    y = y + gen if rng.random() < 0.5 else y - gen
        else:
            y = _bounded_ring(rng, spec)
        rows, support = ring_to_rows([*generators, x, y])
        gen_rows = rows[: len(generators)]
        target = [x.coefficient(g) - y.coefficient(g) for g in support]
        expected = lattice_member(gen_rows, target)
        assert equal_mod_kernel(x, y, kernel) == expected, (generators, x, y)
        kernels += 1
    _report(8, "equal_mod_kernel matches the exact enumeration oracle on 200 random kernels")


def test_criterion_09_pairing_additivity():
    rng = random.Random(109)
    runs = 500
    for _ in range(runs):
        spec = random_spec(rng)
        first = [
            (rng.choice((1, -1)), random_element(rng, spec)) for _ in range(rng.randint(0, 5))
        ]
        second = [
            (rng.choice((1, -1)), random_element(rng, spec)) for _ in range(rng.randint(0, 5))
        ]
        whole = dax_value(first + second, spec)
        left = dax_value(first, spec)
        right = dax_value(second, spec)
        assert whole.value == left.value + right.value
        assert whole.dropped == left.dropped + right.dropped
    _report(9, f"dax_value additive under concatenation on {runs} random lists")


SESSION_DOC = {
    "manifold": "boundary_connect_sum",
    "discs": {
        "d1": {"double_tubes": [], "sr_discs": [{"sign": 1, "word": "t"}]},
        "d0": {},
    },
    "queries": [
        {"kind": "compare", "discs": ["d1", "d0"]},
        {"kind": "invariant", "disc": "d1"},
        {"kind": "reduce", "element": "2*t - t + t^-4"},
        {"kind": "normalize", "disc": "d1"},
        {"kind": "pairing", "points": [{"sign": 1, "word": "t"}, {"sign": -1, "word": "1"}]},
    ],
}

_JUNK = "?!;~@#"
_POOL = string.ascii_letters + string.digits + "^*+-_ {}[]\":,."


def _malformed(rng: random.Random) -> str:
    text = "".join(rng.choice(_POOL) for _ in range(rng.randint(1, 40)))
    junk = rng.choice(_JUNK)
    cut = rng.randint(0, len(text))
    return text[:cut] + junk + text[cut:]


def test_criterion_10_cli_determinism_and_robustness(tmp_path):
    session = tmp_path / "session.json"
    session.write_text(json.dumps(SESSION_DOC))
    # the child imports the package this process imports, not an installed copy
    src = str(Path(daxcalc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outputs = set()
    for _ in range(3):
        result = subprocess.run(
            [sys.executable, "-m", "daxcalc", "run", str(session)],
            capture_output=True,
            check=True,
            env=env,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1

    rng = random.Random(110)
    scratch = tmp_path / "garbage"
    checked = 0
    for _ in range(400):
        code = main(["reduce", "--preset", "connect_sum", "--element", _malformed(rng)])
        assert code in (1, 2)
        checked += 1
    for flag, command in (("--disc", "invariant"), ("--disc", "normalize")):
        for _ in range(150):
            scratch.write_text(_malformed(rng))
            code = main([command, "--preset", "boundary_connect_sum", flag, str(scratch)])
            assert code in (1, 2)
            checked += 1
    for _ in range(150):
        scratch.write_text(_malformed(rng))
        code = main(["invariant", "--manifold", str(scratch), "--disc", str(scratch)])
        assert code in (1, 2)
        checked += 1
    for _ in range(150):
        scratch.write_text(_malformed(rng))
        code = main(["run", str(scratch)])
        assert code in (1, 2)
        checked += 1
    assert checked == 1000
    _report(10, "3 byte-identical session runs; 1000 malformed inputs all exit 1 or 2")
