"""Memory kept by a decoded session of long words stays bounded per syllable.

Every word a session decodes is built by GroupSpec._merge, which takes each
syllable with |exponent| <= 16 from its spec's shared table of (index,
exponent) pairs, so a kept word costs one tuple slot per syllable plus its
fixed per-word overhead.  The session here has 300 words of 30 syllables over
x * y * Z/2 * Z/3 (the long_words shape), fixed seed.  tracemalloc counts what
the decoded document still holds once the JSON object is freed, divided by the
number of syllables.  On CPython 3.11 that is about 17 B per syllable; a fresh
56-byte tuple per syllable gave about 73 B.  The bound of BOUND_B = 32 B sits
between the two.

The spec's own tables (shared pairs and printed spellings) cost a fixed
amount per factor, growing with the factor's name, and a spec has at most 256
factors with names of at most 64 characters: one at both limits keeps about
1.9 MiB on CPython 3.11, under the bound of SPEC_BOUND_B = 2 MiB.
"""

import gc
import json
import random
import tracemalloc

from daxcalc import Factor, GroupSpec
from daxcalc.documents import load_json, session_from_json

FACTORS = (("x", None), ("y", None), ("a", 2), ("b", 3))
WORDS, SYLLABLES, PER_DISC = 300, 30, 5
BOUND_B = 32
SPEC_BOUND_B = 2 * 2**20


def word(rng: random.Random) -> str:
    """A reduced word of SYLLABLES syllables, |exponent| <= 3."""
    parts, prev = [], None
    for _ in range(SYLLABLES):
        index = rng.choice([i for i in range(len(FACTORS)) if i != prev])
        name, order = FACTORS[index]
        exp = rng.choice((-3, -2, -1, 1, 2, 3)) if order is None else rng.randint(1, order - 1)
        parts.append(name if exp == 1 else f"{name}^{exp}")
        prev = index
    return "*".join(parts)


def session_text(seed: int) -> str:
    rng = random.Random(seed)
    group = {"factors": [{"type": "Z", "name": n} if o is None else {"type": "Zn", "name": n, "n": o} for n, o in FACTORS]}
    discs = {
        f"d{k}": {"sr_discs": [{"sign": rng.choice((1, -1)), "word": word(rng)} for _ in range(PER_DISC)]}
        for k in range(WORDS // PER_DISC)
    }
    return json.dumps({"manifold": {"group": group, "dax_kernel": {"preset": "inverse_pairs"}}, "discs": discs})


def test_a_decoded_session_keeps_a_bounded_number_of_bytes_per_syllable():
    text = session_text(1)
    gc.collect()
    tracemalloc.start()
    try:
        obj = load_json(text)
        doc = session_from_json(obj)
        del obj
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    syllables = sum(len(g.syllables) for disc in doc.discs.values() for _, g in disc.sr_discs)
    assert syllables == WORDS * SYLLABLES
    assert kept / syllables <= BOUND_B, f"{kept} B kept for {syllables} syllables"


def test_a_spec_at_the_factor_limit_keeps_a_bounded_number_of_bytes():
    # infinite cyclic, for the largest pair tables; each name is 64 characters
    factors = tuple(Factor(f"x{i:063d}") for i in range(256))
    gc.collect()
    tracemalloc.start()
    try:
        spec = GroupSpec(factors)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(spec.factors) == 256 and {len(f.name) for f in factors} == {64}
    assert kept <= SPEC_BOUND_B, f"{kept} B kept by a spec of 256 factors"
