"""Differential tests: the one-loop word merge and the one-sort normalize
agree with tests/oracle.py, and every word the merge builds without the
constructor's checks passes those checks.

Each case runs on a fixed-seed corpus with cascading cancellations,
2-torsion tube pairs and opposite-sign duplicate discs; the oracle decides
each value.  Each fault it plants (an unknown name, an out-of-range index,
a foreign spec, a non-element operand, a bad sign) must raise its error.

The merge takes each syllable with |exponent| <= 16 from one table per spec,
so every path that reaches it (parse_word, parse_ringexpr terms,
GroupSpec.element, *, ~ and **) is also checked on exponents inside and
outside that range, over finite factors whose order is above and below it.
Sharing is checked through public attributes: words built separately hold
the same syllable objects, an exponent outside the range gets its own, and a
copied or unpickled spec builds equal, still shared words.

The parsers read a syllable spelled as str() prints it ("t", "t^-16") with one
lookup in a second fixed table per spec, and any other spelling ("t^1",
"t^+1", "t^01", "t^-0", "t^17") with a split at "^".  A fixed-seed
differential against the token parser kept in helpers, which reads the
tokens of its hand-written tokenizer and shares no pattern with
daxcalc.words, covers spellings on both sides of the table's edges, over
finite factors whose raw exponents wrap.  The table itself is checked through its private attributes: 32
entries per factor, whatever is decoded, and each value the very pair the
merge's table holds wherever it holds one, also in a copied or unpickled spec.
"""

import copy
import pickle
import random

from daxcalc import (
    DaxError,
    Factor,
    GroupElement,
    GroupSpec,
    ManifoldModel,
    SRData,
    TrivialKernel,
    ValidationError,
    canonical_key,
    normalize,
    parse_ringexpr,
    parse_word,
)

import oracle
from helpers import (
    plain_data,
    plain_spec,
    random_element,
    random_kernel,
    random_nontrivial,
    random_spec,
    random_srdata,
    random_two_torsion,
    reference_parse_ringexpr,
    reference_parse_word,
)

CASES = 3000
FOREIGN = GroupSpec((Factor("z", 2),))


def outcome(fn, *args):
    """Not helpers.outcome: the unchecked merge may raise only a DaxError, and values (elements as syllables) must be equal."""
    try:
        value = fn(*args)
    except DaxError as exc:
        return type(exc), str(exc)
    return "value", value.syllables if isinstance(value, GroupElement) else value


def random_syllables(rng: random.Random, spec: GroupSpec) -> tuple[list, str | None]:
    """(name or index, exponent) syllables, and the message of the first fault planted among them or None."""
    syllables, faults = [], []
    for _ in range(rng.randint(0, 8)):
        roll = rng.random()
        if roll < 0.03:
            ref = len(spec.factors)  # out of range
            faults.append(f"factor index {ref} out of range")
        elif roll < 0.06:
            ref = "z"  # unknown name
            faults.append("unknown factor name 'z'")
        elif roll < 0.4:
            ref = rng.choice(spec.factors).name
        else:
            ref = rng.randrange(len(spec.factors))
        syllables.append((ref, rng.randint(-5, 5)))
    return syllables, (faults or [None])[0]


def test_element_matches_the_reference():
    rng = random.Random(701)
    for _ in range(CASES):
        spec = random_spec(rng)
        syllables, fault = random_syllables(rng, spec)
        if fault:
            expected = ValidationError, fault
        else:
            names = [f.name for f in spec.factors]
            indexed = [(names.index(ref) if ref in names else ref, exp) for ref, exp in syllables]
            expected = "value", oracle.reduce_word(plain_spec(spec), indexed)
        assert outcome(spec.element, syllables) == expected, syllables


def test_mul_matches_the_reference():
    rng = random.Random(702)
    for _ in range(CASES):
        spec = random_spec(rng)
        a = random_element(rng, spec, max_syllables=6)
        roll = rng.random()
        if roll < 0.05:
            b = rng.choice((3, "t", None))
        elif roll < 0.1:
            b = random_element(rng, random_spec(rng))  # foreign unless the specs coincide
        else:
            # cancel a random tail of a, so merges cascade into the stack
            tail = GroupElement(spec, a.syllables[rng.randint(0, len(a.syllables)):])
            b = ~tail * random_element(rng, spec)
        if roll < 0.05:
            expected = "value", NotImplemented
        elif plain_spec(b.spec) != plain_spec(spec):
            expected = ValidationError, "cannot multiply elements over different group specs"
        else:
            expected = "value", oracle.product(plain_spec(spec), a.syllables, b.syllables)
        assert outcome(a.__mul__, b) == expected, (a, b)


def finite_spec(rng: random.Random) -> GroupSpec:
    spec = random_spec(rng)
    if all(f.order is None for f in spec.factors):
        i = rng.randrange(len(spec.factors))
        factors = list(spec.factors)
        factors[i] = Factor(factors[i].name, rng.choice((2, 3, 4, 6)))
        spec = GroupSpec(tuple(factors))
    return spec


def checked(spec: GroupSpec, g: GroupElement) -> GroupElement:
    """g rebuilt through the public constructor, which checks every syllable."""
    assert type(g.syllables) is tuple and all(type(s) is tuple for s in g.syllables), g.syllables
    return GroupElement(spec, g.syllables)


def test_trusted_merge_output_passes_the_checking_constructor():
    rng = random.Random(704)
    for _ in range(CASES):
        spec = finite_spec(rng)
        syllables = [(rng.randrange(len(spec.factors)), rng.randint(-9, 9)) for _ in range(rng.randint(0, 10))]
        g = spec.element(syllables)
        plain = plain_spec(spec)
        assert checked(spec, g) == g and g.syllables == oracle.reduce_word(plain, syllables), syllables
        h = random_element(rng, spec, max_syllables=6)
        for result in (g * h, h * g, ~g, g * ~g, g ** rng.randint(-3, 3)):
            assert checked(spec, result) == result, (g, h)
        assert (g * ~g).is_identity and (~g).syllables == oracle.inverse(plain, g.syllables)
        assert (g * h).syllables == oracle.product(plain, g.syllables, h.syllables)


def random_hostile_srdata(rng: random.Random, spec: GroupSpec) -> tuple[SRData, str | None]:
    """Disc data with repeats and cancelling pairs, and validate's problem with the fault it plants, or None."""
    data = random_srdata(rng, spec, max_discs=6)
    tubes = list(data.double_tubes)
    discs = list(data.sr_discs)
    for _ in range(rng.randint(0, 3)):
        tube = random_two_torsion(rng, spec)
        if tube is not None:
            tubes.extend([tube] * rng.randint(1, 3))
    for sign, g in list(discs):
        if rng.random() < 0.4:
            discs.append((-sign, g))
        if rng.random() < 0.2:
            discs.append((sign, g))
    for tube in tubes[:2]:
        if rng.random() < 0.3:
            discs.append((rng.choice((1, -1)), tube))
    planted = problem = None  # the one faulty entry, found by identity after the shuffle
    roll = rng.random()
    if roll < 0.08:
        planted, problem = FOREIGN.generator("z"), "element is not over the manifold group"
        planted = (1, planted) if roll < 0.04 else planted
        (discs if roll < 0.04 else tubes).append(planted)
    elif roll < 0.12 and discs:
        j = rng.randrange(len(discs))
        planted = discs[j] = (rng.choice((0, 2, True, 1.0, -1.0)), discs[j][1])
        problem = f"sign must be +1 or -1, got {planted[0]}"
    elif roll < 0.14:
        planted = random_nontrivial(rng, spec)  # usually not 2-torsion
        tubes.append(planted)
        if oracle.product(plain_spec(spec), planted.syllables, planted.syllables):
            problem = "element is not 2-torsion"
    rng.shuffle(tubes)
    rng.shuffle(discs)
    where = [f"double_tubes[{i}]" for i, t in enumerate(tubes) if t is planted]
    where += [f"sr_discs[{j}]" for j, d in enumerate(discs) if d is planted]
    return SRData(tuple(tubes), tuple(discs)), problem and f"{where[0]}: {problem}"


def test_normalize_matches_the_reference():
    rng = random.Random(703)
    for _ in range(CASES):
        spec = random_spec(rng)
        kernel = random_kernel(rng, spec) if rng.random() < 0.5 else TrivialKernel()
        manifold = ManifoldModel(spec, kernel)
        data, problem = random_hostile_srdata(rng, spec)
        got = outcome(normalize, data, manifold)
        if problem:
            assert got == (ValidationError, f"invalid disc data: {problem}"), data
        else:
            assert got[0] == "value" and plain_data(got[1]) == oracle.normal_form(*plain_data(data)), data


def wide_spec(rng: random.Random) -> GroupSpec:
    """One to three factors, finite ones of order below, at and above the shared range."""
    names = ("t", "a", "b")[: rng.randint(1, 3)]
    return GroupSpec(tuple(Factor(name, rng.choice((None, None, 2, 3, 16, 17, 18, 40))) for name in names))


def wide_syllables(rng: random.Random, spec: GroupSpec, max_syllables: int = 10) -> list:
    """(index, exponent) pairs, mostly |exponent| <= 20, some far past 16."""
    syllables = []
    for _ in range(rng.randint(0, max_syllables)):
        exp = rng.randint(-20, 20) if rng.random() < 0.9 else rng.choice((1, -1)) * rng.randint(17, 10**30)
        syllables.append((rng.randrange(len(spec.factors)), exp))
    return syllables


def spelled(spec: GroupSpec, syllables) -> str:
    """Text for the unreduced syllables, with the spacing the grammar allows."""
    names = [spec.factors[i].name if exp == 1 else f"{spec.factors[i].name} ^ {exp}" for i, exp in syllables]
    return " * ".join(names) or "1"


def assert_same(g: GroupElement, word: tuple) -> None:
    """g holds word, equals and hashes as the checking constructor's element, and prints and sorts as the oracle says."""
    ref = GroupElement(g.spec, word)
    assert g == ref and g.syllables == word and hash(g) == hash(ref), (g, word)
    assert str(g) == oracle.word_text(plain_spec(g.spec), word) and canonical_key(g) == oracle.key(word), (g, word)


def test_every_merge_path_matches_the_reference_inside_and_outside_the_shared_range():
    rng = random.Random(705)
    for _ in range(1500):
        spec = wide_spec(rng)
        plain = plain_spec(spec)
        syllables = wide_syllables(rng, spec)
        word = oracle.reduce_word(plain, syllables)
        named = [(spec.factors[i].name, exp) if rng.random() < 0.5 else (i, exp) for i, exp in syllables]
        for g in (parse_word(spelled(spec, syllables), spec), spec.element(syllables), spec.element(named)):
            assert_same(g, word)
        other_syllables = wide_syllables(rng, spec)
        h = spec.element(other_syllables)
        assert_same(spec.element(syllables) * h, oracle.product(plain, word, oracle.reduce_word(plain, other_syllables)))
        assert_same(h * ~h, ())
        assert_same(~spec.element(syllables), oracle.inverse(plain, word))
        n = rng.randint(-4, 4)
        base = word if n >= 0 else oracle.inverse(plain, word)
        assert_same(spec.element(syllables) ** n, oracle.reduce_word(plain, base * abs(n)))


def test_ring_expression_terms_match_the_reference():
    rng = random.Random(706)
    for _ in range(800):
        spec = wide_spec(rng)
        plain = plain_spec(spec)
        terms, count = [], rng.randint(1, 5)
        while len(terms) < count:
            syllables = wide_syllables(rng, spec)
            if oracle.reduce_word(plain, syllables):
                terms.append((rng.choice((1, -1)), rng.randint(1, 3), syllables))
        text = " ".join(f"{'-' if sign < 0 else '+'} {coeff}*{spelled(spec, syl)}" for sign, coeff, syl in terms)
        combined, _ = oracle.point_sum([(sign * coeff, oracle.reduce_word(plain, syl)) for sign, coeff, syl in terms])
        x = parse_ringexpr(text.removeprefix("+ "), spec)
        assert [c for _, c in x.terms] == [c for _, c in oracle.terms(combined)], text
        for (g, _), (word, _) in zip(x.terms, oracle.terms(combined)):
            assert_same(g, word)


SHARED = GroupSpec((Factor("t"), Factor("a", 2), Factor("b", 40)))


def small_syllables(spec: GroupSpec) -> dict:
    """Each syllable object with |exponent| <= 16, read off one-syllable words parsed one by one."""
    table = {}
    for f in spec.factors:
        for exp in range(-16, 17):
            g = parse_word(f"{f.name}^{exp}", spec)
            if g.syllables and abs(g.syllables[0][1]) <= 16:  # b^-1 reduces to b^39
                table[g.syllables[0]] = g.syllables[0]
    return table


def test_words_built_separately_share_their_small_syllables():
    table = small_syllables(SHARED)
    assert len(table) == 2 * 16 + 1 + 16  # t^-16..t^16, a, b^1..b^16 (b^-1 is b^39)
    g = parse_word("t^3*a*b^16*t^-16*b^-1", SHARED)
    h = parse_word("b^16 * t^-16 * a * t^3", SHARED)
    words = [g, h, g * h, ~g, g**3, g**-2, SHARED.element([("t", 2), ("t", 1), ("b", 8), ("a", 3)])]
    words += parse_ringexpr("2*t^3*a - b^7 + t^-16", SHARED).support()
    for word in words:
        for syllable in word.syllables:
            if syllable in table:
                assert syllable is table[syllable], (word, syllable)
    unshared = {s for w in words for s in w.syllables} - set(table)
    assert (2, 39) in unshared and all(abs(exp) > 16 for _, exp in unshared)  # b^-1 reduces to b^39


def test_an_exponent_outside_the_range_gets_its_own_pair_and_the_table_does_not_grow():
    text = "t^100000"
    first, second = parse_word(text, SHARED), parse_word(text, SHARED)
    assert str(first) == text and first == second and hash(first) == hash(second)
    assert first.syllables[0] is not second.syllables[0]
    for exp in (17, -17, 100000):  # built many times over, still one pair per word
        pairs = [parse_word(f"t^{exp}*a", SHARED).syllables[0] for _ in range(3)]
        pairs += [(SHARED.generator("t") ** exp).syllables[0] for _ in range(2)]
        assert len({id(p) for p in pairs}) == len(pairs) and len(set(pairs)) == 1
    b17 = [parse_word("b^17", SHARED).syllables[0] for _ in range(2)]  # past the range, below the order
    assert b17[0] == b17[1] and b17[0] is not b17[1]


def test_a_copied_or_unpickled_spec_builds_equal_shared_words():
    rng = random.Random(707)
    corpus = [wide_syllables(rng, SHARED) for _ in range(200)]
    for copied in (copy.deepcopy(SHARED), pickle.loads(pickle.dumps(SHARED))):
        assert copied == SHARED and hash(copied) == hash(SHARED) and str(copied) == str(SHARED)
        for syllables in corpus:
            g, shared = copied.element(syllables), SHARED.element(syllables)
            word = oracle.reduce_word(plain_spec(SHARED), syllables)
            assert_same(g, word)
            assert g == shared and hash(g) == hash(shared)
            assert_same(parse_word(spelled(copied, syllables), copied), word)
            assert_same(g * shared, oracle.product(plain_spec(SHARED), word, word))
        assert parse_word("t^3", copied).syllables[0] is parse_word("a*t^3", copied).syllables[1]
        assert pickle.loads(pickle.dumps(parse_word("t^3*b^9", SHARED))) == parse_word("t^3*b^9", copied)
        assert copied._spellings == SHARED._spellings
        assert_spellings_share_pairs(copied)


EDGES = GroupSpec((Factor("t"), Factor("a", 2), Factor("b", 3), Factor("c", 16), Factor("d", 17)))
# the table holds "x" and "x^e" for 1 <= |e| <= 16, e != 1; the rest are read by the split
EDGE_EXPONENTS = ("", "^16", "^-16", "^17", "^-17", "^1", "^+1", "^01", "^-0", "^0", "^-1", "^2", "^- 3", "^ +16", "^0016")


def edge_word(rng: random.Random) -> str:
    names = [f.name for f in EDGES.factors]
    pieces = [(rng.choice(names) if rng.random() > 0.03 else "z") + rng.choice(EDGE_EXPONENTS) for _ in range(rng.randint(1, 6))]
    return "".join(piece + rng.choice(("*", " * ", "*\t")) for piece in pieces[:-1]) + pieces[-1]


def test_parsers_match_the_reference_at_the_spelling_table_edges():
    rng = random.Random(708)
    for _ in range(CASES):
        word = edge_word(rng)
        got = outcome(parse_word, word, EDGES)
        assert got == outcome(reference_parse_word, word, EDGES), word
        if got[0] == "value":
            assert_same(parse_word(word, EDGES), got[1])
        terms = [f"{rng.choice(('+', '-'))} {rng.choice(('', '1*', '3*'))}{edge_word(rng)}" for _ in range(rng.randint(1, 4))]
        text = " ".join(terms).removeprefix("+ ")
        got, ref = outcome(parse_ringexpr, text, EDGES), outcome(reference_parse_ringexpr, text, EDGES)
        assert got == ref, text
        if got[0] == "value":  # equal elements: same terms and coefficients
            for (g, _), (ref_g, _) in zip(got[1].terms, ref[1].terms):
                assert_same(g, ref_g.syllables)


def assert_spellings_share_pairs(spec: GroupSpec) -> None:
    """Each table value is its spelling's raw pair, and _pairs' own tuple wherever _pairs has that pair."""
    shared = 0
    for spelling, pair in spec._spellings.items():
        name, _, exp = spelling.partition("^")
        assert pair == (spec.index_of(name), int(exp or 1)), spelling
        own = spec._pairs[pair[0]].get(pair[1])
        assert own is None or pair is own, spelling
        shared += own is not None
    assert shared == sum(map(len, spec._pairs))  # every pair _merge shares has its spelling


def test_the_spelling_table_holds_32_entries_per_factor_and_never_grows():
    spec = GroupSpec(EDGES.factors)  # built here, so only what this test decodes reaches it
    expected = {f.name if e == 1 else f"{f.name}^{e}" for f in spec.factors for e in range(-16, 17) if e}
    assert set(spec._spellings) == expected and len(spec._spellings) == 32 * len(spec.factors)
    before = dict(spec._spellings)
    for text in ("t^100000", "t^1", "t^+1", "t^01", "t^-0", "t^17", "t^-17", "d^17", "a^16*b^-16", "z", "t^1*z^2"):
        outcome(parse_word, text, spec)
        outcome(parse_ringexpr, f"2*{text} - t", spec)
    assert spec._spellings == before and all(spec._spellings[s] is before[s] for s in before)


def test_every_spelling_shares_the_merge_tables_pair():
    for spec in (EDGES, SHARED, GroupSpec(()), GroupSpec((Factor("x", 40), Factor("y")))):
        assert_spellings_share_pairs(spec)
