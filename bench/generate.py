"""Seeded session generator for the daxcalc benchmark.

Each workload is one `daxcalc run` session: a manifold, named discs and a
fixed query stream.  The same seed gives byte-identical session text.  Along
with the session the generator returns one expectation per query, planted
or computed by reference.py from the generator's own syllable lists:

    ("line", text)   the query must print exactly this line
    ("same", j)      the query must print the same line as query j

Why these three workloads:

- large_discs: phi over a trivial kernel on discs from 16 to 400 sr_discs on
  a geometric ladder.  Ring accumulation in phi is nearly all the work, the
  kernel does none, and every disc is used by several queries, so per-session
  memoization and a linear ring sum both show here.
- explicit_kernel: tiny discs over an explicit 40-generator kernel.  The
  Hermite normal form recomputed on every reduce is nearly all the work and
  ring accumulation is negligible, so a cached lattice shows here and a ring
  change does not.
- long_words: 1500 small discs and 500 point lists and ring expressions with
  10-40 syllable words over an inverse-pairs kernel.  Decoding (JSON, word
  parsing, word reduction) is most of the time, phi never runs and nothing is
  reused, so memoization and ring changes should show no change here.

The explicit kernel's generator matrix is made from a fixed seed, and only
the discs and queries come from the workload seed: the cost of the naive
HNF differs by about 25% between random 40x48 lattices, which would drown
any change in seed-to-seed spread.

Run as a script to write a session and its expectations:

    python3 bench/generate.py --workload large_discs --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

from reference import (
    Group,
    combine,
    compare_line,
    fold_inverse_pairs,
    key,
    normal_form_json,
    phi_raw,
    terms_text,
)

# (sr_discs per disc, base discs at that size) on a ratio-1.6 ladder
LARGE_LADDER = ((16, 8), (25, 7), (40, 6), (64, 5), (100, 5), (160, 2), (256, 1), (400, 1))
# discs this large skip the UNKNOWN compare, which keeps a pass near 4 s
LARGE_NO_SWAP = 256
KERNEL_SEED = 2006  # the lattice does not follow the workload seed; see above
KERNEL_GENERATORS = 40
KERNEL_SUPPORT = 48
KERNEL_TERMS = 6


@dataclass
class Workload:
    name: str
    session_text: str
    expect: list


def loose_word(rng: random.Random, group: Group, max_syllables: int = 4) -> tuple:
    """A random nontrivial element from up to max_syllables random syllables."""
    while True:
        raw = []
        for _ in range(rng.randint(1, max_syllables)):
            index = rng.randrange(len(group.orders))
            raw.append((index, rng.choice((-3, -2, -1, 1, 2, 3))))
        word = group.reduce(raw)
        if word:
            return word


def exact_word(rng: random.Random, group: Group, length: int) -> tuple:
    """A random reduced word with exactly `length` syllables."""
    word = []
    prev = None
    for _ in range(length):
        index = rng.choice([i for i in range(len(group.orders)) if i != prev])
        order = group.orders[index]
        exp = rng.choice((-3, -2, -1, 1, 2, 3)) if order is None else rng.randint(1, order - 1)
        word.append((index, exp))
        prev = index
    return tuple(word)


def involution(rng: random.Random, group: Group, conj_syllables: int) -> tuple:
    """A conjugate w a w^-1 of the order-2 factor: a nontrivial 2-torsion element."""
    core = ((group.orders.index(2), 1),)
    w = exact_word(rng, group, conj_syllables)
    return group.reduce(w + core + group.inverse(w))


def spell(rng: random.Random, group: Group, word: tuple) -> str:
    """An unreduced spelling of word: shifted finite exponents, split powers."""
    if not word:
        return "1"
    raw = []
    for index, exp in word:
        order = group.orders[index]
        if order is not None:
            raw.append((index, exp + order * rng.choice((-1, 0, 0, 1))))
        elif abs(exp) >= 2 and rng.random() < 0.3:
            step = 1 if exp > 0 else -1
            raw.extend(((index, exp - step), (index, step)))
        else:
            raw.append((index, exp))
    return group.syllables_text(raw)


class _Builder:
    """Collects discs and queries; words render canonically unless a speller is set."""

    def __init__(self, group: Group, manifold, speller=None):
        self.group = group
        self.manifold = manifold
        self.speller = speller
        self.discs: dict[str, dict] = {}
        self.data: dict[str, tuple] = {}
        self.queries: list[tuple[dict, object]] = []

    def text(self, word: tuple) -> str:
        return self.speller(word) if self.speller else self.group.word_text(word)

    def disc(self, name: str, tubes, discs) -> str:
        self.data[name] = (list(tubes), list(discs))
        self.discs[name] = {
            "double_tubes": [self.text(t) for t in tubes],
            "sr_discs": [{"sign": s, "word": self.text(g)} for s, g in discs],
        }
        return name

    def query(self, obj: dict, expect) -> None:
        self.queries.append((obj, expect))

    def same_pair(self, first: dict, second: dict) -> None:
        """Two queries that must print the same line."""
        n = len(self.queries)
        self.queries += [(first, ("same", n + 1)), (second, ("same", n))]

    def build(self, name: str, rng: random.Random) -> Workload:
        """Shuffle the query stream and resolve ("same", id) to final positions."""
        order = list(range(len(self.queries)))
        rng.shuffle(order)
        position = {old: new for new, old in enumerate(order)}
        expect = []
        for old in order:
            exp = self.queries[old][1]
            expect.append(("same", position[exp[1]]) if exp[0] == "same" else exp)
        document = {
            "manifold": self.manifold,
            "discs": self.discs,
            "queries": [self.queries[old][0] for old in order],
        }
        return Workload(name, json.dumps(document), expect)


def _iso_move(rng: random.Random, tubes, discs, pairs: int, word):
    """An isotopic presentation: merge one tube pair, add cancelling pairs, shuffle."""
    tubes = list(tubes)
    discs = list(discs)
    for t in tubes:
        if tubes.count(t) >= 2:
            tubes.remove(t)
            tubes.remove(t)
            discs.append((1, t))
            break
    for _ in range(pairs):
        g = word()
        discs.insert(rng.randrange(len(discs) + 1), (1, g))
        discs.insert(rng.randrange(len(discs) + 1), (-1, g))
    rng.shuffle(tubes)
    rng.shuffle(discs)
    return tubes, discs


def large_discs(seed: int, ladder=LARGE_LADDER) -> Workload:
    rng = random.Random(seed)
    group = Group((("x", None), ("y", None), ("a", 2)))
    manifold = {"group": group.to_json(), "dax_kernel": {"preset": "trivial"}}
    b = _Builder(group, manifold)

    def word():
        return loose_word(rng, group)

    def verdict(first, second):
        return ("line", compare_line(group, "trivial", b.data[first], b.data[second]))

    for size, count in ladder:
        for k in range(count):
            t1, t2 = involution(rng, group, 1), involution(rng, group, 2)
            tubes = [t1, t2, t2]
            discs = [(rng.choice((1, -1)), word()) for _ in range(size)]
            d = b.disc(f"d{size}_{k}", tubes, discs)
            iso = b.disc(f"d{size}_{k}_iso", *_iso_move(rng, tubes, discs, size // 8 + 1, word))
            extra = list(discs)
            extra.insert(rng.randrange(size + 1), (rng.choice((1, -1)), word()))
            plus = b.disc(f"d{size}_{k}_plus", tubes, extra)
            pairs = [(d, iso), (d, plus)]
            if size < LARGE_NO_SWAP:
                j = next(i for i, (_, g) in enumerate(discs) if group.inverse(g) != g)
                swapped = list(discs)
                swapped[j] = (discs[j][0], group.inverse(discs[j][1]))
                pairs.append((b.disc(f"d{size}_{k}_swap", tubes, swapped), d))
            b.query({"kind": "invariant", "disc": d}, ("line", group.ring_text(phi_raw(group, tubes, discs))))
            for pair in pairs:
                b.query({"kind": "compare", "discs": list(pair)}, verdict(*pair))
    return b.build("large_discs", rng)


def explicit_lattice(group: Group) -> tuple[list[tuple], list[dict]]:
    """The fixed kernel: support words of 1-3 syllables and sparse generators."""
    rng = random.Random(KERNEL_SEED)
    support: set = set()
    while len(support) < KERNEL_SUPPORT:
        support.add(exact_word(rng, group, rng.randint(1, 3)))
    support = sorted(support, key=key)
    coeffs = [c for c in range(-9, 10) if c]
    generators = []
    for _ in range(KERNEL_GENERATORS):
        generators.append({g: rng.choice(coeffs) for g in rng.sample(support, KERNEL_TERMS)})
    return support, generators


def explicit_kernel(seed: int, n_discs: int = 30, n_reduce_pairs: int = 50) -> Workload:
    rng = random.Random(seed)
    group = Group((("a", 2), ("b", 3), ("t", None)))
    support, generators = explicit_lattice(group)
    manifold = {
        "group": group.to_json(),
        "dax_kernel": {"generators": [group.ring_text(g) for g in generators]},
        "label": "explicit kernel, 40 generators",
    }
    b = _Builder(group, manifold)

    def outside():
        # words of 4+ syllables: neither they nor their inverses are in the support
        return exact_word(rng, group, rng.randint(4, 5))

    def outside_tube():
        while True:
            t = involution(rng, group, 2)
            if len(t) >= 4:
                return t

    for k in range(n_discs):
        only_outside = k % 3 == 0
        inside = outside if only_outside else lambda: rng.choice(support)
        tube = outside_tube() if only_outside or k % 2 else involution(rng, group, 1)
        tubes = [tube, tube]
        discs = [(rng.choice((1, -1)), inside() if i % 2 else outside()) for i in range(rng.randint(3, 5))]
        d = b.disc(f"e{k}", tubes, discs)
        iso_data = _iso_move(rng, tubes, discs, 1, inside)
        iso = b.disc(f"e{k}_iso", *iso_data)
        if only_outside:
            value = group.ring_text(phi_raw(group, tubes, discs))
            b.query({"kind": "invariant", "disc": d}, ("line", value))
            b.query({"kind": "invariant", "disc": iso}, ("line", value))
        else:
            b.same_pair({"kind": "invariant", "disc": d}, {"kind": "invariant", "disc": iso})
        if k < 2 * n_discs // 3:
            # equal normal forms decide before the kernel is consulted
            expected = compare_line(group, "trivial", b.data[d], b.data[iso])
            b.query({"kind": "compare", "discs": [d, iso]}, ("line", expected))
        # one more disc outside the support: reduction leaves the difference as it is
        h = outside()
        sign = rng.choice((1, -1))
        extra = list(discs)
        extra.insert(rng.randrange(len(extra) + 1), (sign, h))
        plus = b.disc(f"e{k}_plus", tubes, extra)
        certificate = group.ring_text(phi_raw(group, [], [(-sign, h)]))
        b.query({"kind": "compare", "discs": [d, plus]}, ("line", f"NOT_ISOTOPIC  certificate: {certificate}"))

    for _ in range(n_reduce_pairs):
        x: dict = {}
        for g in rng.sample(support, rng.randint(3, 6)):
            x[g] = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
        if rng.random() < 0.5:
            x[outside()] = rng.choice((-2, -1, 1, 2))
        picks = rng.sample(range(len(generators)), 2)
        scale = (1, rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((-3, -2, -1, 1, 2, 3)))
        shifted = combine(x, *(generators[i] for i in picks), scale=scale)
        b.same_pair(
            {"kind": "reduce", "element": group.ring_text(x)},
            {"kind": "reduce", "element": group.ring_text(shifted)},
        )
    return b.build("explicit_kernel", rng)


def long_words(seed: int, n_discs: int = 1500, n_pairing: int = 250, n_reduce: int = 250) -> Workload:
    rng = random.Random(seed)
    group = Group((("x", None), ("y", None), ("a", 2), ("b", 3)))
    manifold = {"group": group.to_json(), "dax_kernel": {"preset": "inverse_pairs"}}
    b = _Builder(group, manifold, speller=lambda w: spell(rng, group, w))

    def word():
        return exact_word(rng, group, rng.randint(10, 40))

    for k in range(n_discs):
        discs = [(rng.choice((1, -1)), word()) for _ in range(5)]
        g = word()
        discs += [(1, g), (-1, g), rng.choice(discs)]
        rng.shuffle(discs)
        tube = involution(rng, group, rng.randint(5, 19))
        tubes = [tube, tube] if k % 2 else []
        d = b.disc(f"w{k}", tubes, discs)
        b.query({"kind": "normalize", "disc": d}, ("line", normal_form_json(group, tubes, discs)))

    for _ in range(n_pairing):
        points = [(rng.choice((1, -1)), word()) for _ in range(5)]
        sign, g = rng.choice(points)
        points += [(-sign, g), (1, ()), (-1, ())]
        rng.shuffle(points)
        value = combine(*({g: s} for s, g in points if g))
        obj = [{"sign": s, "word": b.text(g)} for s, g in points]
        b.query({"kind": "pairing", "points": obj}, ("line", group.ring_text(value)))

    coeffs = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
    for _ in range(n_reduce):
        words = [word() for _ in range(6)]
        words += [group.inverse(words[0]), group.inverse(words[1])]
        terms = [(rng.choice(coeffs), w) for w in words]
        rng.shuffle(terms)
        value = fold_inverse_pairs(group, combine(*({w: c} for c, w in terms)))
        text = terms_text([(c, b.text(w)) for c, w in terms])
        b.query({"kind": "reduce", "element": text}, ("line", group.ring_text(value)))
    return b.build("long_words", rng)


GENERATORS = {"large_discs": large_discs, "explicit_kernel": explicit_kernel, "long_words": long_words}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> Workload:
    return GENERATORS[workload](seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory to write into")
    args = parser.parse_args(argv)
    work = generate(args.workload, args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{work.name}-{args.seed}.session.json").write_text(work.session_text)
    (args.out / f"{work.name}-{args.seed}.expect.json").write_text(json.dumps(work.expect))
    return 0


if __name__ == "__main__":
    sys.exit(main())
