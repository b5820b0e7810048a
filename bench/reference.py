"""Independent reference evaluator for checking daxcalc output.

Works on syllable lists as the generator makes them and never imports
daxcalc.  It re-implements, from the documented rules only, what the
benchmark needs to know the right answer in advance:

- reduced words in a free product of cyclic groups (merge equal adjacent
  factors, exponents modulo the factor order, drop zero syllables);
- the canonical order on reduced words: shorter first, then syllable by
  syllable on (factor index, |exponent|, positive before negative);
- the text forms of words, ring values, normal forms and verdict lines;
- phi for the trivial and the inverse-pairs kernel, normalization and the
  three-valued comparison.

A word is a tuple of (factor index, exponent) pairs; a ring value is a dict
from reduced nontrivial words to nonzero integers.
"""

from __future__ import annotations

import json
from collections import Counter


class Group:
    """Factor names and orders (None for an infinite cyclic factor)."""

    def __init__(self, factors):
        self.names = tuple(name for name, _ in factors)
        self.orders = tuple(order for _, order in factors)

    def to_json(self) -> dict:
        out = []
        for name, order in zip(self.names, self.orders):
            if order is None:
                out.append({"type": "Z", "name": name})
            else:
                out.append({"type": "Zn", "name": name, "n": order})
        return {"factors": out}

    def reduce(self, syllables) -> tuple:
        stack: list[tuple[int, int]] = []
        for index, exp in syllables:
            if stack and stack[-1][0] == index:
                exp += stack.pop()[1]
            order = self.orders[index]
            if order is not None:
                exp %= order
            if exp:
                stack.append((index, exp))
        return tuple(stack)

    def inverse(self, word: tuple) -> tuple:
        return self.reduce((index, -exp) for index, exp in reversed(word))

    def syllables_text(self, syllables) -> str:
        """Literal spelling of a (possibly unreduced) syllable list."""
        return "*".join(
            self.names[i] if e == 1 else f"{self.names[i]}^{e}" for i, e in syllables
        )

    def word_text(self, word: tuple) -> str:
        return self.syllables_text(word) if word else "1"

    def ring_text(self, value: dict) -> str:
        ordered = sorted((g for g, c in value.items() if c), key=key)
        return terms_text([(value[g], self.word_text(g)) for g in ordered])


def terms_text(terms) -> str:
    """Ring expression text of (coefficient, word text) terms, in the given order."""
    parts: list[str] = []
    for c, word in terms:
        body = word if abs(c) == 1 else f"{abs(c)}*{word}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts) if parts else "0"


def key(word: tuple):
    return (len(word), tuple((i, abs(e), 0 if e > 0 else 1) for i, e in word))


def add_into(total: dict, g: tuple, c: int) -> None:
    total[g] = total.get(g, 0) + c
    if total[g] == 0:
        del total[g]


def combine(*values: dict, scale=None) -> dict:
    """Sum of ring values, each multiplied by the matching entry of scale."""
    total: dict = {}
    for k, value in enumerate(values):
        factor = 1 if scale is None else scale[k]
        for g, c in value.items():
            add_into(total, g, factor * c)
    return total


def phi_raw(group: Group, tubes, discs) -> dict:
    """Sum of the tube elements and of sign * (g + g^-1) over the discs."""
    total: dict = {}
    for t in tubes:
        add_into(total, t, 1)
    for sign, g in discs:
        add_into(total, g, sign)
        add_into(total, group.inverse(g), sign)
    return total


def fold_inverse_pairs(group: Group, value: dict) -> dict:
    folded: dict = {}
    for g, c in value.items():
        inv = group.inverse(g)
        add_into(folded, inv if key(inv) < key(g) else g, c)
    return folded


def reduce_value(group: Group, kernel: str, value: dict) -> dict:
    if kernel == "trivial":
        return dict(value)
    if kernel == "inverse_pairs":
        return fold_inverse_pairs(group, value)
    raise ValueError(f"no reference reduction for kernel {kernel!r}")


def normal_form(tubes, discs) -> tuple[list, list]:
    """Merge tube pairs into +1 discs, cancel opposite discs, sort canonically."""
    tube_counts = Counter(tubes)
    net: Counter = Counter()
    for t, count in tube_counts.items():
        net[t] += count // 2
    for sign, g in discs:
        net[g] += sign
    out_tubes = sorted((t for t, count in tube_counts.items() if count % 2), key=key)
    out_discs = []
    for g in sorted((g for g, n in net.items() if n), key=key):
        out_discs.extend([(1 if net[g] > 0 else -1, g)] * abs(net[g]))
    return out_tubes, out_discs


def normal_form_json(group: Group, tubes, discs) -> str:
    nt, nd = normal_form(tubes, discs)
    doc = {
        "double_tubes": [group.word_text(t) for t in nt],
        "sr_discs": [{"sign": s, "word": group.word_text(g)} for s, g in nd],
    }
    return json.dumps(doc, separators=(", ", ": "))


def normal_form_certificate(group: Group, tubes, discs) -> str:
    nt, nd = normal_form(tubes, discs)
    tube_text = ", ".join(group.word_text(t) for t in nt)
    disc_text = ", ".join(f"{'+' if s > 0 else '-'}{group.word_text(g)}" for s, g in nd)
    return f"tubes [{tube_text}] discs [{disc_text}]"


def compare_line(group: Group, kernel: str, d1, d2) -> str:
    """Expected text line of compare(d1, d2); each disc is (tubes, discs)."""
    if normal_form(*d1) == normal_form(*d2):
        return f"ISOTOPIC  certificate: {normal_form_certificate(group, *d1)}"
    v1 = reduce_value(group, kernel, phi_raw(group, *d1))
    v2 = reduce_value(group, kernel, phi_raw(group, *d2))
    difference = reduce_value(group, kernel, combine(v1, v2, scale=(1, -1)))
    if difference:
        return f"NOT_ISOTOPIC  certificate: {group.ring_text(difference)}"
    return f"UNKNOWN  certificate: {group.ring_text(v1)}"
