"""An independent oracle for the calculator's values, on plain tuples.

It imports only the standard library and works from the documented rules,
so it shares no code with daxcalc or the test helpers.  A spec is a tuple
of (name, order) pairs, order None for an infinite cyclic factor; a word is
a tuple of (factor index, exponent) pairs; a ring value is a dict from
words to ints.  The oracle decides values and verdicts only: it checks no
input, and each test derives the error that a fault it plants calls for.
"""

from __future__ import annotations

from collections import Counter


def reduce_word(spec, syllables) -> tuple:
    """Rewrite exponents modulo the order, drop zero syllables and merge equal adjacent factors until none applies."""
    word = list(syllables)
    while True:
        word = [(i, e % spec[i][1] if spec[i][1] else e) for i, e in word]
        word = [(i, e) for i, e in word if e]
        j = next((j for j in range(len(word) - 1) if word[j][0] == word[j + 1][0]), None)
        if j is None:
            return tuple(word)
        word[j : j + 2] = [(word[j][0], word[j][1] + word[j + 1][1])]


def inverse(spec, word) -> tuple:
    return reduce_word(spec, [(i, -e) for i, e in reversed(word)])


def product(spec, a, b) -> tuple:
    return reduce_word(spec, tuple(a) + tuple(b))


def key(word) -> tuple:
    """The canonical order: shorter first, then syllable by syllable on (index, |exponent|, positive before negative)."""
    return len(word), tuple((i, abs(e), 0 if e > 0 else 1) for i, e in word)


def terms(value) -> list:
    """The nonzero (word, coefficient) terms of a ring value, in canonical order."""
    return sorted(((w, c) for w, c in value.items() if c), key=lambda term: key(term[0]))


def word_text(spec, word) -> str:
    return "*".join(spec[i][0] if e == 1 else f"{spec[i][0]}^{e}" for i, e in word) or "1"


def ring_text(spec, value) -> str:
    parts = []
    for w, c in terms(value):
        body = word_text(spec, w) if abs(c) == 1 else f"{abs(c)}*{word_text(spec, w)}"
        parts.append(("-" if c < 0 else "") + body if not parts else f"{'-' if c < 0 else '+'} {body}")
    return " ".join(parts) or "0"


def dax_sum(spec, g, sign) -> dict:
    """sign*(g + g^-1); 2*sign*g when g is its own inverse."""
    total = Counter({g: sign})
    total[inverse(spec, g)] += sign
    return dict(total)


def phi_sum(spec, tubes, discs) -> dict:
    """The unreduced phi: each tube once, plus dax_sum for each (sign, word) disc."""
    total = Counter(tubes)
    for sign, g in discs:
        total.update(dax_sum(spec, g, sign))
    return dict(total)


def point_sum(points) -> tuple[dict, int]:
    """The sum of the (sign or coefficient, word) points with a nontrivial word, and the number of identity words left out."""
    total = Counter()
    for c, loop in points:
        if loop:
            total[loop] += c
    return dict(total), sum(1 for _, loop in points if not loop)


def explicit_reduce(generators, value) -> dict:
    """value modulo the generators' span: a Euclidean HNF, unlike kernel.py's row insertion, over all their words."""
    basis = sorted(set(value).union(*generators), key=key)
    hnf, pivots = hermite_normal_form([[gen.get(w, 0) for w in basis] for gen in generators])
    vec = [value.get(w, 0) for w in basis]
    for r, c in pivots:
        q = vec[c] // hnf[r][c]
        vec = [a - q * b for a, b in zip(vec, hnf[r])]
    return dict(terms(dict(zip(basis, vec))))


def reduce(spec, kernel, value) -> dict:
    """The coset representative: "inverse_pairs" folds each word onto min(w, w^-1), else kernel is the generators, none if trivial."""
    if kernel != "inverse_pairs":
        return explicit_reduce(kernel, value)
    total = Counter()
    for w, c in value.items():
        total[min(w, inverse(spec, w), key=key)] += c
    return dict(terms(total))


def normal_form(tubes, discs) -> tuple[tuple, tuple]:
    """The tubes left once equal pairs merge into +1 discs, and one disc per unit of each word's net sign; both sorted."""
    counts = Counter(tubes)
    net = Counter({t: n // 2 for t, n in counts.items()})
    for sign, g in discs:
        net[g] += sign
    odd = sorted((t for t, n in counts.items() if n % 2), key=key)
    signed = [(1 if net[g] > 0 else -1, g) for g in sorted(net, key=key) for _ in range(abs(net[g]))]
    return tuple(odd), tuple(signed)


def compare(spec, kernel, d1, d2) -> tuple[str, str, str]:
    """The verdict's (outcome, certificate, rule) for two (tubes, discs) presentations."""
    if not spec:
        return "ISOTOPIC", "pi1(M) = 1", "pi1-trivial"
    n1 = normal_form(*d1)
    if n1 == normal_form(*d2):
        tubes = ", ".join(word_text(spec, t) for t in n1[0])
        discs = ", ".join(("+" if s > 0 else "-") + word_text(spec, g) for s, g in n1[1])
        return "ISOTOPIC", f"tubes [{tubes}] discs [{discs}]", "equal-normal-form"
    v1, v2 = phi_sum(spec, *d1), phi_sum(spec, *d2)
    difference = reduce(spec, kernel, {w: v1.get(w, 0) - v2.get(w, 0) for w in v1.keys() | v2.keys()})
    if not difference:
        return "UNKNOWN", ring_text(spec, reduce(spec, kernel, v1)), "phi-coincide"
    return "NOT_ISOTOPIC", ring_text(spec, difference), "phi-difference"


def hermite_normal_form(rows: list[list[int]]) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Row-style HNF over the integers.

    Returns the reduced nonzero rows together with their (row, column) pivot
    positions.  Pivots are positive, strictly ordered by column, entries above
    a pivot lie in [0, pivot), and the rows span the same lattice as the input.
    """
    mat = [list(row) for row in rows]
    n_cols = len(mat[0]) if mat else 0
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n_cols):
        # Euclidean elimination below row r until at most one nonzero remains.
        while True:
            live = [i for i in range(r, len(mat)) if mat[i][c] != 0]
            if len(live) <= 1:
                break
            i0 = min(live, key=lambda i: abs(mat[i][c]))
            for i in live:
                if i == i0:
                    continue
                q = mat[i][c] // mat[i0][c]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[i0])]
        live = [i for i in range(r, len(mat)) if mat[i][c] != 0]
        if not live:
            continue
        i0 = live[0]
        mat[r], mat[i0] = mat[i0], mat[r]
        if mat[r][c] < 0:
            mat[r] = [-a for a in mat[r]]
        for i in range(r):
            q = mat[i][c] // mat[r][c]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
        pivots.append((r, c))
        r += 1
    return mat[:r], pivots
