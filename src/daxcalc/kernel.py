"""Quotient reduction modulo the Dax kernel.

The invariant is only defined up to the image of the third homotopy group,
presented here in one of three ways: the zero subgroup, the inverse-pair
family w - w^-1, or an explicit finite generator list.  Reduction picks a
canonical coset representative so that equality in the quotient becomes
syntactic equality of reduced values.

Explicit generator lists are reduced through a Hermite normal form of the
generator matrix over the generators' support; coordinates at pivot
positions are brought into the box [0, pivot), and terms off that support
pass through unchanged.  The HNF inserts the generator rows one at a time
(Kannan-Bachem): a row that meets a pivot either loses a multiple of the
pivot row or takes part in a unimodular extended-gcd step, and every pivot
row so changed is at once re-reduced against the pivots to its right.
Without that re-reduction the unreduced pivot rows feed one another, the
entries grow far past the final form's, and a 40-generator HNF takes
seconds instead of milliseconds.  One helper does that re-reduction and
the closing pass over every row, and it shares one pivot step,
_reduce_by_pivots, with reduce.  Each pivot row is zero left of its pivot
column c, as is a row at its first nonzero column c, so every row operation
rewrites columns c.. only.  Infinite kernel families that do not follow
the inverse-pair pattern are out of scope.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import Collection, Iterable, Union

from .errors import ValidationError, _require, _require_iter
from .groups import _Value, canonical_key
from .ring import RingElement


class TrivialKernel(_Value):
    """Zero kernel: the quotient is the group ring itself."""

    def reduce(self, x: RingElement) -> RingElement:
        return _ring_value(x)

    def describe(self) -> str:
        return "trivial"


class InversePairsKernel(_Value):
    """Kernel generated by w - w^-1 for every nontrivial w.

    Each support element is folded onto the canonically smaller of {w, w^-1};
    2-torsion elements are their own inverse and stay put.
    """

    def reduce(self, x: RingElement) -> RingElement:
        folded = {}  # representative -> [its canonical key, summed coefficient]
        for g, c in _ring_value(x).items():  # min compares the elements only on a tie, where g == ~g
            key, rep = min((canonical_key(g), g), (canonical_key(inv := ~g), inv))
            folded.setdefault(rep, [key, 0])[1] += c
        return RingElement._trusted(x.spec, ((key, rep, c) for rep, (key, c) in folded.items()))

    def describe(self) -> str:
        return "inverse_pairs"


class ExplicitKernel(_Value):
    """Kernel presented by a finite list of nonzero generators."""

    _fields = ("generators",)

    def __init__(self, generators: tuple[RingElement, ...]) -> None:
        generators = tuple(_require_iter(generators, "generators must be an iterable of ring elements"))
        for i, gen in enumerate(generators):
            if not isinstance(gen, RingElement):
                raise ValidationError("kernel generator must be a ring element", f"generators[{i}]")
            if gen.is_zero:
                raise ValidationError("kernel generator must be nonzero", f"generators[{i}]")
        specs = {gen.spec for gen in generators}
        if len(specs) > 1:
            raise ValidationError("kernel generators must share one group spec")
        self._set(generators=generators)

    @cached_property
    def _lattice(self) -> tuple[list, dict, list[list[int]]]:
        """The generators' support in canonical order, its column index, and the generator rows."""
        basis = sorted({g for gen in self.generators for g in gen.support()}, key=canonical_key)
        index = {g: i for i, g in enumerate(basis)}
        rows = [[0] * len(basis) for _ in self.generators]
        for row, gen in zip(rows, self.generators):
            for g, c in gen.items():
                row[index[g]] = c
        return basis, index, rows

    def reduce(self, x: RingElement) -> RingElement:
        if not self.generators:
            return _ring_value(x)
        # the constructor guarantees that all generators share one spec
        if self.generators[0].spec != _ring_value(x).spec:
            raise ValidationError("kernel generators use a different group spec")
        basis, index, rows = self._lattice
        hnf, pivots = hermite_normal_form(rows)
        # every generator row is zero off the basis, so x's other terms stay as they are
        terms = dict(x.items())
        vec = [0] * len(basis)
        for g in terms.keys() & index.keys():
            vec[index[g]] = terms.pop(g)
        _reduce_by_pivots(vec, [(c, hnf[i]) for i, c in pivots])
        terms.update((basis[i], c) for i, c in enumerate(vec) if c)
        return RingElement._counted(x.spec, terms)

    def describe(self) -> str:
        return f"explicit ({len(self.generators)} generators)"


KernelSpec = Union[TrivialKernel, InversePairsKernel, ExplicitKernel]


def hermite_normal_form(rows: list[list[int]]) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Row-style HNF over the integers.

    Returns the reduced nonzero rows together with their (row, column) pivot
    positions.  Pivots are positive, strictly ordered by column, entries above
    a pivot lie in [0, pivot), and the rows span the same lattice as the input.
    """
    what = "rows must be integer lists"
    mat = [list(_require_iter(row, what)) for row in _require_iter(rows, what)]
    n_cols = len(mat[0]) if mat else 0
    if any(len(row) != n_cols or set(map(type, row)) - {int} for row in mat):  # bool and int subclasses too
        raise ValidationError(f"rows must be integer lists as long as rows[0] ({n_cols})")
    by_col: dict[int, list[int]] = {}  # the one pivot row of each pivot column
    for vec in mat:  # mat holds copies, so vec and the pivot rows change in place
        changed = []  # the pivot columns whose row this insertion added or replaced
        c = 0
        while c < n_cols:
            if not vec[c]:
                c += 1
            elif (row := by_col.get(c)) is None:
                by_col[c] = vec if vec[c] > 0 else vec[:c] + [-a for a in vec[c:]]
                changed.append(c)
                break
            elif vec[c] % row[c] == 0:
                q = vec[c] // row[c]
                vec[c:] = [x - q * y for x, y in zip(vec[c:], row[c:])]
            else:
                a, b = row[c], vec[c]
                g = gcd(a, b)
                a, b = a // g, b // g
                s = pow(a, -1, abs(b))  # s*a + t*b = 1, so det [[s, t], [b, -a]] = -1
                t = (1 - s * a) // b
                rt, vt = row[c:], vec[c:]
                row[c:] = [s * x + t * y for x, y in zip(rt, vt)]
                vec[c:] = [b * x - a * y for x, y in zip(rt, vt)]
                changed.append(c)
        _reduce_pivot_rows(by_col, changed)
    _reduce_pivot_rows(by_col, by_col)  # the closing pass: every row
    cols = sorted(by_col)
    return [by_col[c] for c in cols], list(enumerate(cols))


def _reduce_pivot_rows(by_col: dict[int, list[int]], cols: Collection[int]) -> None:
    """Reduce the pivot rows at cols, right to left, against the pivots to their right."""
    later: list[tuple[int, list[int]]] = []  # the pivots right of column d, rightmost first
    for d in sorted(by_col, reverse=True):
        if d in cols:  # each row is reduced by rows already reduced
            _reduce_by_pivots(by_col[d], reversed(later))
        later.append((d, by_col[d]))


def _reduce_by_pivots(vec: list[int], pivots: Iterable[tuple[int, list[int]]]) -> None:
    """Subtract (column, row) pivots from vec in place, in column order, until each pivot coordinate lies in [0, pivot).

    A pivot row is zero left of its column c, so each subtraction touches vec[c:] only.
    """
    for c, row in pivots:
        q = vec[c] // row[c]
        if q:
            vec[c:] = [a - q * b for a, b in zip(vec[c:], row[c:])]


def _ring_value(x: object, what: str = "reduced value") -> RingElement:
    """x, once it is known to be a RingElement."""
    return _require(x, RingElement, f"{what} must be a RingElement")


def equal_mod_kernel(x: RingElement, y: RingElement, kernel: KernelSpec) -> bool:
    """True iff x and y represent the same coset of the kernel."""
    if _ring_value(x, "compared value").spec != _ring_value(y, "compared value").spec:
        raise ValidationError("cannot compare ring elements over different group specs")
    return _require(kernel, KernelSpec, "kernel must be a kernel spec").reduce(x - y).is_zero
