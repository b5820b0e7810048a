"""Quotient reduction modulo the Dax kernel.

The invariant is only defined up to the image of the third homotopy group,
presented here in one of three ways: the zero subgroup, the inverse-pair
family w - w^-1, or an explicit finite generator list.  Reduction picks a
canonical coset representative so that equality in the quotient becomes
syntactic equality of reduced values.

Explicit generator lists are reduced through a Hermite normal form of the
generator matrix over the generators' support; coordinates at pivot
positions are brought into the box [0, pivot), and terms off that support
pass through unchanged.  Infinite kernel families that do not follow the
inverse-pair pattern are out of scope.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Union

from .errors import ValidationError
from .groups import canonical_key
from .ring import RingElement


@dataclass(frozen=True)
class TrivialKernel:
    """Zero kernel: the quotient is the group ring itself."""

    def reduce(self, x: RingElement) -> RingElement:
        return x

    def describe(self) -> str:
        return "trivial"


@dataclass(frozen=True)
class InversePairsKernel:
    """Kernel generated by w - w^-1 for every nontrivial w.

    Each support element is folded onto the canonically smaller of {w, w^-1};
    2-torsion elements are their own inverse and stay put.
    """

    def reduce(self, x: RingElement) -> RingElement:
        folded = Counter()
        for g, c in x.items():
            folded[min(g, ~g, key=canonical_key)] += c
        return RingElement.from_mapping(x.spec, folded)

    def describe(self) -> str:
        return "inverse_pairs"


@dataclass(frozen=True)
class ExplicitKernel:
    """Kernel presented by a finite list of nonzero generators."""

    generators: tuple[RingElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for i, gen in enumerate(self.generators):
            if gen.is_zero:
                raise ValidationError(f"generators[{i}]: kernel generator must be nonzero")
        specs = {gen.spec for gen in self.generators}
        if len(specs) > 1:
            raise ValidationError("kernel generators must share one group spec")

    def reduce(self, x: RingElement) -> RingElement:
        if not self.generators:
            return x
        # __post_init__ guarantees that all generators share one spec
        if self.generators[0].spec != x.spec:
            raise ValidationError("kernel generators use a different group spec")
        basis = sorted({g for gen in self.generators for g in gen.support()}, key=canonical_key)
        index = {g: i for i, g in enumerate(basis)}
        rows = [[0] * len(basis) for _ in self.generators]
        for row, gen in zip(rows, self.generators):
            for g, c in gen.items():
                row[index[g]] = c
        hnf, pivots = hermite_normal_form(rows)
        # every generator row is zero off the basis, so x's other terms stay as they are
        terms = dict(x.items())
        vec = [0] * len(basis)
        for g in terms.keys() & index.keys():
            vec[index[g]] = terms.pop(g)
        for ri, ci in pivots:
            q = vec[ci] // hnf[ri][ci]
            if q:
                vec = [a - q * b for a, b in zip(vec, hnf[ri])]
        terms.update((basis[i], c) for i, c in enumerate(vec) if c)
        return RingElement.from_mapping(x.spec, terms)

    def describe(self) -> str:
        return f"explicit ({len(self.generators)} generators)"


KernelSpec = Union[TrivialKernel, InversePairsKernel, ExplicitKernel]


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
        # Euclidean elimination below row r until at most one nonzero remains;
        # a row that is zero in column c stays zero, so live only narrows.
        live = [i for i in range(r, len(mat)) if mat[i][c] != 0]
        while len(live) > 1:
            i0 = min(live, key=lambda i: abs(mat[i][c]))
            for i in live:
                if i != i0:  # |mat[i][c]| >= |mat[i0][c]|, so the quotient is nonzero
                    q = mat[i][c] // mat[i0][c]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[i0])]
            live = [i for i in live if mat[i][c] != 0]
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


def equal_mod_kernel(x: RingElement, y: RingElement, kernel: KernelSpec) -> bool:
    """True iff x and y represent the same coset of the kernel."""
    if x.spec != y.spec:
        raise ValidationError("cannot compare ring elements over different group specs")
    return kernel.reduce(x - y).is_zero
