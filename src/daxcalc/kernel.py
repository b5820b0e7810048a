"""Quotient reduction modulo the Dax kernel.

The invariant is only defined up to the image of the third homotopy group,
presented here in one of three ways: the zero subgroup, the inverse-pair
family w - w^-1, or an explicit finite generator list.  Reduction picks a
canonical coset representative so that equality in the quotient becomes
syntactic equality of reduced values.

Explicit generator lists are reduced through a Hermite normal form of the
generator matrix over the finite support involved; coordinates at pivot
positions are brought into the box [0, pivot).  Infinite kernel families that
do not follow the inverse-pair pattern are out of scope.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Union

from .errors import ValidationError
from .groups import GroupSpec, canonical_key
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
        support = {g for g, _ in x.items()}
        for gen in self.generators:
            support.update(gen.support())
        basis = sorted(support, key=canonical_key)
        index = {g: i for i, g in enumerate(basis)}
        rows = []
        for gen in self.generators:
            row = [0] * len(basis)
            for g, c in gen.items():
                row[index[g]] = c
            rows.append(row)
        hnf, pivots = hermite_normal_form(rows)
        vec = [0] * len(basis)
        for g, c in x.items():
            vec[index[g]] = c
        for ri, ci in pivots:
            pivot = hnf[ri][ci]
            q = vec[ci] // pivot
            if q:
                vec = [a - q * b for a, b in zip(vec, hnf[ri])]
        return RingElement.from_mapping(
            x.spec, {basis[i]: c for i, c in enumerate(vec) if c != 0}
        )

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


def equal_mod_kernel(x: RingElement, y: RingElement, kernel: KernelSpec) -> bool:
    """True iff x and y represent the same coset of the kernel."""
    if x.spec != y.spec:
        raise ValidationError("cannot compare ring elements over different group specs")
    return kernel.reduce(x - y).is_zero
