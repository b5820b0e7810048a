"""Built-in manifold models.

Three presets cover the worked examples: the boundary connect sum of
S^2 x D^2 and S^1 x B^3 (infinite cyclic group, zero kernel), the interior
connect sum of the same pieces (infinite cyclic group, inverse-pair kernel),
and a simply connected manifold (trivial group, zero kernel).  Kernels for
other manifolds are supplied by the user as explicit generator lists.
"""

from __future__ import annotations

from .errors import ValidationError
from .forms import ManifoldModel
from .groups import Factor, GroupSpec
from .kernel import InversePairsKernel, TrivialKernel

_T = GroupSpec((Factor("t"),))  # infinite cyclic, generated by t
_PIECES = "S^2 x D^2 and S^1 x B^3"

_PRESETS = {
    "boundary_connect_sum": ManifoldModel(_T, TrivialKernel(), f"boundary connect sum of {_PIECES}"),
    "connect_sum": ManifoldModel(_T, InversePairsKernel(), f"connect sum of {_PIECES}"),
    "simply_connected": ManifoldModel(GroupSpec(), TrivialKernel(), "simply connected manifold"),
}

PRESET_IDS = tuple(_PRESETS)


def instantiate(preset_id: str) -> ManifoldModel:
    """The preset's model; models are frozen, so every call shares one object."""
    try:
        return _PRESETS[preset_id]
    except (KeyError, TypeError):
        raise ValidationError(
            f"unknown preset {preset_id!r}; available: {', '.join(PRESET_IDS)}"
        ) from None
