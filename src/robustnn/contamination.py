"""Training-set contamination generators.

All generators return fresh copies and touch training data only; replaced
values are drawn from Normal(mu_out, out_sd^2) per the replacement-outlier
convention. The adaptive attacker rewrites its responses between epochs
using the model's own predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._spec import set_members
from .datagen import Dataset


class ContaminationKind(str, Enum):
    NONE = "none"
    Y_CONVEX = "y-convex"
    X_CASEWISE = "x-casewise"
    XY_CELLWISE = "xy-cellwise"
    Y_ITERATIVE = "y-iterative"


@dataclass(frozen=True)
class ContaminationSpec:
    kind: ContaminationKind
    r: float = 0.0
    mu_out: float = 10.0
    out_sd: float = 1.0

    def __post_init__(self):
        set_members(self, kind=ContaminationKind)
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {self.r}")
        if not self.out_sd > 0:
            raise ValueError(f"out_sd must be positive, got {self.out_sd}")
        # the adaptive attacker's offset bound
        if self.kind == ContaminationKind.Y_ITERATIVE and not self.mu_out > 0:
            raise ValueError(f"mu_out must be positive for {self.kind.value}, got {self.mu_out}")


def contamination_count(r: float, n: int) -> int:
    """ceil(r * n) with a snap to the nearest integer so decimal radii whose
    float product lands epsilon above an integer do not over-count."""
    x = r * n
    nearest = round(x)
    if abs(x - nearest) < 1e-9:
        return int(nearest)
    return int(math.ceil(x))


def contaminate_y(data: Dataset, spec: ContaminationSpec, rng: np.random.Generator) -> Dataset:
    """Replace ceil(r*n) randomly chosen responses by Normal(mu_out, sd^2) draws."""
    if spec.kind != ContaminationKind.Y_CONVEX:
        raise ValueError(f"contaminate_y got kind {spec.kind!r}")
    out = data.copy()
    m = contamination_count(spec.r, out.n)
    if m > 0:
        rows = rng.choice(out.n, size=m, replace=False)
        out.Y[rows] = rng.normal(spec.mu_out, spec.out_sd, size=m)
    return out


def contaminate_x_casewise(data: Dataset, spec: ContaminationSpec,
                           rng: np.random.Generator) -> Dataset:
    """Replace ceil(r*n) full predictor rows by Normal_p(mu_out*1, I) draws."""
    if spec.kind != ContaminationKind.X_CASEWISE:
        raise ValueError(f"contaminate_x_casewise got kind {spec.kind!r}")
    out = data.copy()
    m = contamination_count(spec.r, out.n)
    if m > 0:
        rows = rng.choice(out.n, size=m, replace=False)
        out.X[rows] = rng.normal(spec.mu_out, spec.out_sd, size=(m, out.p))
    return out


def contaminate_cellwise(data: Dataset, spec: ContaminationSpec,
                         rng: np.random.Generator) -> Dataset:
    """Replace ceil(r*n*(p+1)) distinct cells of the augmented (X|Y) matrix."""
    if spec.kind != ContaminationKind.XY_CELLWISE:
        raise ValueError(f"contaminate_cellwise got kind {spec.kind!r}")
    out = data.copy()
    n, p = out.n, out.p
    m = contamination_count(spec.r, n * (p + 1))
    if m > 0:
        cells = rng.choice(n * (p + 1), size=m, replace=False)
        values = rng.normal(spec.mu_out, spec.out_sd, size=m)
        rows = cells // (p + 1)
        cols = cells % (p + 1)
        in_x = cols < p
        out.X[rows[in_x], cols[in_x]] = values[in_x]
        out.Y[rows[~in_x]] = values[~in_x]
    return out


def apply_contamination(data: Dataset, spec: ContaminationSpec,
                        rng: np.random.Generator) -> Dataset:
    """Dispatch on the contamination kind; none and the iterative attacker
    (which acts during training, not up front) return an untouched copy."""
    if spec.kind in (ContaminationKind.NONE, ContaminationKind.Y_ITERATIVE):
        return data.copy()
    if spec.kind == ContaminationKind.Y_CONVEX:
        return contaminate_y(data, spec, rng)
    if spec.kind == ContaminationKind.X_CASEWISE:
        return contaminate_x_casewise(data, spec, rng)
    return contaminate_cellwise(data, spec, rng)


ATTACK_OFFSET_FLOOR = 1e-12


def _attack_offset(current_losses, eps: float) -> float:
    """The attacker's offset above the prediction for one epoch's losses.

    Each attacked response is set slightly above its current prediction so
    that its squared loss stays strictly below the (n/2+1)-th smallest loss
    of the epoch: offset = min(eps, 0.99 * sqrt(L_(n/2+1))), floored at a
    tiny positive value when that order statistic is 0. The residual of an
    attacked instance is therefore always positive.
    """
    current_losses = np.asarray(current_losses, dtype=np.float64)
    k = current_losses.shape[0] // 2
    # (n/2+1)-th order statistic, 1-based: index n//2 in sorted order
    bound = float(np.partition(current_losses, k)[k])
    offset = min(eps, 0.99 * math.sqrt(max(bound, 0.0)))
    if offset <= 0.0:
        offset = ATTACK_OFFSET_FLOOR
    return offset


def choose_attacked_indices(n: int, rng: np.random.Generator) -> np.ndarray:
    """Pick the attacker's n/2 target rows once, before training."""
    return np.sort(rng.choice(n, size=n // 2, replace=False))


def make_iterative_attack_hook(n: int, rng: np.random.Generator, eps: float):
    """Build an epoch-end hook for optimizer.train implementing the adaptive
    attacker; returns (attacked_indices, hook)."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    attacked = choose_attacked_indices(n, rng)

    def hook(epoch, predictions, per_instance_losses, y):
        new_y = y.copy()
        predictions = np.asarray(predictions, dtype=np.float64)
        new_y[attacked] = predictions[attacked] + _attack_offset(per_instance_losses, eps)
        return new_y

    return attacked, hook
