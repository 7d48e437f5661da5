"""Training-set contamination.

apply_contamination is the one generator: it returns a fresh copy and
touches training data only; replaced values are drawn from
Normal(mu_out, out_sd^2) per the replacement-outlier convention. The
adaptive attacker rewrites its responses between epochs using the model's
own predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._spec import ceil_count, set_members
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
        if not math.isfinite(self.out_sd):
            raise ValueError(f"out_sd must be finite, got {self.out_sd}")
        # the adaptive attacker's offset bound
        if self.kind == ContaminationKind.Y_ITERATIVE and not self.mu_out > 0:
            raise ValueError(f"mu_out must be positive for {self.kind.value}, got {self.mu_out}")
        if not math.isfinite(self.mu_out):
            raise ValueError(f"mu_out must be finite, got {self.mu_out}")


def contamination_count(r: float, n: int) -> int:
    """m = ceil(r * n) by ceil_count."""
    return ceil_count(r, n)


def apply_contamination(data: Dataset, spec: ContaminationSpec,
                        rng: np.random.Generator) -> Dataset:
    """A copy of the training set with m = ceil(r * N) of its N units
    replaced by Normal(mu_out, out_sd^2) draws: the n responses (y-convex),
    the n predictor rows (x-casewise, each replaced whole) or the n * (p + 1)
    cells of (X|Y) (xy-cellwise). If m > 0 that takes one
    rng.choice(N, m, replace=False), then one rng.normal of m values, or of
    (m, p) for x-casewise, and no other draw. none ignores r, mu_out and
    out_sd; y-iterative, the adaptive attacker that acts during training,
    ignores r and out_sd and always attacks n // 2 rows. Both return an
    untouched copy and draw nothing.
    """
    out = data.copy()
    kind, n, p = spec.kind, out.n, out.p
    if kind in (ContaminationKind.NONE, ContaminationKind.Y_ITERATIVE):
        return out
    units = n * (p + 1) if kind == ContaminationKind.XY_CELLWISE else n
    m = contamination_count(spec.r, units)
    if m > 0:
        picked = rng.choice(units, size=m, replace=False)
        values = rng.normal(spec.mu_out, spec.out_sd,
                            size=(m, p) if kind == ContaminationKind.X_CASEWISE else m)
        if kind == ContaminationKind.Y_CONVEX:
            out.Y[picked] = values
        elif kind == ContaminationKind.X_CASEWISE:
            out.X[picked] = values
        else:
            rows, cols = np.divmod(picked, p + 1)
            in_x = cols < p
            out.X[rows[in_x], cols[in_x]] = values[in_x]
            out.Y[rows[~in_x]] = values[~in_x]
    return out


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


def make_iterative_attack_hook(n: int, rng: np.random.Generator, eps: float):
    """Build an epoch-end hook for optimizer.train implementing the adaptive
    attacker; returns (attacked_indices, hook). Its n // 2 target rows are
    picked once, before training, by one rng.choice and sorted."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    attacked = np.sort(rng.choice(n, size=n // 2, replace=False))

    def hook(epoch, predictions, per_instance_losses, y):
        new_y = y.copy()
        predictions = np.asarray(predictions, dtype=np.float64)
        new_y[attacked] = predictions[attacked] + _attack_offset(per_instance_losses, eps)
        return new_y

    return attacked, hook
