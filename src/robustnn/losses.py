"""Robust regression losses and trimmed aggregation.

Residual convention: r = y - yhat. All value/gradient functions are
vectorized over r; loss_gradient returns dL/dr, so dL/dyhat = -dL/dr.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._spec import ceil_count, set_members

TUKEY_K_DEFAULT = 4.685  # 95% efficiency tuning constant
HUBER_DELTA_FLOOR = 1e-8


class LossKind(str, Enum):
    SQUARED = "squared"
    HUBER = "huber"
    TUKEY = "tukey"
    TRIMMED_SQUARED = "trimmed-squared"


@dataclass(frozen=True)
class LossSpec:
    """A loss choice plus its parameters.

    huber_delta None means the threshold is recomputed adaptively each epoch
    as the median absolute residual. trim_alpha is the upper trimming rate of
    the trimmed squared loss.
    """

    kind: LossKind
    huber_delta: float | None = None
    tukey_k: float = TUKEY_K_DEFAULT
    trim_alpha: float | None = None

    def __post_init__(self):
        set_members(self, kind=LossKind)
        if self.kind == LossKind.HUBER:
            if self.huber_delta is not None:
                if not self.huber_delta > 0:
                    raise ValueError(f"huber_delta must be positive, got {self.huber_delta}")
                if not math.isfinite(self.huber_delta):
                    raise ValueError(f"huber_delta must be finite, got {self.huber_delta}")
        elif self.huber_delta is not None:
            raise ValueError("huber_delta only applies to the Huber loss")
        if self.kind == LossKind.TUKEY:
            if not self.tukey_k > 0:
                raise ValueError(f"tukey_k must be positive, got {self.tukey_k}")
            if not math.isfinite(self.tukey_k):
                raise ValueError(f"tukey_k must be finite, got {self.tukey_k}")
        if self.kind == LossKind.TRIMMED_SQUARED:
            if self.trim_alpha is None or not 0.0 < self.trim_alpha < 1.0:
                raise ValueError("trim_alpha must lie in (0, 1)")
        elif self.trim_alpha is not None:
            raise ValueError("trim_alpha only applies to the trimmed squared loss")

    @classmethod
    def squared(cls) -> "LossSpec":
        return cls(LossKind.SQUARED)

    @classmethod
    def huber(cls, delta: float | None = None) -> "LossSpec":
        return cls(LossKind.HUBER, huber_delta=delta)

    @classmethod
    def tukey(cls, k: float = TUKEY_K_DEFAULT) -> "LossSpec":
        return cls(LossKind.TUKEY, tukey_k=k)

    @classmethod
    def trimmed(cls, alpha: float) -> "LossSpec":
        return cls(LossKind.TRIMMED_SQUARED, trim_alpha=alpha)

    @property
    def token(self) -> str:
        """The loss's name in ids, CSV files, chart labels and a
        configuration's 'losses': the kind's value, or trim<percent> for
        the trimmed squared loss."""
        if self.is_trimmed:
            return f"trim{round(self.trim_alpha * 100):g}"
        return self.kind.value

    @classmethod
    def from_token(cls, token: str) -> "LossSpec | None":
        """The loss a token spells in any case, the inverse of token: a
        kind's value but trimmed-squared, with its default parameters, or
        trimNN, trimming NN percent, with NN as str(int) writes it; None for
        a token that spells no loss. A trimNN rate outside (0, 1) is a
        ValueError."""
        t = token.lower()
        try:
            if not t.startswith("trim"):
                return cls(LossKind(t))
            # trimmed-squared, whose rate no token gives, fails here
            pct = int(t[4:])
        except ValueError:
            return None
        # int() also reads " 5", "+5", "05", "5_0" and non-ASCII digits
        return cls.trimmed(pct / 100.0) if str(pct) == t[4:] else None

    @property
    def is_trimmed(self) -> bool:
        return self.kind == LossKind.TRIMMED_SQUARED

    @property
    def adaptive_huber(self) -> bool:
        return self.kind == LossKind.HUBER and self.huber_delta is None


def _median_kth(n: int) -> list[int]:
    """Partition points for the median of n values: the middle order
    statistic(s) and the last one, which is NaN if any value is."""
    m = n // 2
    return sorted({m, n - 1} if n % 2 else {m - 1, m, n - 1})


def _floored_median(a: np.ndarray, kth) -> np.ndarray:
    """Median of each row of a 2-D array, floored at HUBER_DELTA_FLOOR, as
    a (rows, 1) column; reorders the rows in place. Equal to np.median of
    each row: the middle value or (a+b)/2 of the middle pair, NaN if any
    value of the row is NaN."""
    a.partition(kth, axis=-1)
    m = a.shape[-1] // 2
    median = a[:, m:m + 1] if a.shape[-1] % 2 else (a[:, m - 1:m] + a[:, m:m + 1]) / 2
    last = a[:, -1:]
    return np.where(last != last, last, np.maximum(median, HUBER_DELTA_FLOOR))


def adaptive_huber_delta(residuals) -> float:
    """Median absolute residual, floored so the loss never degenerates to 0."""
    r = np.asarray(residuals, dtype=np.float64)
    if r.size < 1:
        raise ValueError("need at least one residual")
    return float(_floored_median(np.abs(r).reshape(1, -1), _median_kth(r.size))[0, 0])


def _resolve_delta(spec: LossSpec, delta: float | None) -> float:
    if delta is not None:
        return delta
    if spec.huber_delta is None:
        raise ValueError("adaptive Huber delta was not resolved before use")
    return spec.huber_delta


# Elementwise (value, dL/dr) kernels of residual r and the loss's constant
# c: the Huber threshold delta, the Tukey k, unused otherwise.

def _squared(r, c):
    return r * r


def _squared_grad(r, c):
    return 2.0 * r


def _huber(r, d):
    a = np.abs(r)
    return np.where(a <= d, 0.5 * r * r, d * a - 0.5 * d * d)


def _huber_grad(r, d):
    # r inside [-delta, delta], delta * sign(r) outside: exactly a clip
    return np.clip(r, -d, d)


def _tukey(r, k):
    u = 1.0 - (r / k) ** 2
    return np.where(np.abs(r) <= k, 1.0 - u * u * u, 1.0)


def _tukey_grad(r, k):
    u = 1.0 - (r / k) ** 2
    return np.where(np.abs(r) <= k, (6.0 * r / (k * k)) * u * u, 0.0)


_KERNELS = {
    LossKind.SQUARED: (_squared, _squared_grad),
    LossKind.TRIMMED_SQUARED: (_squared, _squared_grad),
    LossKind.HUBER: (_huber, _huber_grad),
    LossKind.TUKEY: (_tukey, _tukey_grad),
}


def _constant(spec: LossSpec, delta: float | None):
    if spec.kind == LossKind.HUBER:
        return _resolve_delta(spec, delta)
    return spec.tukey_k


def _apply(kernel, spec: LossSpec, r, delta):
    r = np.asarray(r, dtype=np.float64)
    c = _constant(spec, delta)
    if spec.kind == LossKind.TUKEY:
        # (r/k)^2 overflows to inf for huge r, which lands in the flat branch
        with np.errstate(over="ignore"):
            out = kernel(r, c)
    else:
        out = kernel(r, c)
    # a numpy scalar for a 0-d r, whichever kind: np.where gives a 0-d
    # array where arithmetic gives a scalar
    return out[()] if r.ndim == 0 else out


def loss_value(spec: LossSpec, r, delta: float | None = None):
    """Elementwise loss of residual r.

    squared: r^2. Huber: r^2/2 below delta, delta|r| - delta^2/2 above.
    Tukey: 1 - (1 - (r/k)^2)^3 below k, constant 1 above. The trimmed squared
    loss is r^2 per instance; the trimming lives in the aggregation step.
    """
    return _apply(_KERNELS[spec.kind][0], spec, r, delta)


def loss_gradient(spec: LossSpec, r, delta: float | None = None):
    """Elementwise dL/dr.

    The Huber gradient is clipped at +-delta; the Tukey gradient redescends
    to exactly 0 for |r| >= k.
    """
    return _apply(_KERNELS[spec.kind][1], spec, r, delta)


def trim_count(n: int, alpha: float) -> int:
    """h = ceil((1-alpha) * n) by ceil_count, and at least 1."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return max(ceil_count(1.0 - alpha, n), 1)


@dataclass(frozen=True)
class TrimResult:
    """Outcome of selecting the h smallest ranking keys."""

    kept_indices: np.ndarray
    h: int
    aggregate: float


def _trim_rows(keys: np.ndarray, h: int) -> np.ndarray:
    """Indices of the h smallest keys of each row of a C-contiguous 2-D
    array, as a (rows, h) array of positions in keys.ravel(): row j's index
    i is j*n + i. Ties go to the smaller index and NaN ranks above +inf, so
    each row keeps exactly np.sort(np.argsort(row, kind="stable")[:h]).
    One partition finds every row's h-th smallest key; a row whose keys up
    to it are not h (ties at it, or a NaN threshold, which keeps none)
    takes that stable argsort instead."""
    part = keys.copy()
    part.partition(h - 1, axis=-1)
    threshold = part[:, h - 1:h]
    keep = keys <= threshold
    flat = keep.ravel().nonzero()[0]
    # with no NaN threshold every row keeps at least h keys, so h per row
    # is exactly the total count; a NaN threshold makes the sum NaN
    if flat.shape[0] == keys.shape[0] * h and not math.isnan(sum(threshold[:, 0].tolist())):
        return flat.reshape(-1, h)
    rows = np.flatnonzero(np.count_nonzero(keep, axis=1) != h)
    keep[rows] = False
    keep[rows[:, None], np.argsort(keys[rows], axis=1, kind="stable")[:, :h]] = True
    return keep.ravel().nonzero()[0].reshape(-1, h)


def trimmed_select(keys, alpha: float) -> TrimResult:
    """Keep the h = ceil((1-alpha)n) instances with the smallest keys.

    Ties are broken by the smaller index so the selection is a total order
    and repeated runs are identical.
    """
    keys = np.asarray(keys, dtype=np.float64)
    h = trim_count(keys.shape[0], alpha)
    kept = _trim_rows(keys[None], h)[0]
    return TrimResult(kept_indices=kept, h=h, aggregate=float(np.add.reduce(keys[kept]) / h))
