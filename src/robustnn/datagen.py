"""Synthetic regression data with SNR-calibrated Gaussian noise, plus
min-max response standardization and CSV export."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from ._spec import set_integers, set_members

POLY_SINGULARITY_FLOOR = 1e-12


class Structure(str, Enum):
    LIN = "lin"
    POLY = "poly"
    TRIG = "trig"


@dataclass(frozen=True)
class DataGenSpec:
    p: int
    n_train: int
    n_test: int
    mu: float = 0.0
    snr: float = 2.0
    structure: Structure = Structure.LIN

    def __post_init__(self):
        set_members(self, structure=Structure)
        set_integers(self, "p", "n_train", "n_test")
        if self.p < 1:
            raise ValueError(f"p must be positive, got {self.p}")
        if self.n_train < 1:
            raise ValueError(f"n_train must be positive, got {self.n_train}")
        if self.n_test < 1:
            raise ValueError(f"n_test must be positive, got {self.n_test}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not self.snr > 0:
            raise ValueError(f"snr must be positive, got {self.snr}")


@dataclass
class Dataset:
    """Predictor matrix and responses."""

    X: np.ndarray
    Y: np.ndarray

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def copy(self) -> "Dataset":
        return Dataset(self.X.copy(), self.Y.copy())


def noiseless_signal(structure: Structure, xb: np.ndarray) -> np.ndarray:
    """Signal value as a function of the linear index t = x.beta.

    lin: t itself. poly: |t|^(-2/3), with |t| floored at 1e-12 against the
    singularity. trig: sin(|t|)/|t| continued with 1 at t = 0.
    """
    xb = np.asarray(xb, dtype=np.float64)
    if structure == Structure.LIN:
        return xb
    a = np.abs(xb)
    if structure == Structure.POLY:
        return np.maximum(a, POLY_SINGULARITY_FLOOR) ** (-2.0 / 3.0)
    if structure == Structure.TRIG:
        safe = np.where(a == 0.0, 1.0, a)
        return np.where(a == 0.0, 1.0, np.sin(safe) / safe)
    raise ValueError(f"unknown structure {structure!r}")


def generate_dataset(spec: DataGenSpec, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Draw one (train, test) pair.

    Predictors are N_p(mu*1, I); the coefficient beta ~ N(0, I_p) is shared
    by both sets. The noise variance is the empirical variance of the
    combined noiseless signal divided by the requested signal-to-noise
    ratio; test noise comes from its own draws.
    """
    X_train = rng.normal(spec.mu, 1.0, size=(spec.n_train, spec.p))
    X_test = rng.normal(spec.mu, 1.0, size=(spec.n_test, spec.p))
    beta = rng.standard_normal(spec.p)
    f_train = noiseless_signal(spec.structure, X_train @ beta)
    f_test = noiseless_signal(spec.structure, X_test @ beta)
    signal_var = float(np.var(np.concatenate([f_train, f_test]), ddof=1))
    sigma = float(np.sqrt(signal_var / spec.snr))
    y_train = f_train + sigma * rng.standard_normal(spec.n_train)
    y_test = f_test + sigma * rng.standard_normal(spec.n_test)
    return Dataset(X_train, y_train), Dataset(X_test, y_test)


class DegenerateStandardizationError(ValueError):
    """All responses equal: the min-max transform is undefined."""


@dataclass(frozen=True)
class StandardizationTransform:
    y_min: float
    y_max: float

    def __post_init__(self):
        if not self.y_max > self.y_min:
            raise DegenerateStandardizationError(
                f"degenerate response range [{self.y_min}, {self.y_max}]")

    def apply(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        return (y - self.y_min) / (self.y_max - self.y_min)


def fit_standardizer(y) -> StandardizationTransform:
    """Min-max transform fitted on training responses (outliers included:
    a single huge response dominates the range)."""
    y = np.asarray(y, dtype=np.float64)
    if y.size < 2:
        raise ValueError("need at least two responses")
    return StandardizationTransform(y_min=float(y.min()), y_max=float(y.max()))


def dataset_to_csv(data: Dataset, path) -> None:
    """Write a dataset as CSV with header x1..xp,y, each value as the
    shortest repr that float() reads back to the same value."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(data.p)] + ["y"])
        for i in range(data.n):
            writer.writerow([repr(float(v)) for v in data.X[i]] + [repr(float(data.Y[i]))])
