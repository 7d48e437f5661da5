"""Sign-based training: resilient backpropagation (Rprop+) and plain
sign gradient descent, with the full-batch epoch loop, convergence check
and divergence/breakdown bookkeeping.

Both update rules use the gradient only through its sign, so scaling all
gradients by a positive constant leaves the parameter trajectory untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import losses as L
from .net import BatchKernel, Network, network_from_vector, param_vector

DEFAULT_DIVERGE_NORM = 1e8
STEPMAX_SHALLOW = 100_000
STEPMAX_DEEP = 250_000


class Rule(str, Enum):
    RPROP_PLUS = "rprop-plus"
    SIGN_GD = "sign-gd"


class TrainStatus(str, Enum):
    CONVERGED = "converged"
    STEP_LIMIT = "step-limit"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class OptimizerSpec:
    rule: Rule = Rule.RPROP_PLUS
    eta: float = 0.1            # sign-gd step size
    delta0: float = 0.0125      # Rprop initial per-parameter step
    eta_plus: float = 1.2
    eta_minus: float = 0.5
    delta_min: float = 1e-6
    delta_max: float = 50.0
    stepmax: int = STEPMAX_SHALLOW
    grad_threshold: float = 0.01

    def __post_init__(self):
        # each check is written so that NaN fails it; the messages start
        # with the field name, which the CLI prefixes with its config key
        if not 0.0 < self.eta_minus < 1.0:
            raise ValueError(f"eta_minus must lie in (0, 1), got {self.eta_minus}")
        if not self.eta_plus > 1.0:
            raise ValueError(f"eta_plus must exceed 1, got {self.eta_plus}")
        if not self.delta_min <= self.delta0 <= self.delta_max:
            raise ValueError(f"delta0 must lie in [delta_min, delta_max], got {self.delta0}")
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.stepmax < 1:
            raise ValueError(f"stepmax must be positive, got {self.stepmax}")
        if not self.grad_threshold > 0:
            raise ValueError(f"grad_threshold must be positive, got {self.grad_threshold}")


@dataclass
class TrainOutcome:
    status: TrainStatus
    epochs_used: int
    final_net: Network
    sup_weight_norm: float
    breakdown: bool
    norm_history: list[float] | None = None


def _in_place_update(spec: OptimizerSpec, n_params: int,
                     steps: np.ndarray | None = None, signs: np.ndarray | None = None):
    """The update rule as a function (params, g) that moves params in place,
    with scratch arrays allocated once.

    Rprop+ also moves its per-parameter step sizes and previous gradient
    signs in place: the given arrays, or fresh ones starting at delta0 and 0.
    """
    s = np.empty(n_params)
    if spec.rule == Rule.SIGN_GD:
        eta = spec.eta

        def sign_gd(params, g):
            np.sign(g, out=s)
            np.multiply(eta, s, out=s)
            np.subtract(params, s, out=params)

        return sign_gd

    # Rprop+ with weight backtracking. Parameters whose gradient kept its
    # sign take a grown step; a sign flip shrinks the step, reverts the
    # previous update for that parameter and skips this epoch's update (the
    # stored sign becomes 0 so the next epoch falls into the neutral case).
    if steps is None:
        steps = np.full(n_params, spec.delta0, dtype=np.float64)
        signs = np.zeros(n_params, dtype=np.float64)
    eta_plus, eta_minus = spec.eta_plus, spec.eta_minus
    delta_min, delta_max = spec.delta_min, spec.delta_max
    prod, factor, revert, move = (np.empty(n_params) for _ in range(4))
    flipped, grew, unflipped = (np.empty(n_params, dtype=bool) for _ in range(3))

    def rprop_plus(params, g):
        np.sign(g, out=s)
        np.multiply(s, signs, out=prod)
        np.less(prod, 0.0, out=flipped)
        np.greater(prod, 0.0, out=grew)
        np.logical_not(flipped, out=unflipped)
        # the previous applied update was -prev_sign * steps (pre-shrink values)
        np.multiply(signs, steps, out=revert)
        np.copyto(revert, 0.0, where=unflipped)
        factor.fill(1.0)
        np.copyto(factor, eta_minus, where=flipped)
        np.copyto(factor, eta_plus, where=grew)
        np.multiply(steps, factor, out=steps)
        # clip to [delta_min, delta_max]
        np.maximum(steps, delta_min, out=steps)
        np.minimum(steps, delta_max, out=steps)
        np.negative(s, out=move)
        np.multiply(move, steps, out=move)
        np.copyto(move, 0.0, where=flipped)
        np.add(params, move, out=params)
        np.add(params, revert, out=params)
        np.copyto(s, 0.0, where=flipped)
        np.copyto(signs, s)

    return rprop_plus


def _as_xy(data):
    if hasattr(data, "X") and hasattr(data, "Y"):
        return data.X, data.Y
    x, y = data
    return x, y


def train(net: Network, data, loss_spec: L.LossSpec, spec: OptimizerSpec,
          diverge_norm: float = DEFAULT_DIVERGE_NORM, *,
          record_norms: bool = False,
          grad_transform=None,
          epoch_end_hook=None) -> TrainOutcome:
    """Full-batch training until convergence, the epoch cap, or divergence.

    Per epoch: forward pass, residuals, adaptive Huber threshold if
    requested, per-instance losses, aggregated (possibly trimmed) gradient,
    convergence check, optimizer step. There is no early stopping besides
    the gradient threshold; the running maximum of the flattened parameter
    norm is kept as the breakdown statistic and compared against
    diverge_norm at the end.

    grad_transform, if given, maps the flat aggregated gradient vector to a
    replacement before the convergence check and the update. epoch_end_hook
    is called as hook(epoch, predictions, per_instance_losses, y) after each
    completed epoch and may return a replacement response vector for the
    next epoch (used by the adaptive attacker). The arrays passed to either
    callback are the trainer's own buffers and are overwritten by the next
    epoch; a callback that keeps one must copy it.

    The parameters live in one flat buffer, a copy of net's, which the
    update moves in place; net itself is never modified. Every per-run
    choice (activations, loss, trimming, update rule) is resolved before the
    first epoch, so an epoch is only the arithmetic.
    """
    arch = net.architecture
    X, Y = _as_xy(data)
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.array(Y, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != arch.input_dim or Y.shape != (X.shape[0],):
        raise ValueError("data shapes do not match the network architecture")
    n = X.shape[0]
    if n == 0:
        raise ValueError("training data must be non-empty")

    params = param_vector(net)
    n_total = params.shape[0]
    norm0 = float(np.linalg.norm(params))
    if not norm0 < diverge_norm:
        raise ValueError("diverge_norm must exceed the initial weight norm")
    sup_norm = norm0
    norms = [norm0] if record_norms else None

    kernel = BatchKernel(network_from_vector(arch, params, copy=False), X)
    grad = np.empty(n_total)
    grad_net = network_from_vector(arch, grad, copy=False)
    d_weights, d_intercepts = grad_net.weights, grad_net.intercepts
    update = _in_place_update(spec, n_total)

    value, gradient = L._kernels(loss_spec)
    adaptive = loss_spec.adaptive_huber
    constant = None if adaptive else L._constant(loss_spec, None)
    h = L.trim_count(n, loss_spec.trim_alpha) if loss_spec.is_trimmed else None
    median_kth = L._median_kth(n)
    r = np.empty(n)
    abs_r = np.empty(n)
    abs_g = np.empty(n_total)
    output_error = kernel.output_error
    threshold = spec.grad_threshold

    status = TrainStatus.STEP_LIMIT
    epochs = 0
    # divergence shows up as inf/nan and is detected and reported below;
    # numpy's overflow warnings would only add noise to legitimate sweeps
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, spec.stepmax + 1):
            epochs = epoch
            predictions = kernel.forward()
            np.subtract(Y, predictions, out=r)

            if adaptive:
                np.abs(r, out=abs_r)
                constant = L._floored_median(abs_r, median_kth)
            per_loss = value(r, constant)
            if h is None:
                kept = None
                # the mean is finite exactly when the sum is
                objective = np.add.reduce(per_loss)
            else:
                kept, objective = L._trim(per_loss, h)
            if not math.isfinite(objective):
                status = TrainStatus.DIVERGED
                break

            np.negative(gradient(r, constant), out=output_error)
            kernel.backward()
            rows = kernel.gradient_sum(d_weights, d_intercepts, kept)
            g = np.divide(grad, rows, out=grad)
            if grad_transform is not None:
                g = grad_transform(g)
            # the largest |g| is non-finite exactly when some entry is
            g_max = np.abs(g, out=abs_g).max()
            if not math.isfinite(g_max):
                status = TrainStatus.DIVERGED
                break
            if g_max < threshold:
                status = TrainStatus.CONVERGED
                break

            update(params, g)
            # as np.linalg.norm computes it
            norm = math.sqrt(params.dot(params))
            if record_norms:
                norms.append(norm)
            if norm > sup_norm:
                sup_norm = norm
            if not math.isfinite(norm):
                status = TrainStatus.DIVERGED
                break

            if epoch_end_hook is not None:
                new_y = epoch_end_hook(epoch, predictions, per_loss, Y)
                if new_y is not None:
                    Y = np.asarray(new_y, dtype=np.float64)

    breakdown = status == TrainStatus.DIVERGED or sup_norm >= diverge_norm
    return TrainOutcome(
        status=status,
        epochs_used=epochs,
        final_net=network_from_vector(arch, params),
        sup_weight_norm=sup_norm,
        breakdown=breakdown,
        norm_history=norms,
    )
