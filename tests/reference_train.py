"""Frozen reference trainer: the allocating epoch loop that optimizer.train
replaced, kept as a test-only oracle.

Every piece of arithmetic the loop used is restated here (activations, the
batch forward pass, error terms, the mean gradient, the losses, np.median for
the adaptive Huber threshold, the stable-argsort trim selection and the
out-of-place Rprop+/sign-GD update), so the comparison does not pass through
any helper the optimized trainer shares. Only the data classes and the flat
parameter layout are imported from the package.
"""

from __future__ import annotations

import math

import numpy as np

from robustnn import losses as L
from robustnn.net import Activation, network_from_vector, param_vector
from robustnn.optimizer import DEFAULT_DIVERGE_NORM, Rule, TrainOutcome, TrainStatus


def _activate(kind, z):
    if kind == Activation.LOGISTIC:
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-z))
    if kind == Activation.SOFTPLUS:
        return np.logaddexp(0.0, z)
    return z


def _activate_deriv(kind, z):
    if kind in (Activation.LOGISTIC, Activation.SOFTPLUS):
        s = _activate(Activation.LOGISTIC, z)
        if kind == Activation.SOFTPLUS:
            return s
        return s * (1.0 - s)
    return np.ones_like(z)


def reference_forward_batch(net, X):
    arch = net.architecture
    pre, acts, z = [], [X], X
    for h in range(arch.n_layers):
        a = z @ net.weights[h].T + net.intercepts[h]
        z = _activate(arch.activation_of(h + 1), a)
        pre.append(a)
        acts.append(z)
    return pre, acts, z[:, 0]


def reference_batch_deltas(net, pre, acts, dl):
    arch = net.architecture
    dl = dl.reshape(-1, 1)
    out_kind = arch.activation_of(arch.n_layers)
    if out_kind == Activation.IDENTITY:
        d = dl.copy()
    else:
        d = dl * _activate_deriv(out_kind, pre[-1])
    deltas = [d]
    hid = arch.hidden_activation
    for h in range(arch.n_layers - 2, -1, -1):
        g = deltas[0] @ net.weights[h + 1]
        if hid == Activation.LOGISTIC:
            z_act = acts[h + 1]
            deriv = z_act * (1.0 - z_act)
        else:
            deriv = _activate_deriv(hid, pre[h])
        deltas.insert(0, g * deriv)
    return deltas


def reference_mean_gradient_vector(acts, deltas, kept):
    if kept is not None:
        deltas = [d[kept] for d in deltas]
        acts = [z[kept] for z in acts[:-1]]
    else:
        acts = acts[:-1]
    n = deltas[0].shape[0]
    parts = [d.mean(axis=0) for d in deltas]
    parts += [(d.T @ z).ravel() / n for d, z in zip(deltas, acts)]
    return np.concatenate(parts)


def _loss_value(spec, r, delta):
    if spec.kind in (L.LossKind.SQUARED, L.LossKind.TRIMMED_SQUARED):
        return r * r
    if spec.kind == L.LossKind.HUBER:
        a = np.abs(r)
        return np.where(a <= delta, 0.5 * r * r, delta * a - 0.5 * delta * delta)
    k = spec.tukey_k
    with np.errstate(over="ignore"):
        u = 1.0 - (r / k) ** 2
        return np.where(np.abs(r) <= k, 1.0 - u * u * u, 1.0)


def _loss_gradient(spec, r, delta):
    if spec.kind in (L.LossKind.SQUARED, L.LossKind.TRIMMED_SQUARED):
        return 2.0 * r
    if spec.kind == L.LossKind.HUBER:
        return np.clip(r, -delta, delta)
    k = spec.tukey_k
    with np.errstate(over="ignore"):
        u = 1.0 - (r / k) ** 2
        return np.where(np.abs(r) <= k, (6.0 * r / (k * k)) * u * u, 0.0)


def reference_huber_delta(r) -> float:
    return max(float(np.median(np.abs(r))), L.HUBER_DELTA_FLOOR)


def reference_trimmed_select(keys, alpha):
    """(kept indices, aggregate) of the stable-argsort selection."""
    keys = np.asarray(keys, dtype=np.float64)
    h = L.trim_count(keys.shape[0], alpha)
    kept = np.sort(np.argsort(keys, kind="stable")[:h])
    return kept, float(keys[kept].mean())


def _step_vec(spec, steps, prev_signs, params, g):
    if spec.rule == Rule.SIGN_GD:
        return params - spec.eta * np.sign(g), steps, prev_signs
    s = np.sign(g)
    prod = s * prev_signs
    flipped = prod < 0.0
    grew = prod > 0.0
    factor = np.where(grew, spec.eta_plus, np.where(flipped, spec.eta_minus, 1.0))
    new_steps = np.clip(steps * factor, spec.delta_min, spec.delta_max)
    revert = np.where(flipped, prev_signs * steps, 0.0)
    move = np.where(flipped, 0.0, -s * new_steps)
    new_params = params + move + revert
    new_signs = np.where(flipped, 0.0, s)
    return new_params, new_steps, new_signs


def reference_train(net, data, loss_spec, spec, diverge_norm=DEFAULT_DIVERGE_NORM, *,
                    record_norms=False, grad_transform=None,
                    epoch_end_hook=None) -> TrainOutcome:
    arch = net.architecture
    X, Y = data
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.array(Y, dtype=np.float64)

    params = param_vector(net)
    n_total = params.shape[0]
    norm0 = float(np.linalg.norm(params))
    if not norm0 < diverge_norm:
        raise ValueError("diverge_norm must exceed the initial weight norm")
    sup_norm = norm0
    norms = [norm0] if record_norms else None
    steps = np.full(n_total, spec.delta0, dtype=np.float64)
    signs = np.zeros(n_total, dtype=np.float64)
    status = TrainStatus.STEP_LIMIT
    epochs = 0

    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, spec.stepmax + 1):
            epochs = epoch
            live = network_from_vector(arch, params, copy=False)
            pre, acts, predictions = reference_forward_batch(live, X)
            r = Y - predictions

            delta = None
            if loss_spec.kind == L.LossKind.HUBER:
                delta = (loss_spec.huber_delta if loss_spec.huber_delta is not None
                         else reference_huber_delta(r))
            per_loss = _loss_value(loss_spec, r, delta)
            if loss_spec.is_trimmed:
                kept, objective = reference_trimmed_select(per_loss, loss_spec.trim_alpha)
            else:
                kept = None
                objective = float(per_loss.mean())
            if not math.isfinite(objective):
                status = TrainStatus.DIVERGED
                break

            dl = -_loss_gradient(loss_spec, r, delta)
            deltas = reference_batch_deltas(live, pre, acts, dl)
            g = reference_mean_gradient_vector(acts, deltas, kept)
            if grad_transform is not None:
                g = grad_transform(g)
            if not np.isfinite(g).all():
                status = TrainStatus.DIVERGED
                break
            if np.abs(g).max() < spec.grad_threshold:
                status = TrainStatus.CONVERGED
                break

            params, steps, signs = _step_vec(spec, steps, signs, params, g)
            norm = float(np.linalg.norm(params))
            if record_norms:
                norms.append(norm)
            if norm > sup_norm:
                sup_norm = norm
            if not np.isfinite(norm):
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
