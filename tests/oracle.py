"""Per-instance reference route for the training arithmetic, kept for tests.

train sums the gradient over the kept rows in one pass through
net.BatchKernel. This module builds one flat gradient per instance in the
layout of Network.params (intercepts first, then weights), as flatten
spells it out, reduces them with a plain loop (mean, or trimmed mean
over the instances with the smallest losses), and applies the optimizer's
own update rule to copies of the parameters, so tests can compare the
fused route against an instance-by-instance one. intercept_sum is the
summation order of an intercept gradient, spelled out. rprop_plus_reference
is Rprop+ one parameter at a time, for tests of that update rule itself.
iterative_attacker_step is one epoch of the adaptive attacker as a plain
function of the epoch's predictions and losses, for tests of its hook.
record_alone is the record of one run trained alone through train, written
apart from the sweep's queue, for tests that run_sweep's records are those
of each run alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from robustnn import experiment as E
from robustnn import losses as L
from robustnn.contamination import _attack_offset
from robustnn.net import Network, batch_deltas, forward_batch, predict
from robustnn.optimizer import OptimizerSpec, Rule, TrainStatus, _in_place_update, train


def flatten(net: Network) -> np.ndarray:
    """A new vector of net's intercepts and then its weights, layer by layer,
    each weight matrix row by row; for a stacked network, one such vector
    per slot."""
    lead = net.params.shape[:-1]
    return np.concatenate([a.reshape(*lead, -1) for a in net.intercepts + net.weights],
                          axis=-1)


def dloss_dprediction(spec: L.LossSpec, r, delta: float | None = None):
    """dL/dyhat for residual r = y - yhat."""
    return -L.loss_gradient(spec, r, delta)


def backprop(net: Network, X, dloss_dpred) -> np.ndarray:
    """Per-instance parameter gradients, one row per row of X, each a flat
    vector in the layout flatten gives (intercepts first).

    The caller supplies dL/dyhat per instance (the residual-gradient part of
    the chosen loss); this routine only applies the network chain rule and
    leaves the aggregation policy (mean, trimmed mean) to the caller.
    """
    trace = forward_batch(net, X)
    deltas = batch_deltas(net, trace, dloss_dpred)
    inputs = trace.activations[:-1]
    rows = []
    for i in range(trace.predictions.shape[0]):
        rows.append(np.concatenate(
            [d[i] for d in deltas]
            + [np.outer(d[i], z[i]).ravel() for d, z in zip(deltas, inputs)]))
    return np.array(rows)


def aggregate_gradients(per_instance: np.ndarray, per_instance_losses,
                        spec: L.LossSpec) -> np.ndarray:
    """Reduce per-instance gradients to the epoch gradient.

    Non-trimmed kinds average all instances; the trimmed squared loss
    averages only the h instances with the smallest losses, discarding the
    rest entirely.
    """
    if len(per_instance) == 0:
        raise ValueError("no gradients to aggregate")
    if spec.is_trimmed:
        sel = L.trimmed_select(per_instance_losses, spec.trim_alpha)
        chosen = [per_instance[i] for i in sel.kept_indices]
    else:
        chosen = list(per_instance)
    total = chosen[0].copy()
    for g in chosen[1:]:
        total += g
    return total / len(chosen)


def intercept_sum(d: np.ndarray) -> np.ndarray:
    """Sum of a (slots, rows, width) array of error terms over its rows,
    one slot at a time, as train sums one run's intercept gradient: a width
    above 1 row by row in row order from +0.0, and a width-1 column as
    np.add.reduce sums one contiguous vector (pairwise)."""
    if d.shape[-1] == 1:
        return np.array([[np.add.reduce(column[:, 0])] for column in d])
    total = np.zeros((d.shape[0], d.shape[-1]))
    for i in range(d.shape[1]):
        total = total + d[:, i, :]
    return total


def canonical_bytes(x) -> bytes:
    """x's bytes with every NaN made the one NaN: two numpy routines that
    agree in every value may still return different operands' NaN."""
    x = np.array(x, dtype=np.float64)
    x[np.isnan(x)] = np.nan
    return x.tobytes()


@dataclass
class RpropState:
    """Per-parameter step sizes and the sign of the previous gradient."""

    step_sizes: np.ndarray
    prev_grad_signs: np.ndarray

    @classmethod
    def initial(cls, n_params: int, spec: OptimizerSpec) -> "RpropState":
        return cls(
            step_sizes=np.full(n_params, spec.delta0, dtype=np.float64),
            prev_grad_signs=np.zeros(n_params, dtype=np.float64),
        )


def step(spec: OptimizerSpec, state: RpropState | None, net: Network,
         agg: np.ndarray) -> tuple[Network, RpropState | None]:
    """Apply one optimizer update to a network given a flat aggregated
    gradient, through the update rule train uses.

    Neither the network nor the state passed in is modified."""
    params = net.params.copy()
    # sign-GD moves no step sizes or signs
    steps = signs = np.empty(params.shape[0])
    if spec.rule == Rule.RPROP_PLUS:
        if state is None:
            state = RpropState.initial(params.shape[0], spec)
        state = RpropState(step_sizes=state.step_sizes.copy(),
                           prev_grad_signs=state.prev_grad_signs.copy())
        steps, signs = state.step_sizes, state.prev_grad_signs
    _in_place_update(spec, params.shape[0], steps, signs)(
        params, np.asarray(agg, dtype=np.float64))
    return Network(net.architecture, params), state


def _sign(x: float) -> float:
    """np.sign for one float: -1.0, +0.0 or 1.0, and NaN for NaN."""
    if math.isnan(x):
        return x
    return float((x > 0) - (x < 0))


def rprop_plus_reference(spec: OptimizerSpec, params, g, steps, signs) -> None:
    """One Rprop+ update with weight backtracking (Riedmiller & Braun 1993;
    Igel & Hüsken 2000), in place, with a branch per parameter on the sign
    of g times the previous gradient sign:

    - positive: the step grows by eta_plus;
    - negative: the step shrinks by eta_minus, the previous move is
      reverted (it was -prev_sign * step, with the step before shrinking),
      this epoch's move is skipped and the stored sign becomes +0.0;
    - zero or NaN: the step stays.

    Steps are clipped to [delta_min, delta_max]. Each parameter moves as
    (p + move) + revert, where the one of the two that does not apply is
    +0.0; so a -0.0 parameter that does not move becomes +0.0.
    """
    for i in np.ndindex(params.shape):
        s = _sign(float(g[i]))
        prev, step, p = float(signs[i]), float(steps[i]), float(params[i])
        move = revert = 0.0
        if s * prev < 0:
            revert = prev * step
            step = step * spec.eta_minus
        elif s * prev > 0:
            step = step * spec.eta_plus
        step = min(max(step, spec.delta_min), spec.delta_max)
        if s * prev < 0:
            s = 0.0
        else:
            move = -s * step
        params[i] = (p + move) + revert
        steps[i] = step
        signs[i] = s


def iterative_attacker_step(predictions, current_losses, attacked_indices,
                            eps: float) -> np.ndarray:
    """New responses for the attacked instances after one epoch: each is
    its prediction plus the attacker's offset (contamination._attack_offset),
    in the order of the sorted indices."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    predictions = np.asarray(predictions, dtype=np.float64)
    attacked = np.asarray(sorted(attacked_indices), dtype=np.intp)
    return predictions[attacked] + _attack_offset(current_losses, eps)


def record_alone(cfg: E.ExperimentConfig, rep: int) -> E.RunRecord:
    """The record of replication rep of cfg trained alone: prepare_run, then
    train with the run's network, training set, loss, optimizer, divergence
    level and attacker; a converged run's test loss is the mean squared
    error of net.predict on the test inputs against the test responses on
    the training responses' scale. A test set that changed while the run
    trained, or any exception, gives the error record with the exception's
    type and message."""
    try:
        prep = E.prepare_run(cfg, rep)
        scenario = prep.scenario
        outcome = train(prep.net, scenario.train, cfg.loss, cfg.resolved_optimizer(),
                        cfg.diverge_norm, epoch_end_hook=scenario.hook)
        converged = outcome.status == TrainStatus.CONVERGED
        test_loss = None
        if converged:
            with np.errstate(over="ignore", invalid="ignore"):
                preds = predict(outcome.final_net, scenario.test.X)
                test_loss = float(np.mean((preds - scenario.y_test) ** 2))
        if E._fingerprint(scenario.test) != scenario.test_fingerprint:
            raise E.HeldOutSetModifiedError("test set was modified during the run")
        return E.RunRecord(
            **vars(cfg.cell),
            rep=rep,
            seed=prep.seed,
            converged=converged,
            status=outcome.status.value,
            epochs=outcome.epochs_used,
            test_loss=test_loss,
            sup_weight_norm=outcome.sup_weight_norm,
            breakdown=outcome.breakdown,
        )
    except Exception as exc:
        return E._error_record(cfg, rep, f"{type(exc).__name__}: {exc}")
