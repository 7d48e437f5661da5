"""Feed-forward regression network core.

Plain numpy implementation of a fully-connected feed-forward network with
hidden layers of one activation and one linear output node: batch forward
pass, exact backpropagation to the mean gradient over all or a subset of
rows and parameter accounting. A network is its flat parameter vector,
whose layout this module alone decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._spec import integer, set_integers, set_members


class Activation(str, Enum):
    LOGISTIC = "logistic"
    SOFTPLUS = "softplus"


# Elementwise kernels writing into a caller-owned array `out` of a's shape.
# The logistic lets exp(-a) overflow to inf, which gives the exact limit 0;
# callers that care about the overflow warning suppress it around the call.

def _logistic(a, out):
    np.negative(a, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    return np.divide(1.0, out, out=out)


def _softplus(a, out):
    return np.logaddexp(0.0, a, out=out)


_ACTIVATE = {
    Activation.LOGISTIC: _logistic,
    Activation.SOFTPLUS: _softplus,
}


# g *= sigma'(a) in place, given the pre-activation a and the activation
# z = sigma(a); tmp is scratch of g's shape.

def _scale_logistic(g, a, z, tmp):
    # logistic'(a) = z(1-z)
    np.subtract(1.0, z, out=tmp)
    np.multiply(z, tmp, out=tmp)
    np.multiply(g, tmp, out=g)


def _scale_softplus(g, a, z, tmp):
    # softplus'(a) = logistic(a)
    np.multiply(g, _logistic(a, tmp), out=g)


_SCALE_BY_DERIV = {
    Activation.LOGISTIC: _scale_logistic,
    Activation.SOFTPLUS: _scale_softplus,
}


@dataclass(frozen=True)
class Architecture:
    """Layer layout of a regression network: p inputs, H hidden layers of
    one activation, and one linear output node."""

    input_dim: int
    hidden_sizes: tuple[int, ...]
    hidden_activation: Activation = Activation.LOGISTIC

    def __post_init__(self):
        set_members(self, hidden_activation=Activation)
        set_integers(self, "input_dim")
        object.__setattr__(self, "hidden_sizes",
                           tuple(integer(s, "hidden_sizes entry") for s in self.hidden_sizes))
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if len(self.hidden_sizes) < 1:
            raise ValueError("at least one hidden layer is required")
        if any(s < 1 for s in self.hidden_sizes):
            raise ValueError("hidden layer sizes must be positive")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        """Node counts per layer including input (index 0) and the single output."""
        return (self.input_dim, *self.hidden_sizes, 1)


class Network:
    """A feed-forward network as its flat parameter vector, intercepts first
    and then the weights, layer by layer: params is (P,), or a stacked
    (B, P) for B networks side by side.

    weights and intercepts are per-layer views of params, built once:
    weights[h] has shape (nodes of layer h+1, nodes of layer h) counting the
    input as layer 0, and entry (l, j) connects node j of the previous layer
    to node l of this layer; intercepts[h] has one entry per node of the
    layer. A stack gives each a leading slot axis. Writing into params moves
    the views and the other way round; a float64 params is not copied.
    """

    def __init__(self, architecture: Architecture, params):
        total = count_parameters(architecture)[2]
        params = np.asarray(params, dtype=np.float64)
        if params.ndim not in (1, 2) or params.shape[-1] != total:
            raise ValueError(f"expected parameter vector of length {total}, got {params.shape}")
        self.architecture, self.params = architecture, params
        self.weights, self.intercepts = _split(params, architecture.layer_sizes)


@dataclass
class BatchTrace:
    """Forward pass over a whole data matrix.

    activations[0] is the input X itself; activations[h] and
    pre_activations[h-1] belong to weighted layer h. predictions has one
    entry per row of X.
    """

    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    predictions: np.ndarray


def count_parameters(arch: Architecture) -> tuple[int, int, int]:
    """Return (number of intercepts, number of weights, total parameters)."""
    sizes = arch.layer_sizes
    n_intercepts = sum(sizes[1:])
    n_weights = sum(sizes[h] * sizes[h - 1] for h in range(1, len(sizes)))
    return n_intercepts, n_weights, n_intercepts + n_weights


def _split(vec: np.ndarray, sizes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (weights, intercepts) views of a flat vector, intercepts
    first, for the given layer sizes (input first). A stack of vectors
    along leading axes gives stacked views."""
    lead = vec.shape[:-1]
    intercepts = []
    weights = []
    off = 0
    for size in sizes[1:]:
        intercepts.append(vec[..., off : off + size])
        off += size
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        k = fan_in * fan_out
        weights.append(vec[..., off : off + k].reshape(*lead, fan_out, fan_in))
        off += k
    return weights, intercepts


def init_weights(arch: Architecture, rng: np.random.Generator) -> Network:
    """Draw every weight and intercept i.i.d. standard normal."""
    _, _, total = count_parameters(arch)
    return Network(arch, rng.standard_normal(total))


def _forward_arrays(arch: Architecture, X: np.ndarray) -> tuple[list, list]:
    """Pre-activation arrays per weighted layer and activation arrays with
    the input first; the linear output's activation is its pre-activation.
    X is (n, p), or (B, n, p) for B runs side by side."""
    pre = [np.empty((*X.shape[:-1], size)) for size in arch.layer_sizes[1:]]
    return pre, [X, *(np.empty_like(a) for a in pre[:-1]), pre[-1]]


def _forward_steps(net: Network, pre, acts) -> list[tuple]:
    """Per weighted layer: (input, W^T, b, pre-activation, activation
    kernel, activation), the arrays the forward pass reads and writes, with
    no kernel for the linear output. The intercepts get a row axis, so they
    broadcast over the rows of each run."""
    arch = net.architecture
    kernels = [_ACTIVATE[arch.hidden_activation]] * len(arch.hidden_sizes) + [None]
    return list(zip(acts, [w.swapaxes(-1, -2) for w in net.weights],
                    [b[..., None, :] for b in net.intercepts], pre, kernels, acts[1:]))


def _run_forward(steps) -> None:
    """a_h = z_{h-1} W_h^T + b_h layer by layer, and z_h = sigma(a_h) for
    the hidden layers."""
    for z, wt, b, a, act, out in steps:
        np.matmul(z, wt, out=a)
        np.add(a, b, out=a)
        if act is not None:
            act(a, out)


def _backward_steps(net: Network, pre, acts, deltas, scratch) -> list[tuple]:
    """Per hidden layer from the last back: (delta and W of the layer
    above, this layer's delta, derivative scaling, pre-activation,
    activation, scratch)."""
    arch = net.architecture
    scale = _SCALE_BY_DERIV[arch.hidden_activation]
    return [(deltas[h + 1], net.weights[h + 1], deltas[h], scale, pre[h], acts[h + 1], scratch[h])
            for h in range(len(arch.hidden_sizes) - 1, -1, -1)]


def _run_backward(steps) -> None:
    """The output delta holds dL/dyhat on entry, which is the linear output
    layer's error term; the hidden layers follow the chain-rule recursion
    delta_h = (delta_{h+1} W_{h+1}) * sigma'(a_h)."""
    for d_above, w, d, scale, a, z, tmp in steps:
        np.matmul(d_above, w, out=d)
        scale(d, a, z, tmp)


def _sum_steps(deltas, inputs) -> list[tuple]:
    """Per weighted layer: (delta, its transpose, layer input, whether its
    intercept gradient is summed through einsum), what a gradient sum
    reads.

    An intercept gradient wider than 1 sums a non-contiguous axis, which
    np.add.reduce and einsum both sum row by row in row order from +0.0;
    they differ only in which NaN they return. einsum is the faster from
    about 50 rows on (numpy 2.4, 2-core Xeon), fewer than the study's
    sums have: trim50 at n=150 sums 75. A width-1 column is contiguous,
    which np.add.reduce sums pairwise, so it keeps that."""
    return [(d, d.swapaxes(-1, -2), z, d.shape[-1] > 1) for d, z in zip(deltas, inputs)]


def _gradient_sum(steps, d_weights, d_intercepts) -> int:
    """Sum over rows of the per-instance gradients into the given per-layer
    arrays, each run's rows summed exactly as one run's are; returns the
    number of rows summed."""
    for (d, dt, z, by_einsum), gw, gb in zip(steps, d_weights, d_intercepts):
        if by_einsum:
            np.einsum("...ij->...j", d, out=gb)
        else:
            np.add.reduce(d, axis=-2, out=gb)
        np.matmul(dt, z, out=gw)
    return steps[0][0].shape[-2]


class BatchKernel:
    """Forward pass, error terms and gradient sums of B networks of one
    architecture side by side, each over its own input matrix, computed
    into (B, n, width) arrays allocated once.

    net is a stacked network over a (B, P) parameter buffer, whose weights
    and intercepts carry a leading slot axis of length B, and X is a
    C-contiguous (B, n, p) array. The kernel keeps references to these
    arrays, so the caller can move the parameters in place and write a new
    run's inputs into a slot between passes. Every pass runs on the first
    `live` slots only (a gradient sum on as many as its output arrays hold,
    from a given slot on, so each loss group of train_slots sums its own),
    with one stacked np.matmul per layer, whose slices are the matrix
    products of one run. train_slots runs every epoch through one kernel,
    and a converged run's test predictions go through a one-slot kernel
    over a (1, n_test, p) input: in production no other object builds
    forward arrays. forward_batch, batch_deltas and mean_gradient_vector,
    which only tests and perfbench call, run the same passes once on
    arrays of their own.

    predictions and output_error are (live, n) views of the output layer's
    activation and delta: write dL/dyhat into output_error before
    backward().
    """

    def __init__(self, net: Network, X: np.ndarray):
        self.net, self.X = net, X
        self.pre, self.acts = _forward_arrays(net.architecture, X)
        self.deltas = [np.empty_like(a) for a in self.pre]
        self._scratch = [np.empty_like(a) for a in self.pre[:-1]]
        self._delta_rows = [d.reshape(-1, d.shape[-1]) for d in self.deltas]
        self._input_rows = [z.reshape(-1, z.shape[-1]) for z in self.acts[:-1]]
        self._sums: dict[tuple, list] = {}
        self._gather_buffers: dict[int, list] = {}
        self._gathered: dict[tuple, list] = {}
        self.set_live(X.shape[0])

    def set_live(self, live: int) -> None:
        """Restrict every pass to slots [:live]."""
        def head(arrays):
            return [a[:live] for a in arrays]

        net = Network(self.net.architecture, self.net.params[:live])
        pre, acts, deltas = head(self.pre), head(self.acts), head(self.deltas)
        self.predictions = acts[-1][..., 0]
        self.output_error = deltas[-1][..., 0]
        self._forward = _forward_steps(net, pre, acts)
        self._backward = _backward_steps(net, pre, acts, deltas, head(self._scratch))
        self._deltas = deltas

    def forward(self) -> np.ndarray:
        """Run the forward pass; returns the predictions."""
        _run_forward(self._forward)
        return self.predictions

    def backward(self) -> list[np.ndarray]:
        """Turn dL/dyhat in output_error into the error terms of every layer."""
        _run_backward(self._backward)
        return self._deltas

    def gradient_sum(self, d_weights, d_intercepts, kept=None, start=0) -> int:
        """Per slot of the k from start on, the sum of per-instance
        gradients over all rows into the given (k, ...) per-layer arrays;
        returns the row count.

        kept, a (G, h) array of rows b*n + i (row i of slot b), sums G
        slots' kept rows instead, into (G, ...) arrays; start is then unused.
        """
        if kept is None:
            key = start, d_intercepts[0].shape[0]
            steps = self._sums.get(key)
            if steps is None:
                end = start + key[1]
                steps = self._sums[key] = _sum_steps([d[start:end] for d in self.deltas],
                                                     [z[start:end] for z in self.acts[:-1]])
            return _gradient_sum(steps, d_weights, d_intercepts)
        # The kept rows are gathered into arrays allocated once, per trim
        # count h for every slot, of which G slots use the first G: a fresh
        # gather each epoch costs page faults at large n. The rows are in
        # range, and mode="clip" writes straight into out, which the
        # default mode would buffer.
        steps = self._gathered.get(kept.shape)
        if steps is None:
            g, h = kept.shape
            layers = len(self._delta_rows)
            full = self._gather_buffers.get(h)
            if full is None:
                full = self._gather_buffers[h] = [
                    np.empty((self.X.shape[0], h, a.shape[-1]))
                    for a in self._delta_rows + self._input_rows]
            steps = self._gathered[kept.shape] = _sum_steps(
                [a[:g] for a in full[:layers]], [a[:g] for a in full[layers:]])
        for (d, _, z, _), d_rows, z_rows in zip(steps, self._delta_rows, self._input_rows):
            d_rows.take(kept, axis=0, out=d, mode="clip")
            z_rows.take(kept, axis=0, out=z, mode="clip")
        return _gradient_sum(steps, d_weights, d_intercepts)


def forward_batch(net: Network, X) -> BatchTrace:
    """Forward pass for a whole (n, p) input matrix."""
    arch = net.architecture
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != arch.input_dim:
        raise ValueError(f"expected {arch.input_dim} input columns, got {X.shape[1]}")
    pre, acts = _forward_arrays(arch, X)
    with np.errstate(over="ignore"):
        _run_forward(_forward_steps(net, pre, acts))
    return BatchTrace(pre_activations=pre, activations=acts, predictions=acts[-1][:, 0])


def predict(net: Network, X) -> np.ndarray:
    """Predictions for every row of X."""
    return forward_batch(net, X).predictions


def batch_deltas(net: Network, trace: BatchTrace, dloss_dpred) -> list[np.ndarray]:
    """Backpropagated error terms delta per layer, shape (n, L_h) each.

    dloss_dpred holds dL/dyhat per instance, which is the delta of the
    linear output layer; the hidden layers follow the chain-rule recursion
    delta_h = (W_{h+1}^T delta_{h+1}) * sigma'(a_h).
    """
    pre, acts = trace.pre_activations, trace.activations
    deltas = [np.empty_like(a) for a in pre]
    np.copyto(deltas[-1], np.asarray(dloss_dpred, dtype=np.float64).reshape(-1, 1))
    with np.errstate(over="ignore"):
        _run_backward(_backward_steps(net, pre, acts, deltas,
                                      [np.empty_like(a) for a in pre[:-1]]))
    return deltas


def mean_gradient_vector(trace: BatchTrace, deltas: list[np.ndarray], kept=None) -> np.ndarray:
    """Mean gradient over instances as a flat vector in Network's params
    layout.

    kept selects a row subset (trimmed aggregation); None averages all rows.
    """
    if kept is not None:
        kept = np.arange(trace.activations[0].shape[0])[kept]
    sizes = (trace.activations[0].shape[1], *(d.shape[1] for d in deltas))
    flat = np.empty(sum(sizes[1:]) + sum(a * b for a, b in zip(sizes, sizes[1:])))
    weights, intercepts = _split(flat, sizes)
    inputs = trace.activations[:-1]
    if kept is not None:
        deltas, inputs = [d[kept] for d in deltas], [z[kept] for z in inputs]
    steps = _sum_steps(deltas, inputs)
    n = _gradient_sum(steps, weights, intercepts)
    return np.divide(flat, n, out=flat)
