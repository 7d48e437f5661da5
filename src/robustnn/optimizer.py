"""Sign-based training: resilient backpropagation (Rprop+) and plain
sign gradient descent, with the full-batch epoch loop, convergence check
and divergence/breakdown bookkeeping.

Both update rules use the gradient only through its sign, so scaling all
gradients by a positive constant leaves the parameter trajectory untouched.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import losses as L
from ._spec import set_integers, set_members
from .net import BatchKernel, Network, count_parameters

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
        set_members(self, rule=Rule)
        set_integers(self, "stepmax")
        # each check is written so that NaN fails it; the messages start
        # with the field name, which the CLI prefixes with its config key
        if not 0.0 < self.eta_minus < 1.0:
            raise ValueError(f"eta_minus must lie in (0, 1), got {self.eta_minus}")
        if not self.eta_plus > 1.0:
            raise ValueError(f"eta_plus must exceed 1, got {self.eta_plus}")
        if not self.delta_min > 0:
            raise ValueError(f"delta_min must be positive, got {self.delta_min}")
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


def _in_place_update(spec: OptimizerSpec, shape,
                     steps: np.ndarray | None = None, signs: np.ndarray | None = None):
    """The update rule as a function (params, g) that moves params of the
    given shape in place, with scratch arrays allocated once. Every
    operation is elementwise, so each row of a (B, P) stack moves exactly as
    one run's (P,) parameters would.

    Rprop+ also moves its per-parameter step sizes and previous gradient
    signs in place: the given arrays, or fresh ones starting at delta0 and 0.
    """
    s = np.empty(shape)
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
    # A NaN sign product is neutral.
    #
    # The cases are selected arithmetically, not by masked writes, whose
    # branches mispredict on random sign patterns. With s = sign(g), f = 1
    # where the sign flipped and 0 elsewhere, Δ the step sizes before the
    # update and Δ' after it:
    #   step factor  (1, η+, η-)[grew - flipped]  (index -1 is the last entry)
    #   stored sign  s - s*f                      (+0.0 where flipped)
    #   parameter    ((p - stored*Δ') - s*f*Δ) + 0.0
    # Where the sign flipped, stored*Δ' is 0 and -s*f*Δ = prev_sign*Δ
    # reverts the previous update. The closing + 0.0 turns -0.0 into +0.0,
    # as adding a +0.0 revert to an unflipped parameter does, so every
    # value, signed zeros included, equals the masked form's.
    if steps is None:
        steps = np.full(shape, spec.delta0, dtype=np.float64)
        signs = np.zeros(shape, dtype=np.float64)
    factors = np.array([1.0, spec.eta_plus, spec.eta_minus])
    delta_min, delta_max = spec.delta_min, spec.delta_max
    prod, sf, revert, factor, move = (np.empty(shape) for _ in range(5))
    grew, flipped = (np.empty(shape, dtype=bool) for _ in range(2))
    grew_i, flipped_i = grew.view(np.int8), flipped.view(np.int8)
    case = np.empty(shape, dtype=np.int8)

    def rprop_plus(params, g):
        np.sign(g, out=s)
        np.multiply(s, signs, out=prod)
        np.greater(prod, 0.0, out=grew)
        np.less(prod, 0.0, out=flipped)
        np.subtract(grew_i, flipped_i, out=case)
        factors.take(case, out=factor)
        np.multiply(s, flipped, out=sf)
        np.multiply(sf, steps, out=revert)
        np.subtract(s, sf, out=signs)
        np.multiply(steps, factor, out=steps)
        np.maximum(steps, delta_min, out=steps)
        np.minimum(steps, delta_max, out=steps)
        np.multiply(signs, steps, out=move)
        np.subtract(params, move, out=params)
        np.subtract(params, revert, out=params)
        np.add(params, 0.0, out=params)

    return rprop_plus


def _as_xy(data):
    if hasattr(data, "X") and hasattr(data, "Y"):
        return data.X, data.Y
    x, y = data
    return x, y


# Runs train_slots trains side by side unless told otherwise. Measured on
# the desk-sweep benchmark (2400 runs of p=5, n=150, 181 parameters, Rprop+,
# six losses, run --parallel 2) on a shared 2-core Xeon with numpy 2.4 and
# OpenBLAS 0.3.31, in alternating pairs at one seed: 12 slots against 6 won
# 4 of 4 pairs, 620 -> 652 runs/s in the median. Against 12, in 3 pairs
# each, 8 slots read 617 runs/s (12: 669), 16 read 659 (666) and 24 read
# 671 (664): alike within noise, so 12 keeps fewer runs in memory than the
# larger counts for the same speed.
SLOTS = 12


@dataclass
class TrainJob:
    """One run for train_slots: the initial network, which is never
    modified, its data, loss and divergence level, the callbacks train
    takes, and a tag by which the caller recognises the run when it ends."""

    net: Network
    data: object
    loss: L.LossSpec
    diverge_norm: float = DEFAULT_DIVERGE_NORM
    record_norms: bool = False
    grad_transform: Callable | None = None
    epoch_end_hook: Callable | None = None
    tag: object = None


def _checked(job: TrainJob):
    """The job's inputs as float arrays, copied only if they are not
    already; raises ValueError for inputs train rejects."""
    arch = job.net.architecture
    X, Y = _as_xy(job.data)
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != arch.input_dim or Y.shape != (X.shape[0],):
        raise ValueError("data shapes do not match the network architecture")
    if X.shape[0] == 0:
        raise ValueError("training data must be non-empty")
    return X, Y


class _Slot:
    """What one occupied slot holds besides its rows of the stacked arrays."""

    __slots__ = ("job", "first", "sup", "norms")

    def __init__(self, job: TrainJob, first: int, norm0: float):
        self.job = job
        self.first = first      # the batch epoch that is this run's epoch 1
        self.sup = norm0        # running maximum of the parameter norm
        self.norms = [norm0] if job.record_norms else None


class _LossGroup:
    """The adjacent live slots [start, start + count) that share one loss:
    per epoch, their per-instance losses, objectives, dL/dyhat, for a
    trimmed loss their kept rows, and their mean gradients, read and
    written through views of the stacked arrays."""

    def __init__(self, batch: "_Slots", spec: L.LossSpec, start: int, count: int):
        n, end = batch.n, start + count
        self.spec, self.start, self.count = spec, start, count
        self.value, self.gradient = L._KERNELS[spec.kind]
        self.adaptive = spec.adaptive_huber
        self.constant = None if self.adaptive else L._constant(spec, None)
        self.kth = L._median_kth(n)
        self.abs_r = np.empty((count, n)) if self.adaptive else None
        self.h = L.trim_count(n, spec.trim_alpha) if spec.is_trimmed else None
        # a row of the group's losses -> that row in the kernel's (B*n) rows
        self.row_shift = start * n
        self.r, self.error = batch.r[start:end], batch.kernel.deltas[-1][start:end, :, 0]
        self.grad = Network(batch.arch, batch.grad[start:end])
        self.per = self.delta = self.kept = None

    def losses(self) -> list[float]:
        """Per-instance losses and dL/dyhat of the group's runs, and their
        kept rows if trimmed; returns each run's objective, the sum of its
        (kept) losses."""
        r, c = self.r, self.constant
        if self.adaptive:
            c = self.delta = L._floored_median(np.abs(r, out=self.abs_r), self.kth)
        per = self.per = self.value(r, c)
        if self.h is None:
            sums = np.add.reduce(per, axis=1)
        else:
            kept = L._trim_rows(per, self.h)
            self.kept = kept + self.row_shift
            sums = np.add.reduce(per.take(kept), axis=1)
        np.negative(self.gradient(r, c), out=self.error)
        return sums.tolist()

    def mean_gradient(self, kernel: BatchKernel) -> None:
        """Each run's mean gradient over its (kept) rows, after the backward pass."""
        grad = self.grad
        rows = kernel.gradient_sum(grad.weights, grad.intercepts, self.kept, self.start)
        np.divide(grad.params, rows, out=grad.params)


class _Slots:
    """The stacked state of up to `capacity` runs of one shape: parameters,
    Rprop+ step sizes and signs, inputs, responses and the kernel over
    them. Occupied slots are kept at the front, each loss's slots side by
    side, and every stacked operation runs on the [:live] prefix."""

    def __init__(self, arch, n: int, spec: OptimizerSpec, capacity: int):
        n_params = count_parameters(arch)[2]
        self.arch, self.n, self.spec, self.capacity = arch, n, spec, capacity
        self.params = np.zeros((capacity, n_params))
        self.grad = np.zeros((capacity, n_params))
        self.abs_g = np.empty((capacity, n_params))
        self.steps = np.empty((capacity, n_params))
        self.signs = np.empty((capacity, n_params))
        self.X = np.zeros((capacity, n, arch.input_dim))
        self.Y = np.zeros((capacity, n))
        self.r = np.empty((capacity, n))
        self.kernel = BatchKernel(Network(arch, self.params), self.X)
        self.slots: list[_Slot | None] = []
        # the loss of each slot's run, or of its last run while it is free
        self.losses: list[L.LossSpec] = []
        self.groups: list[_LossGroup] = []
        self.epoch = 0
        self.live = None

    def has_room(self) -> bool:
        return len(self.slots) < self.capacity or None in self.slots

    def load(self, job: TrainJob, X: np.ndarray, Y: np.ndarray) -> None:
        """Put a job, its inputs checked, into a free slot: one whose last
        run had the job's loss if there is one, which leaves the layout as it
        was. The job's parameters, inputs and responses are copied straight
        into the slot's rows. Raises ValueError, and leaves the slot free,
        for a run of another shape or one whose initial norm is not below
        its divergence level."""
        if job.net.architecture != self.arch or X.shape[0] != self.n:
            raise ValueError("run shape differs from the shape of the other runs")
        free = [b for b, slot in enumerate(self.slots) if slot is None]
        b = next((b for b in free if self.losses[b] == job.loss),
                 free[0] if free else len(self.slots))
        params = self.params[b]
        params[:] = job.net.params
        norm0 = math.sqrt(params.dot(params))  # as np.linalg.norm computes it
        if not norm0 < job.diverge_norm:
            raise ValueError("diverge_norm must exceed the initial weight norm")
        slot = _Slot(job, self.epoch + 1, norm0)
        if b == len(self.slots):
            self.slots.append(slot)
            self.losses.append(job.loss)
        else:
            self.slots[b] = slot
            self.losses[b] = job.loss
        self.steps[b] = self.spec.delta0
        self.signs[b] = 0.0
        self.X[b] = X
        self.Y[b] = Y

    def arrange(self) -> None:
        """Move the occupied slots to the front, each loss's slots side by
        side, and lay the views, update and loss groups over them. The order
        is a stable sort on the first slot of each loss, and each run's
        stacked rows move with it. When every slot was refilled with a run
        of its last run's loss, the sort is the identity: nothing moves and
        every loss group laid out before stays."""
        occupied = [(b, slot.job.loss) for b, slot in enumerate(self.slots) if slot is not None]
        first = {loss: b for b, loss in reversed(occupied)}
        occupied.sort(key=lambda item: first[item[1]])
        source = [b for b, _ in occupied]
        moved = [b for b, src in enumerate(source) if b != src]
        take = [source[b] for b in moved]
        if moved:  # most calls move nothing, which fancy indexing does not do for free
            for a in (self.params, self.steps, self.signs, self.X, self.Y):
                a[moved] = a[take]
        self.slots = [self.slots[src] for src in source]
        self.losses = [loss for _, loss in occupied]

        live = len(self.slots)
        if live != self.live:
            self.live = live
            self.kernel.set_live(live)
            self.update = _in_place_update(self.spec, (live, self.params.shape[1]),
                                           self.steps[:live], self.signs[:live])
            self.param_rows = list(self.params[:live])
        spans: dict[L.LossSpec, list[int]] = {}
        for b, loss in enumerate(self.losses):
            spans.setdefault(loss, [b, 0])[1] += 1
        # a group whose slots did not move keeps its buffers
        known = {(g.spec, g.start, g.count): g for g in self.groups}
        self.groups = [known.get((spec, start, count)) or _LossGroup(self, spec, start, count)
                       for spec, (start, count) in spans.items()]

    def prepare(self) -> None:
        """The callback lists and epoch cap of the runs in the slots, as
        arrange() left them."""
        self.recording = [(b, slot.norms) for b, slot in enumerate(self.slots)
                          if slot.norms is not None]
        self.transformed = [(b, slot.job.grad_transform) for b, slot in enumerate(self.slots)
                            if slot.job.grad_transform is not None]
        self.hooked = [(b, self.slots[b].job.epoch_end_hook, g, b - g.start)
                       for g in self.groups for b in range(g.start, g.start + g.count)
                       if self.slots[b].job.epoch_end_hook is not None]
        self.cap_epoch = min(slot.first for slot in self.slots) + self.spec.stepmax - 1

    def _end(self, ended: dict, b: int, status: TrainStatus) -> None:
        slot = self.slots[b]
        ended[b] = TrainOutcome(
            status=status,
            epochs_used=self.epoch - slot.first + 1,
            final_net=Network(self.arch, self.params[b].copy()),
            sup_weight_norm=slot.sup,
            breakdown=status == TrainStatus.DIVERGED or slot.sup >= slot.job.diverge_norm,
            norm_history=None if slot.norms is None else list(slot.norms),
        )

    def run(self) -> dict:
        """Epochs of every live slot until at least one run ends; returns
        {slot: TrainOutcome, or the exception a callback raised} for the
        runs that ended.

        Each slot goes through one run's epoch: forward pass, losses,
        divergence check on the objective, gradient, convergence check,
        update, norm and its divergence check, attacker hook, epoch cap.
        The stacked steps run for every live slot, but a run that ends is
        snapshotted when it ends and left out of the checks and callbacks
        after that.
        """
        live, spec, slots, end = self.live, self.spec, self.slots, self._end
        kernel, groups, Y, r = self.kernel, self.groups, self.Y[:live], self.r[:live]
        params, grad, abs_g = self.params[:live], self.grad[:live], self.abs_g[:live]
        param_rows, cap_epoch = self.param_rows, self.cap_epoch
        update, threshold, stepmax = self.update, spec.grad_threshold, spec.stepmax
        recording, transformed, hooked = self.recording, self.transformed, self.hooked
        ended: dict = {}
        epoch = self.epoch
        while not ended:
            self.epoch = epoch = epoch + 1
            predictions = kernel.forward()
            np.subtract(Y, predictions, out=r)
            for g in groups:
                sums = g.losses()
                # sums of non-negative losses: their total is finite exactly
                # when each of them is, barring overflow of the total
                if not math.isfinite(sum(sums)):
                    for b, total in enumerate(sums, g.start):
                        if not math.isfinite(total):
                            end(ended, b, TrainStatus.DIVERGED)

            kernel.backward()
            for g in groups:
                g.mean_gradient(kernel)
            for b, transform in transformed:
                if b not in ended:
                    try:
                        g_b = grad[b]
                        out = transform(g_b)
                        if out is not g_b:
                            grad[b] = out
                    except Exception as exc:
                        ended[b] = exc
            g_max = np.maximum.reduce(np.abs(grad, out=abs_g), axis=1).tolist()
            # a slot's largest |g| is non-finite exactly when some entry is
            if not (math.isfinite(sum(g_max)) and min(g_max) >= threshold):
                for b, m in enumerate(g_max):
                    if b not in ended:
                        if not math.isfinite(m):
                            end(ended, b, TrainStatus.DIVERGED)
                        elif m < threshold:
                            end(ended, b, TrainStatus.CONVERGED)

            update(params, grad)
            # per slot as np.linalg.norm computes it
            norms = [math.sqrt(v.dot(v)) for v in param_rows]
            for b, history in recording:
                history.append(norms[b])
            for slot, x in zip(slots, norms):
                if x > slot.sup:
                    slot.sup = x
            if not math.isfinite(sum(norms)):
                for b, x in enumerate(norms):
                    if b not in ended and not math.isfinite(x):
                        end(ended, b, TrainStatus.DIVERGED)

            for b, hook, g, j in hooked:
                if b not in ended:
                    try:
                        new_y = hook(epoch - slots[b].first + 1, predictions[b], g.per[j], Y[b])
                        if new_y is not None:
                            Y[b] = new_y
                    except Exception as exc:
                        ended[b] = exc
            if epoch == cap_epoch:
                for b, slot in enumerate(slots):
                    if b not in ended and epoch - slot.first + 1 == stepmax:
                        end(ended, b, TrainStatus.STEP_LIMIT)
        return ended


def train_slots(jobs: Iterable[TrainJob], spec: OptimizerSpec,
                slots: int = SLOTS) -> Iterator[tuple[TrainJob, TrainOutcome | Exception]]:
    """Train runs of one shape side by side and yield (job, outcome) as each
    run ends, in the order they end.

    Runs of one shape share the architecture and the number of training
    rows, and here also the optimizer spec; losses, data, initial networks,
    divergence levels and callbacks are per run. Up to `slots` runs train
    at once as one stacked batch. A run that converges, diverges or hits
    the epoch cap leaves its slot at once, and the next job is taken from
    `jobs` then, so a job (and whatever it takes to build it) is only drawn
    when there is a slot for it. Every run's TrainOutcome is bit-identical
    to train on that run alone.

    A job that train would reject, a run of another shape included, is
    yielded with the ValueError as its outcome; a run whose callback raises
    is yielded with that exception. The remaining runs train on.
    """
    if slots < 1:
        raise ValueError(f"slots must be positive, got {slots}")
    pending = iter(jobs)
    batch = None
    while True:
        while batch is None or batch.has_room():
            job = next(pending, None)
            if job is None:
                break
            try:
                X, Y = _checked(job)
                if batch is None:
                    batch = _Slots(job.net.architecture, X.shape[0], spec, slots)
                batch.load(job, X, Y)
            except ValueError as exc:
                yield job, exc
        if batch is None:
            return
        batch.arrange()
        if not batch.slots:
            return
        batch.prepare()
        # divergence shows up as inf/nan and is detected and reported;
        # numpy's overflow warnings would only add noise to legitimate sweeps
        with np.errstate(over="ignore", invalid="ignore"):
            ended = batch.run()
        for b in sorted(ended):
            job = batch.slots[b].job
            batch.slots[b] = None
            yield job, ended[b]


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

    This is train_slots with one slot: the parameters live in a flat
    buffer, a copy of net's, which the update moves in place; net itself is
    never modified. Every per-run choice (activations, loss, trimming,
    update rule) is resolved before the first epoch, so an epoch is only
    the arithmetic.
    """
    job = TrainJob(net, data, loss_spec, diverge_norm, record_norms,
                   grad_transform, epoch_end_hook)
    (_, outcome), = train_slots([job], spec, slots=1)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
