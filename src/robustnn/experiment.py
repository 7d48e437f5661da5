"""Factorial sweep runner: per-run protocol, deterministic seeding,
parallel execution and per-cell aggregation of the evaluation metrics."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property

import numpy as np

from ._spec import set_integers, set_members
from .contamination import (
    ContaminationKind,
    ContaminationSpec,
    apply_contamination,
    make_iterative_attack_hook,
)
from .datagen import (
    DataGenSpec,
    Dataset,
    fit_standardizer,
    generate_dataset,
)
from .losses import LossSpec
from .net import Activation, Architecture, BatchKernel, Network, init_weights
from .optimizer import (
    DEFAULT_DIVERGE_NORM,
    STEPMAX_DEEP,
    STEPMAX_SHALLOW,
    OptimizerSpec,
    TrainJob,
    TrainOutcome,
    TrainStatus,
    train_slots,
)


class Depth(str, Enum):
    SHALLOW = "shallow"
    DEEP = "deep"


DEPTH_HIDDEN = {Depth.SHALLOW: (10, 10), Depth.DEEP: (5,) * 10}
DEPTH_STEPMAX = {Depth.SHALLOW: STEPMAX_SHALLOW, Depth.DEEP: STEPMAX_DEEP}

STATUS_ERROR = "error"


class HeldOutSetModifiedError(RuntimeError):
    """The test set changed while a run trained on its training set."""


LOSS_ORDER = ("squared", "huber", "tukey", "trim10", "trim25", "trim50")


@dataclass
class Cell:
    """The fields that name one configuration cell, flattened for CSV output."""

    config_id: str
    structure: str
    n: int
    p: int
    activation: str
    depth: str
    standardized: bool
    cont_kind: str
    r: float
    mu_out: float
    loss: str


@dataclass(frozen=True)
class ExperimentConfig:
    """One configuration cell. What it fixes for every run of it, its id,
    scenario key, cell columns and architecture, is computed on first use
    and kept; dataclasses.replace gives a configuration that computes them
    anew."""

    data: DataGenSpec
    contamination: ContaminationSpec
    activation: Activation
    loss: LossSpec
    standardize: bool
    depth: Depth
    replications: int
    base_seed: int
    optimizer: OptimizerSpec | None = None
    diverge_norm: float = DEFAULT_DIVERGE_NORM

    def __post_init__(self):
        set_members(self, activation=Activation, depth=Depth)
        set_integers(self, "replications", "base_seed")
        if self.replications < 1:
            raise ValueError(f"replications must be positive, got {self.replications}")
        if not self.diverge_norm > 0:
            raise ValueError(f"diverge_norm must be positive, got {self.diverge_norm}")

    @property
    def scenario_id(self) -> str:
        """Identifier of everything but the loss function; one chart per scenario."""
        c = self.contamination
        return (
            f"{self.data.structure.value}_n{self.data.n_train}_p{self.data.p}"
            f"_{c.kind.value}_r{c.r:g}_m{c.mu_out:g}"
            f"_{self.activation.value}_{self.depth.value}"
            f"_{'std' if self.standardize else 'raw'}"
        )

    @cached_property
    def config_id(self) -> str:
        return f"{self.scenario_id}_{self.loss.token}"

    @cached_property
    def scenario_key(self) -> tuple:
        """What prepare_scenario reads besides the replication: the specs, and
        the strings their streams are keyed by, which tell -0.0 from 0.0 where
        the specs compare equal."""
        return (self.base_seed, self.data, _data_key(self.data), self.contamination,
                _cont_key(self.contamination), self.standardize)

    @cached_property
    def cell(self) -> Cell:
        """The cell columns of every record of this configuration."""
        c = self.contamination
        return Cell(
            config_id=self.config_id,
            structure=self.data.structure.value,
            n=self.data.n_train,
            p=self.data.p,
            activation=self.activation.value,
            depth=self.depth.value,
            standardized=self.standardize,
            cont_kind=c.kind.value,
            r=c.r,
            mu_out=c.mu_out,
            loss=self.loss.token,
        )

    def architecture(self) -> Architecture:
        return self._architecture

    @cached_property
    def _architecture(self) -> Architecture:
        return Architecture(
            input_dim=self.data.p,
            hidden_sizes=DEPTH_HIDDEN[self.depth],
            hidden_activation=self.activation,
        )

    def init_seed(self, rep: int) -> int:
        """The seed of replication rep's initial network, whose stream is
        keyed by the full configuration."""
        return derive_seed("init", self.base_seed, self.config_id, rep)

    def resolved_optimizer(self) -> OptimizerSpec:
        """Explicit optimizer if one was set, otherwise defaults with the
        depth-appropriate epoch cap."""
        if self.optimizer is not None:
            return self.optimizer
        return OptimizerSpec(stepmax=DEPTH_STEPMAX[self.depth])


def check_unique_ids(cfgs: list[ExperimentConfig]) -> None:
    """Raise ValueError if two configurations share one config_id: their
    runs would share seeds, rows and a summary cell."""
    seen = set()
    for cfg in cfgs:
        if cfg.config_id in seen:
            raise ValueError(f"configuration id '{cfg.config_id}' occurs twice: the two "
                             "differ only in keys the id leaves out, or not at all")
        seen.add(cfg.config_id)


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from the given parts (order-sensitive)."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _data_key(d: DataGenSpec) -> str:
    return f"{d.structure.value}|{d.p}|{d.n_train}|{d.n_test}|{d.snr:g}|{d.mu:g}"


def _cont_key(c: ContaminationSpec) -> str:
    return f"{c.kind.value}|{c.r:g}|{c.mu_out:g}|{c.out_sd:g}"


@dataclass
class RunRecord(Cell):
    """One training run, flattened for CSV output."""

    rep: int
    seed: int
    converged: bool
    status: str
    epochs: int
    test_loss: float | None
    sup_weight_norm: float
    breakdown: bool
    error: str | None = None

    @property
    def test_loss_finite(self) -> bool:
        return self.test_loss is not None and math.isfinite(self.test_loss)


def _fingerprint(data: Dataset) -> str:
    return hashlib.sha256(data.X.tobytes() + data.Y.tobytes()).hexdigest()


@dataclass
class PreparedScenario:
    """Everything one replication of a scenario trains on and is evaluated
    against, the same for each of the scenario's losses. Runs that share it
    only read it: train copies the training set into buffers of its own,
    the attacker's hook returns new responses, and the training arrays and
    attacked rows are marked read-only. The test set is checked against its
    fingerprint after every run."""

    train: Dataset          # contaminated; responses standardized if configured
    test: Dataset           # never contaminated, raw responses
    y_test: np.ndarray      # test responses on the training responses' scale
    test_fingerprint: str   # hash of test when prepared
    attacked: np.ndarray | None  # the adaptive attacker's rows, or None
    hook: object            # the adaptive attacker's epoch_end_hook, or None


@dataclass
class PreparedRun:
    """One replication of one configuration, ready to train."""

    cfg: ExperimentConfig
    rep: int
    seed: int               # the network initialization's seed
    scenario: PreparedScenario
    net: Network            # initial network

    def job(self, tag) -> TrainJob:
        """The run's training job: its initial network, training set, loss,
        divergence level and attacker."""
        return TrainJob(self.net, self.scenario.train, self.cfg.loss, self.cfg.diverge_norm,
                        epoch_end_hook=self.scenario.hook, tag=tag)


def prepare_scenario(cfg: ExperimentConfig, rep: int) -> PreparedScenario:
    """Build the data, contamination, standardizer and attacker of one
    replication of cfg's scenario: all of prepare_run but the initial
    network.

    Data generation and contamination draw from scenario-scoped streams, so
    the loss functions of one scenario see identical datasets. Raises
    ValueError when the training responses cannot be standardized:
    DegenerateStandardizationError when they are all equal.
    """
    if not 0 <= rep < cfg.replications:
        raise ValueError(f"rep must lie in [0, {cfg.replications}), got {rep}")
    base, data, dkey, contamination, ckey, standardize = cfg.scenario_key

    rng_data = np.random.default_rng(derive_seed("data", base, dkey, rep))
    train_ds, test_ds = generate_dataset(data, rng_data)
    test_fingerprint = _fingerprint(test_ds)

    rng_cont = np.random.default_rng(derive_seed("cont", base, dkey, ckey, rep))
    train_c = apply_contamination(train_ds, contamination, rng_cont)

    if standardize:
        transform = fit_standardizer(train_c.Y)
        y_train = transform.apply(train_c.Y)
        y_test = transform.apply(test_ds.Y)
    else:
        y_train = train_c.Y
        y_test = test_ds.Y

    attacked = hook = None
    if contamination.kind == ContaminationKind.Y_ITERATIVE:
        attacked, hook = make_iterative_attack_hook(
            train_c.n, rng_cont, eps=contamination.mu_out)
    for shared in (train_c.X, y_train, attacked):
        if shared is not None:
            shared.flags.writeable = False
    return PreparedScenario(Dataset(train_c.X, y_train), test_ds, y_test, test_fingerprint,
                            attacked, hook)


def _prepare_net(cfg: ExperimentConfig, rep: int, scenario: PreparedScenario) -> PreparedRun:
    """The per-run part of preparation: the initial network, drawn from a
    stream keyed by the full configuration."""
    seed = cfg.init_seed(rep)
    net = init_weights(cfg.architecture(), np.random.default_rng(seed))
    return PreparedRun(cfg, rep, seed, scenario, net)


def prepare_run(cfg: ExperimentConfig, rep: int) -> PreparedRun:
    """Build the data, contamination, standardizer, attacker and initial
    network of one replication: prepare_scenario, then the network.

    Raises what prepare_scenario raises.
    """
    return _prepare_net(cfg, rep, prepare_scenario(cfg, rep))


def _error_record(cfg: ExperimentConfig, rep: int, error: str) -> RunRecord:
    return RunRecord(
        **vars(cfg.cell),
        rep=rep,
        seed=cfg.init_seed(rep),
        converged=False,
        status=STATUS_ERROR,
        epochs=0,
        test_loss=None,
        sup_weight_norm=float("nan"),
        breakdown=False,
        error=error,
    )


def _record(prep: PreparedRun, outcome: TrainOutcome, kernels: dict) -> RunRecord:
    """The record of a trained run, with its test loss if it converged.

    The test predictions go through a one-slot BatchKernel over a
    (1, n_test, p) input, kept in kernels by the test inputs' shape: the
    run's final parameters and test inputs are copied into its buffers and
    slot 0 is predicted. kernels holds the kernels of one architecture.
    The test set bypasses contamination entirely, which is checked via a
    byte hash; raises HeldOutSetModifiedError if it changed.
    """
    scenario = prep.scenario
    test_loss = None
    if outcome.status == TrainStatus.CONVERGED:
        X, net = scenario.test.X, outcome.final_net
        kernel = kernels.get(X.shape)
        if kernel is None:
            kernel = kernels[X.shape] = BatchKernel(
                Network(net.architecture, np.empty((1, *net.params.shape))),
                np.empty((1, *X.shape)))
        kernel.net.params[0] = net.params
        kernel.X[0] = X
        with np.errstate(over="ignore", invalid="ignore"):
            preds = kernel.forward()[0]
            test_loss = float(np.mean((preds - scenario.y_test) ** 2))

    if _fingerprint(scenario.test) != scenario.test_fingerprint:
        raise HeldOutSetModifiedError("test set was modified during the run")

    return RunRecord(
        **vars(prep.cfg.cell),
        rep=prep.rep,
        seed=prep.seed,
        converged=outcome.status == TrainStatus.CONVERGED,
        status=outcome.status.value,
        epochs=outcome.epochs_used,
        test_loss=test_loss,
        sup_weight_norm=outcome.sup_weight_norm,
        breakdown=outcome.breakdown,
    )


def _run_queue(tasks: list[tuple[ExperimentConfig, int]]) -> list[RunRecord]:
    """Train a queue of same-shape (configuration, replication) tasks side
    by side, preparing each run when a slot is free for it; one record per
    task, each equal to the record of training that run alone. The runs of
    one scenario replication share its preparation, which is held until the
    queue moves on to another scenario. A run that fails is recorded as an
    error, with its exception's type and message, and the rest of the queue
    trains on."""
    records: dict[int, RunRecord] = {}

    def fail(i: int, exc: Exception) -> None:
        cfg, rep = tasks[i]
        records[i] = _error_record(cfg, rep, f"{type(exc).__name__}: {exc}")

    def jobs():
        held: dict[int, PreparedScenario] = {}  # the current scenario's, by replication
        scenario = None
        for i, (cfg, rep) in enumerate(tasks):
            if cfg.scenario_key != scenario:
                scenario = cfg.scenario_key
                held.clear()
            try:
                if rep not in held:
                    held[rep] = prepare_scenario(cfg, rep)
                prep = _prepare_net(cfg, rep, held[rep])
            except Exception as exc:
                fail(i, exc)
                continue
            yield prep.job(tag=(i, prep))

    try:
        kernels: dict[tuple, BatchKernel] = {}  # _record's, by test-input shape
        for job, outcome in train_slots(jobs(), tasks[0][0].resolved_optimizer()):
            i, prep = job.tag
            try:
                if isinstance(outcome, Exception):
                    raise outcome
                records[i] = _record(prep, outcome, kernels)
            except Exception as exc:
                fail(i, exc)
    except Exception as exc:  # record, never abort the sweep
        for i in range(len(tasks)):
            if i not in records:
                fail(i, exc)
    return list(records.values())


def _queues(tasks: list, parallelism: int) -> list[list]:
    """The tasks split into queues of one shape: one architecture, training
    set size and optimizer. Each shape's scenario replications are dealt
    round robin into `parallelism` queues, each kept in task order, so that
    one queue prepares each of them; a shape with fewer scenario
    replications than workers is dealt run by run instead, so that small
    sweeps still fill every worker."""
    by_shape: dict[tuple, list] = {}
    cfg = key = None
    for task in tasks:
        if task[0] is not cfg:
            cfg = task[0]
            key = (cfg.architecture(), cfg.data.n_train, cfg.resolved_optimizer())
        by_shape.setdefault(key, []).append(task)
    queues = []
    for group in by_shape.values():
        units: dict[tuple, int] = {}
        unit = [units.setdefault((cfg.scenario_key, rep), len(units)) for cfg, rep in group]
        if len(units) < parallelism:
            unit = range(len(group))
        k = min(parallelism, len(group))
        queues += [[task for task, u in zip(group, unit) if u % k == i] for i in range(k)]
    return queues


def run_sweep(cfgs: list[ExperimentConfig], parallelism: int = 1) -> list[RunRecord]:
    """Execute every (configuration, replication) pair.

    Runs of one shape train side by side (see _run_queue), each one's
    record equal to the record of training that run alone. The output is
    sorted by (config_id, rep), so the result is independent of scheduling
    and of the degree of parallelism. Two configurations with one
    config_id are a ValueError (see check_unique_ids).
    """
    if parallelism < 1:
        raise ValueError("parallelism must be positive")
    check_unique_ids(cfgs)
    tasks = [(cfg, rep) for cfg in cfgs for rep in range(cfg.replications)]
    queues = _queues(tasks, parallelism)
    if parallelism == 1 or len(queues) <= 1:
        records = [rec for queue in queues for rec in _run_queue(queue)]
    else:
        # imported here, so that importing robustnn does not pay for it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(parallelism, len(queues))) as pool:
            records = [rec for recs in pool.map(_run_queue, queues) for rec in recs]
    records.sort(key=lambda rec: (rec.config_id, rec.rep))
    return records


@dataclass
class CellSummary(Cell):
    """Aggregated metrics of one configuration cell."""

    replications: int
    n_converged: int
    n_inf_losses: int
    mean_finite_test_loss: float | None
    mean_epochs_converged: float | None
    breakdown_rate_surrogate: float


def summarize(records: list[RunRecord]) -> list[CellSummary]:
    """Reduce run records to per-cell summaries.

    Test losses are averaged over converged runs with finite loss; converged
    runs whose loss overflowed are only counted (n_inf_losses). A cell where
    nothing converged keeps absent means. The breakdown surrogate is the
    fraction of replications that failed to converge.
    """
    groups: dict[str, list[RunRecord]] = {}
    for rec in records:
        groups.setdefault(rec.config_id, []).append(rec)
    out = []
    for config_id in sorted(groups):
        recs = sorted(groups[config_id], key=lambda rec: rec.rep)
        v = len(recs)
        converged = [rec for rec in recs if rec.converged]
        finite = [rec.test_loss for rec in converged if rec.test_loss_finite]
        n_inf = sum(1 for rec in converged if not rec.test_loss_finite)
        out.append(CellSummary(
            **{f.name: getattr(recs[0], f.name) for f in fields(Cell)},
            replications=v,
            n_converged=len(converged),
            n_inf_losses=n_inf,
            mean_finite_test_loss=float(np.mean(finite)) if finite else None,
            mean_epochs_converged=(
                float(np.mean([rec.epochs for rec in converged])) if converged else None),
            breakdown_rate_surrogate=(v - len(converged)) / v,
        ))
    return out
