"""train_slots against train: runs trained side by side, with slots
refilled as runs end and drained at the end, must each come out bit for bit
as train gives them alone. run_sweep, which trains its queues through
train_slots, must give the record of each run trained alone, as
oracle.record_alone makes it apart from the queue."""

import collections
import concurrent.futures
import dataclasses
import sys

import numpy as np
import pytest
from oracle import record_alone

from robustnn import experiment as E
from robustnn import losses as L
from robustnn import optimizer as O
from robustnn.contamination import (
    ContaminationKind,
    ContaminationSpec,
    apply_contamination,
    make_iterative_attack_hook,
)
from robustnn.datagen import DataGenSpec, Structure, generate_dataset
from robustnn.net import Activation, Architecture, init_weights
from robustnn.optimizer import (
    SLOTS,
    OptimizerSpec,
    Rule,
    TrainJob,
    TrainOutcome,
    TrainStatus,
    train,
    train_slots,
)

STUDY_LOSSES = [L.LossSpec.squared(), L.LossSpec.huber(), L.LossSpec.tukey(),
                L.LossSpec.trimmed(0.1), L.LossSpec.trimmed(0.25), L.LossSpec.trimmed(0.5),
                L.LossSpec.huber(0.5)]
DEPTHS = {"shallow": (10, 10), "deep": (5,) * 10}


def bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def assert_same_outcome(got, want):
    assert isinstance(got, TrainOutcome), got
    assert got.status == want.status
    assert got.epochs_used == want.epochs_used
    assert bits(got.sup_weight_norm) == bits(want.sup_weight_norm)
    assert got.breakdown == want.breakdown
    if want.norm_history is None:
        assert got.norm_history is None
    else:
        assert bits(got.norm_history) == bits(want.norm_history)
    assert bits(got.final_net.params) == bits(want.final_net.params)
    assert got.final_net.architecture == want.final_net.architecture


def blow_up_at(epoch_of_blow_up):
    """A hook that makes every response overflow the loss from the next epoch."""
    def hook(epoch, predictions, losses, y):
        return np.full_like(y, 1e200) if epoch == epoch_of_blow_up else None
    return hook


def scale_gradient(g):
    g *= 3.7
    return g


def make_jobs(arch, rng, count, n=60):
    """count runs of one shape with mixed losses, data, starting points and
    callbacks: attacked runs, runs that diverge at epoch 1 or mid-run,
    norm recording and a gradient transform. Every job carries a factory
    for fresh callbacks in its tag, so train can replay it alone."""
    jobs = []
    for i in range(count):
        spec = DataGenSpec(p=arch.input_dim, n_train=n, n_test=10, structure=Structure.LIN)
        seed = int(rng.integers(1 << 30))
        train_ds, _ = generate_dataset(spec, np.random.default_rng(seed))
        cont = ContaminationSpec(ContaminationKind.Y_CONVEX, r=0.25, mu_out=100.0)
        data = apply_contamination(train_ds, cont, np.random.default_rng(seed + 1))
        y = (data.Y - data.Y.min()) / (data.Y.max() - data.Y.min())
        kind = i % 6
        if kind == 1:
            y = np.full(n, 1e200)           # diverges at epoch 1

        def callbacks(kind=kind, seed=seed):
            if kind == 2:
                _, hook = make_iterative_attack_hook(n, np.random.default_rng(seed + 2), eps=1.0)
                return dict(epoch_end_hook=hook, record_norms=True)
            if kind == 3:
                return dict(epoch_end_hook=blow_up_at(int(seed % 20) + 2))
            if kind == 4:
                return dict(grad_transform=scale_gradient, record_norms=True)
            return {}

        net = init_weights(arch, np.random.default_rng(seed + 3))
        loss = STUDY_LOSSES[int(rng.integers(len(STUDY_LOSSES)))]
        if kind in (1, 3):
            # losses that overflow on huge residuals, so these runs diverge
            loss = STUDY_LOSSES[(0, 5)[i % 2]]
        jobs.append(TrainJob(net, (data.X, y), loss, tag=(i, callbacks), **callbacks()))
    return jobs


def recorded(kwargs, calls):
    """The callbacks with their hook wrapped to record every call's epoch
    and the bytes of the arrays it was given."""
    hook = kwargs.get("epoch_end_hook")
    if hook is None:
        return kwargs

    def recording(epoch, predictions, losses, y):
        calls.append((epoch, bits(predictions), bits(losses), bits(y)))
        return hook(epoch, predictions, losses, y)

    return {**kwargs, "epoch_end_hook": recording}


def check_against_train(jobs, spec, slots):
    """Each job's outcome, and every call of its hook, as train alone gives them."""
    calls = {job.tag[0]: [] for job in jobs}
    jobs = [dataclasses.replace(job, **recorded(job.tag[1](), calls[job.tag[0]]))
            for job in jobs]
    outcomes = {}
    for job, outcome in train_slots(jobs, spec, slots=slots):
        assert job.tag[0] not in outcomes
        outcomes[job.tag[0]] = outcome
    assert sorted(outcomes) == [job.tag[0] for job in jobs]
    for job in jobs:
        alone = []
        want = train(job.net, job.data, job.loss, spec, job.diverge_norm,
                     **recorded(job.tag[1](), alone))
        assert_same_outcome(outcomes[job.tag[0]], want)
        assert calls[job.tag[0]] == alone
        # the hook ends every epoch the run completes, and no later one
        if job.epoch_end_hook is not None:
            last = want.epochs_used - (want.status != TrainStatus.STEP_LIMIT)
            assert [call[0] for call in alone] == list(range(1, last + 1))
    return outcomes


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("activation", [Activation.LOGISTIC, Activation.SOFTPLUS])
@pytest.mark.parametrize("rule", Rule)
def test_slots_match_train_run_by_run(rule, activation, depth):
    rng = np.random.default_rng(sum(map(ord, rule.value + activation.value + depth)))
    arch = Architecture(4, DEPTHS[depth], activation)
    jobs = make_jobs(arch, rng, count=14 if depth == "shallow" else 8)
    spec = OptimizerSpec(rule=rule, stepmax=120 if depth == "shallow" else 60,
                         grad_threshold=0.02)
    outcomes = check_against_train(jobs, spec, slots=4)
    statuses = {o.status for o in outcomes.values()}
    assert TrainStatus.DIVERGED in statuses
    # runs of different lengths, so slots were refilled while others trained
    assert len({o.epochs_used for o in outcomes.values()}) > 2


@pytest.mark.parametrize("slots", sorted({1, 2, 3, 6, SLOTS, 20}))
def test_slot_count_does_not_change_outcomes(slots):
    arch = Architecture(3, (6, 4), Activation.LOGISTIC)
    jobs = make_jobs(arch, np.random.default_rng(slots), count=12, n=30)
    check_against_train(jobs, OptimizerSpec(stepmax=200), slots=slots)


def test_every_study_loss_side_by_side():
    # the six study losses and fixed Huber, all in the slots at once
    arch = Architecture(4, (10, 10), Activation.LOGISTIC)
    jobs = make_jobs(arch, np.random.default_rng(5), count=len(STUDY_LOSSES))
    jobs = [dataclasses.replace(job, loss=loss) for job, loss in zip(jobs, STUDY_LOSSES)]
    check_against_train(jobs, OptimizerSpec(stepmax=150), slots=len(jobs))


def test_a_trimmed_run_refilled_between_untrimmed_ones():
    # slots 0 and 2 train squared and Huber runs; slot 1's run diverges at
    # epoch 1 and a trimmed run takes its place, where it stays: the
    # squared, trimmed and Huber groups each sum their own slots' gradients
    arch = Architecture(4, (10, 10), Activation.LOGISTIC)
    jobs = make_jobs(arch, np.random.default_rng(21), count=6)
    losses = [L.LossSpec.squared(), L.LossSpec.squared(), L.LossSpec.huber(),
              L.LossSpec.trimmed(0.25), L.LossSpec.trimmed(0.1)]
    order = [jobs[0], jobs[1], jobs[4], jobs[5], jobs[2]]
    order = [dataclasses.replace(job, loss=loss, tag=(k, job.tag[1]))
             for k, (job, loss) in enumerate(zip(order, losses))]
    outcomes = check_against_train(order, OptimizerSpec(stepmax=150), slots=3)
    first, diverged, huber = outcomes[0], outcomes[1], outcomes[2]
    assert (diverged.status, diverged.epochs_used) == (TrainStatus.DIVERGED, 1)
    assert first.epochs_used > 1 and huber.epochs_used > 1


def test_a_refill_with_the_loss_it_replaces_moves_nothing(monkeypatch):
    # each run that ends is replaced by a run of its loss, as in a queue in
    # configuration order: the refill keeps every loss group, the update and
    # every stacked row where they were. The squared and Huber runs that
    # train first both diverge at epoch 1, and the Huber run is replaced
    # first, so it must go to the slot the Huber run left, not to the first
    # free one.
    arch = Architecture(4, (10, 10), Activation.LOGISTIC)
    losses = [L.LossSpec.squared(), L.LossSpec.huber(), L.LossSpec.trimmed(0.25)]
    jobs = make_jobs(arch, np.random.default_rng(23), count=18)
    order = [1, 7, 0] + [k for k in range(18) if k not in (0, 1, 7)]  # 1 and 7 diverge
    pools = {loss: collections.deque() for loss in losses}
    for k, i in enumerate(order):
        pools[losses[k % 3]].append(dataclasses.replace(jobs[i], loss=losses[k % 3]))
    ended = []

    def source():
        yield from (pools[loss].popleft() for loss in losses)
        while ended:
            pool = pools[ended.pop()]  # the runs that ended last first
            if pool:
                yield pool.popleft()

    unmoved, before = [], []
    arrange, prepare = O._Slots.arrange, O._Slots.prepare

    def recording_arrange(batch):
        before[:] = [(list(batch.slots), list(batch.groups), batch.update, batch.params.copy(),
                      batch.X.copy(), batch.Y.copy())] if batch.groups and None not in batch.slots \
            else []
        arrange(batch)

    def checked_prepare(batch):
        prepare(batch)
        if before:
            (slots, groups, update, params, X, Y), = before
            assert all(a is b for a, b in zip(batch.slots, slots))
            assert len(batch.groups) == 3 and all(a is b for a, b in zip(batch.groups, groups))
            assert batch.update is update
            for a, b in ((batch.params, params), (batch.X, X), (batch.Y, Y)):
                assert a.tobytes() == b.tobytes()
            unmoved.append(len(batch.slots))

    monkeypatch.setattr(O._Slots, "arrange", recording_arrange)
    monkeypatch.setattr(O._Slots, "prepare", checked_prepare)
    spec = OptimizerSpec(stepmax=100)
    trained = 0
    for job, outcome in train_slots(source(), spec, slots=3):
        ended.append(job.loss)
        assert_same_outcome(outcome, train(job.net, job.data, job.loss, spec, **job.tag[1]()))
        trained += 1
    assert trained == 18 - sum(map(len, pools.values())) >= 12
    assert len(unmoved) >= 5 and set(unmoved) == {3}


def test_rejected_jobs_are_yielded_and_the_rest_train_on():
    arch = Architecture(4, (10, 10), Activation.LOGISTIC)
    jobs = make_jobs(arch, np.random.default_rng(9), count=5)
    other_shape = TrainJob(init_weights(Architecture(4, (3,)), np.random.default_rng(1)),
                           jobs[0].data, L.LossSpec.squared(), tag=(5, dict))
    too_low = dataclasses.replace(jobs[1], diverge_norm=1.0, tag=(6, dict))
    spec = OptimizerSpec(stepmax=100)
    results = {job.tag[0]: out for job, out in train_slots(
        [too_low, *jobs[:3], other_shape, *jobs[3:]], spec, slots=2)}
    assert str(results.pop(5)) == "run shape differs from the shape of the other runs"
    assert str(results.pop(6)) == "diverge_norm must exceed the initial weight norm"
    for job in jobs:
        assert_same_outcome(results[job.tag[0]], train(job.net, job.data, job.loss, spec,
                                                       **job.tag[1]()))


def test_a_failing_callback_ends_only_its_own_run():
    arch = Architecture(4, (10, 10), Activation.LOGISTIC)
    jobs = make_jobs(arch, np.random.default_rng(13), count=4)

    def boom(epoch, predictions, losses, y):
        if epoch == 3:
            raise RuntimeError("hook failed")

    jobs[0] = dataclasses.replace(jobs[0], epoch_end_hook=boom, record_norms=False)
    spec = OptimizerSpec(stepmax=100)
    results = {job.tag[0]: out for job, out in train_slots(jobs, spec, slots=4)}
    assert isinstance(results[0], RuntimeError)
    with pytest.raises(RuntimeError, match="hook failed"):
        train(jobs[0].net, jobs[0].data, jobs[0].loss, spec, epoch_end_hook=boom)
    for job in jobs[1:]:
        assert_same_outcome(results[job.tag[0]], train(job.net, job.data, job.loss, spec,
                                                       **job.tag[1]()))


def test_jobs_are_drawn_only_when_a_slot_is_free():
    arch = Architecture(4, (10, 10), Activation.LOGISTIC)
    jobs = make_jobs(arch, np.random.default_rng(17), count=9)
    drawn = []

    def source():
        for job in jobs:
            drawn.append(job.tag[0])
            yield job

    in_flight = []
    for job, _ in train_slots(source(), OptimizerSpec(stepmax=80), slots=3):
        in_flight.append(len(drawn) - len(in_flight))
    assert max(in_flight) <= 3


def test_each_outcome_owns_its_final_network():
    # one slot, refilled by each run after the first: every outcome keeps
    # its parameters when the slot's row is overwritten
    arch = Architecture(2, (3,), Activation.LOGISTIC)
    rng = np.random.default_rng(21)
    X = rng.standard_normal((20, 2))
    jobs = [TrainJob(init_weights(arch, rng), (X, np.sin(k * X[:, 0])), L.LossSpec.squared())
            for k in (1, 2, 3)]
    ended = [(job, outcome, outcome.final_net.params.tobytes())
             for job, outcome in train_slots(jobs, OptimizerSpec(stepmax=30), slots=1)]
    assert len(ended) == 3 and len({kept for *_, kept in ended}) == 3
    for i, (job, outcome, kept) in enumerate(ended):
        assert outcome.epochs_used > 1
        assert outcome.final_net.params.tobytes() == kept
        assert not any(np.shares_memory(outcome.final_net.params, other.net.params)
                       for other in jobs)
        for _, later, _ in ended[i + 1:]:
            assert not np.shares_memory(outcome.final_net.params, later.final_net.params)


def sweep_configs():
    data = DataGenSpec(p=3, n_train=40, n_test=16, structure=Structure.LIN)
    cfgs = []
    for kind, r in ((ContaminationKind.Y_CONVEX, 0.25), (ContaminationKind.Y_ITERATIVE, 0.5)):
        for activation in (Activation.LOGISTIC, Activation.SOFTPLUS):
            for loss in STUDY_LOSSES[:6]:
                cfgs.append(E.ExperimentConfig(
                    data=data, contamination=ContaminationSpec(kind, r=r, mu_out=10.0),
                    activation=activation, loss=loss, standardize=True,
                    depth=E.Depth.SHALLOW, replications=3, base_seed=5,
                    optimizer=OptimizerSpec(stepmax=300)))
    # a shape of its own whose runs cannot be standardized
    cfgs.append(dataclasses.replace(cfgs[0], data=dataclasses.replace(data, n_train=1)))
    return cfgs


def fields(rec):
    """A record's fields, with NaN made comparable."""
    return {k: "NaN" if isinstance(v, float) and v != v else v
            for k, v in dataclasses.asdict(rec).items()}


@pytest.mark.parametrize("parallelism", [1, 2])
def test_sweep_equals_each_run_alone(parallelism):
    cfgs = sweep_configs()
    want = [record_alone(cfg, rep) for cfg in cfgs for rep in range(cfg.replications)]
    want.sort(key=lambda rec: (rec.config_id, rec.rep))
    got = E.run_sweep(cfgs, parallelism=parallelism)
    assert [fields(rec) for rec in got] == [fields(rec) for rec in want]
    assert sum(rec.status == E.STATUS_ERROR for rec in got) == 3


def test_a_queue_predicts_test_sets_of_two_shapes(monkeypatch):
    # one queue of one shape whose runs' test sets have 20 or 33 rows, all
    # in the slots at once, so that their predictions interleave
    data = DataGenSpec(p=3, n_train=40, n_test=20, structure=Structure.LIN)
    cfgs = [E.ExperimentConfig(data=dataclasses.replace(data, n_test=n_test),
                               contamination=contamination, activation=Activation.LOGISTIC,
                               loss=loss, standardize=True, depth=E.Depth.SHALLOW,
                               replications=2, base_seed=3, optimizer=OptimizerSpec(stepmax=300))
            for n_test, contamination in (
                (20, ContaminationSpec(ContaminationKind.NONE)),
                (33, ContaminationSpec(ContaminationKind.Y_CONVEX, r=0.25, mu_out=10.0)))
            for loss in STUDY_LOSSES[:3]]
    tasks = [(cfg, rep) for cfg in cfgs for rep in range(cfg.replications)]
    assert len(E._queues(tasks, 1)) == 1
    want = sorted((record_alone(cfg, rep) for cfg, rep in tasks),
                  key=lambda rec: (rec.config_id, rec.rep))
    made = []

    class CountingKernel(E.BatchKernel):
        def __init__(self, net, X):
            made.append(X.shape)
            super().__init__(net, X)

    monkeypatch.setattr(E, "BatchKernel", CountingKernel)
    got = E.run_sweep(cfgs, 1)
    assert [fields(rec) for rec in got] == [fields(rec) for rec in want]
    n_test = {cfg.config_id: cfg.data.n_test for cfg in cfgs}
    assert {n_test[rec.config_id] for rec in got if rec.test_loss_finite} == {20, 33}
    assert sorted(made) == [(1, 20, 3), (1, 33, 3)]


def test_a_sweep_starts_no_more_workers_than_it_has_queues(monkeypatch):
    asked = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records the number of workers
        it is asked for and maps in this process, so no process starts."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    cfgs = [dataclasses.replace(sweep_configs()[0], replications=2)]
    tasks = [(cfg, rep) for cfg in cfgs for rep in range(cfg.replications)]
    assert len(E._queues(tasks, 4)) == 2
    got = E.run_sweep(cfgs, parallelism=4)
    assert asked == [2]
    assert [fields(rec) for rec in got] == \
        [fields(rec) for rec in E.run_sweep(cfgs, parallelism=1)]


def shared_queue():
    """One queue in configuration order, losses varying fastest: y-iterative
    runs (r=0.0 and r=-0.0, whose streams are keyed apart), y-convex runs
    standardized and not, and runs whose one training response cannot be
    standardized."""
    data = DataGenSpec(p=3, n_train=30, n_test=12, structure=Structure.LIN)
    scenarios = [(ContaminationSpec(ContaminationKind.Y_ITERATIVE, r=0.5, mu_out=2.0), False),
                 (ContaminationSpec(ContaminationKind.Y_ITERATIVE, r=0.0, mu_out=2.0), True),
                 (ContaminationSpec(ContaminationKind.Y_ITERATIVE, r=-0.0, mu_out=2.0), True),
                 (ContaminationSpec(ContaminationKind.Y_CONVEX, r=0.25, mu_out=10.0), True),
                 (ContaminationSpec(ContaminationKind.Y_CONVEX, r=0.25, mu_out=10.0), False)]
    cfgs = [E.ExperimentConfig(data=data, contamination=cont, activation=Activation.LOGISTIC,
                               loss=loss, standardize=standardize, depth=E.Depth.SHALLOW,
                               replications=2, base_seed=9, optimizer=OptimizerSpec(stepmax=60))
            for cont, standardize in scenarios
            for loss in (L.LossSpec.squared(), L.LossSpec.huber(), L.LossSpec.trimmed(0.25))]
    cfgs += [dataclasses.replace(cfg, data=dataclasses.replace(data, n_train=1))
             for cfg in cfgs[-6:-3]]
    return [(cfg, rep) for cfg in cfgs for rep in range(cfg.replications)]


def assert_same_preparation(got, want):
    a, b = got.scenario, want.scenario
    for x, y in ((a.train.X, b.train.X), (a.train.Y, b.train.Y), (a.test.X, b.test.X),
                 (a.test.Y, b.test.Y), (a.y_test, b.y_test)):
        assert bits(x) == bits(y)
    assert a.test_fingerprint == b.test_fingerprint
    assert (a.attacked is None) == (b.attacked is None) == (a.hook is None)
    if a.attacked is not None:
        assert a.attacked.tobytes() == b.attacked.tobytes()
        rng = np.random.default_rng(got.seed % 1000)
        predictions, losses, y = rng.standard_normal((3, a.train.X.shape[0]))
        assert bits(a.hook(1, predictions, losses, y)) == bits(b.hook(1, predictions, losses, y))
    assert got.seed == want.seed
    assert bits(got.net.params) == bits(want.net.params)


def test_a_queue_prepares_each_scenario_replication_once(monkeypatch):
    tasks = shared_queue()
    prepared, scenario_calls, held = [], [], []
    scenario_of = {}  # id of a preparation -> its scenario's key
    prepare_scenario, prepare_net = E.prepare_scenario, E._prepare_net

    def recording_scenario(cfg, rep):
        scenario_calls.append((cfg.scenario_key, rep))
        scenario = prepare_scenario(cfg, rep)
        scenario_of[id(scenario)] = cfg.scenario_key
        return scenario

    def recording_net(cfg, rep, scenario):
        # the preparations _run_queue's job generator holds, by scenario
        held.append({scenario_of[id(s)]
                     for s in sys._getframe(1).f_locals["held"].values()})
        prep = prepare_net(cfg, rep, scenario)
        prepared.append((cfg, rep, prep))
        return prep

    monkeypatch.setattr(E, "prepare_scenario", recording_scenario)
    monkeypatch.setattr(E, "_prepare_net", recording_net)
    records = E._run_queue(tasks)
    monkeypatch.undo()

    # every run trained on what a fresh prepare_run gives it
    assert len(prepared) == len(tasks) - 6
    for cfg, rep, prep in prepared:
        assert_same_preparation(prep, E.prepare_run(cfg, rep))
    # records, error texts included, are those of each run alone
    want = [record_alone(cfg, rep) for cfg, rep in tasks]
    key = lambda rec: (rec.config_id, rec.rep)  # noqa: E731
    assert [fields(r) for r in sorted(records, key=key)] == [fields(r) for r in sorted(want, key=key)]
    assert [r.error for r in records if r.status == E.STATUS_ERROR] == \
        ["ValueError: need at least two responses"] * 6
    # each scenario replication was prepared once; the failing ones once per run
    counts = {k: scenario_calls.count(k) for k in scenario_calls}
    assert sorted(counts.values()) == [1] * 10 + [3] * 2
    # and the queue never held the replications of two scenarios at once
    assert len(held) == len(prepared) and max(map(len, held)) == 1


def test_queues_hold_one_shape_and_spread_over_the_workers():
    cfgs = sweep_configs()
    tasks = [(cfg, rep) for cfg in cfgs for rep in range(cfg.replications)]
    for parallelism in (1, 2, 3):
        queues = E._queues(tasks, parallelism)
        assert sorted(map(id, (t for q in queues for t in q))) == sorted(map(id, tasks))
        for queue in queues:
            shapes = {(c.architecture(), c.data.n_train, c.resolved_optimizer())
                      for c, _ in queue}
            assert len(shapes) == 1
        assert len(queues) >= (3 if parallelism == 1 else parallelism)
        # each shape has six scenario replications, enough to deal them
        # whole: a shape's runs of one land in one queue, which prepares it
        # once
        owner = {}
        for i, queue in enumerate(queues):
            for cfg, rep in queue:
                key = (cfg.architecture(), cfg.scenario_key, rep)
                assert owner.setdefault(key, i) == i
    # twelve runs of two shapes, as in the capped wide sweep, still fill two workers
    wide = [dataclasses.replace(cfg, replications=1) for cfg in cfgs[:12]]
    small = [(cfg, 0) for cfg in wide]
    assert len(E._queues(small, 2)) >= 4


@pytest.mark.parametrize("parallelism", [1, 2, 3, 7, 40])
def test_queues_keep_task_order(parallelism):
    # a queue in task order trains each loss's runs side by side and moves
    # through the scenarios one after the other
    cfgs = sweep_configs()
    tasks = [(cfg, rep) for cfg in cfgs for rep in range(cfg.replications)]
    position = {id(task): i for i, task in enumerate(tasks)}
    queues = E._queues(tasks, parallelism)
    for queue in queues:
        assert queue
        indices = [position[id(task)] for task in queue]
        assert indices == sorted(indices)
    # a shape gets one queue per worker, fewer only if it has fewer runs
    sizes: dict[tuple, int] = {}
    for cfg, _ in tasks:
        shape = (cfg.architecture(), cfg.data.n_train, cfg.resolved_optimizer())
        sizes[shape] = sizes.get(shape, 0) + 1
    assert len(queues) == sum(min(parallelism, size) for size in sizes.values())
