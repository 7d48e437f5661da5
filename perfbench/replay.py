"""In-process replay of single training runs through robustnn's public
functions, and the benchmark's own reference computations (forward pass,
training objective, central-difference gradient, summary reduction) that
the output checks compare the program against."""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from robustnn import contamination, datagen, experiment, net as rnet, optimizer
from robustnn.contamination import ContaminationKind
from robustnn.datagen import Dataset
from robustnn.optimizer import TrainStatus

HUBER_DELTA_FLOOR = 1e-8   # the adaptive threshold is median |r|, floored here
TUKEY_K = 4.685
CENTRAL_DIFF_STEP = 1e-6


class Timer:
    """Wall-time samples in seconds, collected per name for timed calls."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)

    def __call__(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.samples[name].append(time.perf_counter() - t0)
        return out


def untimed(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


# run_single keys its data and contamination streams by these strings. They
# are restated here so that the replay depends only on the seeding scheme,
# which must stay fixed for results.csv to stay byte-identical, and not on
# the names of private helpers.
def _data_key(d) -> str:
    return f"{d.structure.value}|{d.p}|{d.n_train}|{d.n_test}|{d.snr:g}|{d.mu:g}"


def _cont_key(c) -> str:
    return f"{c.kind.value}|{c.r:g}|{c.mu_out:g}|{c.out_sd:g}"


@dataclass
class Prepared:
    """Everything run_single builds before it calls train."""

    train_c: Dataset        # contaminated training set, raw responses
    test: Dataset
    y_train: np.ndarray     # responses handed to train (standardized if asked)
    y_test: np.ndarray
    hook: object
    net0: rnet.Network
    init_seed: int


def prepare(cfg, rep: int, call=untimed, wrap_hook=None) -> Prepared:
    """The public calls run_single makes before training, in its order."""
    dkey, ckey = _data_key(cfg.data), _cont_key(cfg.contamination)
    init_seed = experiment.derive_seed("init", cfg.base_seed, cfg.config_id, rep)
    rng_data = np.random.default_rng(
        experiment.derive_seed("data", cfg.base_seed, dkey, rep))
    train_ds, test_ds = call("datagen.generate_dataset", datagen.generate_dataset,
                             cfg.data, rng_data)
    rng_cont = np.random.default_rng(
        experiment.derive_seed("cont", cfg.base_seed, dkey, ckey, rep))
    train_c = call("contamination.apply_contamination",
                   contamination.apply_contamination, train_ds, cfg.contamination, rng_cont)
    y_train, y_test = train_c.Y, test_ds.Y
    if cfg.standardize:
        transform = call("datagen.fit_standardizer", datagen.fit_standardizer, train_c.Y)
        y_train, y_test = transform.apply(train_c.Y), transform.apply(test_ds.Y)
    hook = None
    if cfg.contamination.kind == ContaminationKind.Y_ITERATIVE:
        attacked, hook = call("contamination.make_iterative_attack_hook",
                              contamination.make_iterative_attack_hook,
                              train_c.n, rng_cont, eps=cfg.contamination.mu_out)
        if wrap_hook is not None:
            hook = wrap_hook(hook, attacked)
    net0 = call("net.init_weights", rnet.init_weights, cfg.architecture(),
                np.random.default_rng(init_seed))
    return Prepared(train_c, test_ds, y_train, y_test, hook, net0, init_seed)


@dataclass
class Replayed:
    prep: Prepared
    outcome: optimizer.TrainOutcome
    fields: dict   # the results.csv fields this run determines


def replay_run(cfg, rep: int, call=untimed, wrap_hook=None) -> Replayed:
    """Run one (configuration, replication) pair the way run_single does."""
    prep = prepare(cfg, rep, call, wrap_hook)
    outcome = call("optimizer.train", optimizer.train, prep.net0,
                   Dataset(prep.train_c.X, prep.y_train), cfg.loss,
                   cfg.resolved_optimizer(), cfg.diverge_norm, epoch_end_hook=prep.hook)
    test_loss = None
    if outcome.status == TrainStatus.CONVERGED:
        with np.errstate(over="ignore", invalid="ignore"):
            preds = call("net.predict", rnet.predict, outcome.final_net, prep.test.X)
            test_loss = float(np.mean((preds - prep.y_test) ** 2))
    fields = dict(
        config_id=cfg.config_id, rep=rep, seed=prep.init_seed,
        converged=outcome.status == TrainStatus.CONVERGED,
        status=outcome.status.value, epochs=outcome.epochs_used,
        test_loss=test_loss, sup_weight_norm=outcome.sup_weight_norm,
        breakdown=outcome.breakdown,
    )
    return Replayed(prep, outcome, fields)


def field_mismatches(row: dict, fields: dict) -> list[str]:
    """Fields whose results.csv text disagrees with the replayed value."""
    bad = []
    for key, want in fields.items():
        text = row.get(key)
        if text is None:
            ok = False
        elif isinstance(want, bool):
            ok = text == ("true" if want else "false")
        elif isinstance(want, int):
            ok = text.lstrip("-").isdigit() and int(text) == want
        elif isinstance(want, str):
            ok = text == want
        elif want is None:
            ok = text == ""
        else:
            ok = text != "" and same_float(float(text), want)
        if not ok:
            bad.append(f"{key}: csv {text!r} vs replay {want!r}")
    return bad


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    if not (math.isfinite(a) and math.isfinite(b)):
        return same_float(a, b)
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# reference computations written apart from the program

def trim_keep(n: int, loss_token: str) -> int:
    """ceil((1 - alpha) n) for a 'trimNN' token, in exact arithmetic."""
    alpha = Fraction(int(loss_token[4:]), 100)
    return math.ceil((1 - alpha) * n)


def min_max(y_fit: np.ndarray, y: np.ndarray) -> np.ndarray:
    lo, hi = float(np.min(y_fit)), float(np.max(y_fit))
    return (y - lo) / (hi - lo)


def forward(net, X: np.ndarray) -> np.ndarray:
    """Predictions of a network: affine layers, the hidden activation on all
    but the last, identity output."""
    kind = net.architecture.hidden_activation.value
    z = X
    last = len(net.weights) - 1
    with np.errstate(over="ignore"):
        for h, (w, b) in enumerate(zip(net.weights, net.intercepts)):
            a = z @ w.T + b
            if h == last:
                z = a
            elif kind == "logistic":
                z = 1.0 / (1.0 + np.exp(-a))
            else:
                z = np.logaddexp(0.0, a)
    return z[:, 0]


class Objective:
    """Training objective of one loss at fixed Huber threshold and fixed
    trimmed set, both taken at the parameters the object is built at."""

    def __init__(self, loss_token: str, net, X: np.ndarray, y: np.ndarray):
        self.token, self.net, self.X, self.y = loss_token, net, X, y
        r = y - forward(net, X)
        self.delta = max(float(np.median(np.abs(r))), HUBER_DELTA_FLOOR)
        self.rows = None
        if loss_token.startswith("trim"):
            order = np.argsort(r * r, kind="stable")
            self.rows = np.sort(order[:trim_keep(len(y), loss_token)])

    def __call__(self) -> float:
        r = self.y - forward(self.net, self.X)
        if self.token == "huber":
            a, d = np.abs(r), self.delta
            per = np.where(a <= d, 0.5 * r * r, d * a - 0.5 * d * d)
        elif self.token == "tukey":
            u = 1.0 - (r / TUKEY_K) ** 2
            per = np.where(np.abs(r) <= TUKEY_K, 1.0 - u ** 3, 1.0)
        else:
            per = r * r if self.rows is None else r[self.rows] ** 2
        return math.fsum(per) / len(per)


def central_difference_gradient(objective: Objective) -> np.ndarray:
    """d objective / d parameter for every weight and intercept."""
    net, h = objective.net, CENTRAL_DIFF_STEP
    grads = []
    for arr in [*net.intercepts, *net.weights]:
        for idx in np.ndindex(arr.shape):
            old = arr[idx]
            arr[idx] = old + h
            up = objective()
            arr[idx] = old - h
            down = objective()
            arr[idx] = old
            grads.append((up - down) / (2.0 * h))
    return np.asarray(grads)


def rebuild_summary(rows: list[dict]) -> dict[str, dict]:
    """Per-configuration reduction of results.csv rows: replication count,
    converged count, Inf count, finite mean test loss, mean converged epochs
    and the breakdown surrogate (share of replications not converged)."""
    groups: dict[str, list[dict]] = defaultdict(list)
    for row in rows:
        groups[row["config_id"]].append(row)
    out = {}
    for cid, group in groups.items():
        conv = [row for row in group if row["converged"] == "true"]
        losses = [float(row["test_loss"]) for row in conv]
        finite = [x for x in losses if math.isfinite(x)]
        v = len(group)
        out[cid] = dict(
            replications=v,
            n_converged=len(conv),
            n_inf_losses=len(losses) - len(finite),
            mean_finite_test_loss=math.fsum(finite) / len(finite) if finite else None,
            mean_epochs_converged=(math.fsum(int(row["epochs"]) for row in conv) / len(conv)
                                   if conv else None),
            breakdown_rate_surrogate=(v - len(conv)) / v,
        )
    return out


def summary_mismatches(summary_rows: list[dict], rebuilt: dict[str, dict]) -> list[str]:
    bad = []
    if sorted(row["config_id"] for row in summary_rows) != sorted(rebuilt):
        bad.append("summary.csv and results.csv list different configurations")
    for row in summary_rows:
        want = rebuilt.get(row["config_id"], {})
        for key, value in want.items():
            text = row.get(key, "")
            if value is None:
                ok = text == ""
            elif isinstance(value, int):
                ok = text == str(value)
            else:
                ok = text != "" and close(float(text), value)
            if not ok:
                bad.append(f"{row['config_id']} {key}: summary {text!r} vs rebuilt {value!r}")
    return bad
