"""The benchmark's workloads and how a run measures them.

Every workload is one closed-loop caller in one process: the next
`train_epoch` or `rotation_sweep` call starts when the previous one returned.
Only the public functions of `spinconv.data`, `training`, `evaluation` and
`checkpoint` are called.

For --seconds a run interleaves SETUP_REPEATS set-ups, training epochs and
rotation sweeps:

- `setup_s` is the median set-up time;
- training runs cycles of `cycle_epochs` whole epochs, each from a copy of
  the initial network, so each must reproduce the first cycle's losses
  exactly; `train_img_s` is the median per-epoch rate and `train_loss` the
  first cycle's final-epoch mean loss;
- every sweep must reproduce the first report; `sweep_img_s` is the median
  per-call rate.

`train_share` splits the time between training and sweeping. The oracle runs
only in `oracle_checks`, after the timed part.
"""
from __future__ import annotations

import copy
import math
import os
import resource
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from spinconv import checkpoint, data, evaluation, training
from spinconv.errors import NumericalAbort
from spinconv.layers import NetworkSpec

import checks

INPUT_SHAPE = (1, 28, 28)
BATCH = 128
SWEEP_BATCH = 256
# Lower than the README's 0.2: the final-epoch loss then varies by about 2%
# across seeds, and no seed diverges into a NumericalAbort.
LEARNING_RATE = 0.01
MOMENTUM = 0.9
EVAL_PER_CLASS = 64
SWEEP_ANGLES = 4
SETUP_REPEATS = 10
CHECK_IMAGES = 2

CONV_STEM = (
    {"kind": "conv", "out_channels": 16, "kernel": 5, "pad": 2},
    {"kind": "relu"},
    {"kind": "maxpool", "window": 2, "stride": 2},
)
POOL_HEAD = (
    {"kind": "relu"},
    {"kind": "maxpool", "window": 2, "stride": 2},
    {"kind": "flatten"},
)

# The README network.
RPC_NET = CONV_STEM + (
    {"kind": "rpc_conv", "out_channels": 32, "kernel": 3, "pad": 1,
     "rotate_fraction": 0.5},
) + POOL_HEAD + (
    {"kind": "fc", "out_features": 256},
    {"kind": "relu"},
    {"kind": "dropout", "p": 0.5, "mode": "split"},
    {"kind": "fc", "out_features": 10},
)

# Three split layers: 8 branches and 15 fc forward calls per step.
SPLIT_MLP = ({"kind": "flatten"},) + 3 * (
    {"kind": "fc", "out_features": 512},
    {"kind": "relu"},
    {"kind": "dropout", "p": 0.5, "mode": "split"},
) + ({"kind": "fc", "out_features": 4},)

FRPC_NET = CONV_STEM + (
    {"kind": "frpc_conv", "out_channels": 32, "kernel": 3, "pad": 1,
     "rotate_fraction": 0.25, "flip_fraction": 0.25},
) + POOL_HEAD + (
    {"kind": "fc", "out_features": 128},
    {"kind": "relu"},
    {"kind": "dropout", "p": 0.5, "mode": "split"},
    {"kind": "fc", "out_features": 4},
)


@dataclass(frozen=True)
class Workload:
    layers: tuple
    train_per_class: int   # 4 classes; a multiple of 32 keeps every batch full
    cycle_epochs: int
    train_share: float     # share of --seconds spent training, the rest sweeping
    round_trip: bool       # set-up goes through checkpoint and IDX files


WORKLOADS = {
    "train_rpc": Workload(RPC_NET, 64, 3, 0.7, False),
    "train_split_mlp": Workload(SPLIT_MLP, 256, 3, 0.7, False),
    "sweep_frpc": Workload(FRPC_NET, 64, 2, 0.3, True),
}


def tiny(w: Workload) -> Workload:
    """The same workload at smoke-test size."""
    return Workload(w.layers, 8, 1, w.train_share, w.round_trip)


@dataclass
class Setup:
    train: data.Dataset
    evalset: data.Dataset
    net: object        # training representation, never trained itself
    inf_net: object    # to_inference(net), swept


@dataclass
class Tally:
    """Operations (training steps, sweep batches) and failed checks."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def problem(self, message):
        self.problems.append(message)


def seeds(seed: int):
    """Training-data, evaluation-data and network seeds derived from --seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, 3)]


def setup(w: Workload, seed: int, eval_per_class: int, tmp: str, tally: Tally) -> Setup:
    data_seed, eval_seed, net_seed = seeds(seed)
    train = data.preprocess(data.make_rotated_shapes(w.train_per_class, data_seed))
    evalset = data.make_rotated_shapes(eval_per_class, eval_seed)
    net = training.init_weights(NetworkSpec(INPUT_SHAPE, list(w.layers)), net_seed)
    if w.round_trip:
        ckpt = os.path.join(tmp, "checkpoint.bin")
        checkpoint.save_checkpoint(net, ckpt, mean_image=train.mean_image)
        loaded, meta = checkpoint.load_checkpoint(ckpt)
        if not all(np.array_equal(a, b) for (_, _, a), (_, _, b)
                   in zip(net.named_params(), loaded.named_params(), strict=True)) \
                or not np.array_equal(meta["mean_image"], train.mean_image):
            tally.problem("checkpoint round trip changed a tensor")
        images, labels = os.path.join(tmp, "images.idx"), os.path.join(tmp, "labels.idx")
        data.write_idx(evalset, images, labels)
        reread = data.load_idx(images, labels)
        if not (np.array_equal(reread.images, evalset.images)
                and np.array_equal(reread.labels, evalset.labels)):
            tally.problem("IDX round trip changed the evaluation set")
        net, evalset = loaded, reread
    evalset = data.preprocess(evalset, train.mean_image)
    return Setup(train, evalset, net, training.to_inference(net))


def fresh_cycle(s: Setup):
    """A copy of the initial network and a new optimizer: the start of a
    training cycle. Every cycle therefore repeats the same losses."""
    return copy.deepcopy(s.net), training.OptimizerState(
        learning_rate=LEARNING_RATE, momentum=MOMENTUM, batch_size=BATCH)


def epoch(s: Setup, net, state, tally: Tally):
    """One timed `train_epoch`; returns (img/s, loss), or None if it aborted."""
    n = len(s.train)
    tally.attempted += -(-n // BATCH)
    t0 = perf_counter()
    try:
        metrics = training.train_epoch(net, s.train.images, s.train.labels, state)
    except NumericalAbort as e:
        tally.failed += 1
        tally.problem(f"training aborted: {e}")
        return None
    return n / (perf_counter() - t0), metrics["loss"]


def train_cycle(w: Workload, s: Setup, tally: Tally):
    """One whole cycle; returns [(img/s, loss) per epoch], shorter if it aborted."""
    net, state = fresh_cycle(s)
    epochs = []
    for _ in range(w.cycle_epochs):
        e = epoch(s, net, state, tally)
        if e is None:
            break
        epochs.append(e)
    return epochs


def sweep(s: Setup, angles, tally: Tally):
    """One timed rotation sweep; returns (img/s, report rows)."""
    n = len(s.evalset)
    tally.attempted += len(angles) * -(-n // SWEEP_BATCH)
    t0 = perf_counter()
    report = evaluation.rotation_sweep(s.inf_net, s.evalset, angles, SWEEP_BATCH)
    return n * len(angles) / (perf_counter() - t0), report.rows


@dataclass
class Measurement:
    setup: Setup = None
    trained_net: object = None  # the network after the first whole cycle
    train_loss: float = float("nan")  # final-epoch loss of the first cycle
    peak_rss_mb: float = float("nan")  # once the first cycle and sweep are done
    setup_s: list = field(default_factory=list)
    train_img_s: list = field(default_factory=list)
    sweep_img_s: list = field(default_factory=list)


def measure(w: Workload, seed: int, eval_per_class: int, angles, tmp: str,
            seconds: float, setup_repeats: int, tally: Tally) -> Measurement:
    """`seconds` of interleaved set-ups, training epochs and sweeps.

    Interleaving lets every metric sample the whole run, so a slow spell of
    the host shifts all of them alike instead of one phase. Set-ups are
    spread evenly; between them the next operation is an epoch or a sweep,
    whichever phase is further below its share of the time. The first whole
    cycle and the first sweep are the references that later ones must
    reproduce exactly.
    """
    m = Measurement()
    share = {"train": w.train_share, "sweep": 1.0 - w.train_share}
    spent = {"train": 0.0, "sweep": 0.0}
    net = state = ref_losses = ref_rows = None
    losses = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if (elapsed >= seconds and len(m.setup_s) >= setup_repeats
                and ref_losses is not None and m.sweep_img_s):
            return m
        t0 = perf_counter()
        if len(m.setup_s) < min(setup_repeats, 1 + int(setup_repeats * elapsed / seconds)):
            s = setup(w, seed, eval_per_class, tmp, tally)
            m.setup_s.append(perf_counter() - t0)
            m.setup = m.setup or s
        elif spent["train"] / share["train"] <= spent["sweep"] / share["sweep"]:
            if net is None:
                (net, state), losses = fresh_cycle(m.setup), []
            e = epoch(m.setup, net, state, tally)
            if e is None:
                return m
            m.train_img_s.append(e[0])
            losses.append(e[1])
            spent["train"] += perf_counter() - t0
            if len(losses) == w.cycle_epochs:
                if ref_losses is None:
                    ref_losses, m.trained_net, m.train_loss = losses, net, losses[-1]
                elif losses != ref_losses:
                    tally.problem(f"a training cycle gave losses {losses}, "
                                  f"the first cycle {ref_losses}")
                net = None
        else:
            rate, rows = sweep(m.setup, angles, tally)
            if ref_rows is None:
                ref_rows = rows
            elif rows != ref_rows:
                tally.problem("rotation sweeps of one network disagree")
            m.sweep_img_s.append(rate)
            spent["sweep"] += perf_counter() - t0
        if math.isnan(m.peak_rss_mb) and ref_losses is not None and ref_rows is not None:
            m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def oracle_checks(s: Setup, trained_net, angles, seed, n_images, tally: Tally):
    """One training forward pass and one rotated inference batch against the
    oracle; a mismatch fails the operation it stands for."""
    if trained_net is None:
        tally.problem("no training cycle completed")
        return
    rng = np.random.default_rng(seed)
    x, y = s.train.images[:n_images], s.train.labels[:n_images]
    err = checks.check_training(copy.deepcopy(trained_net), x, y, rng)
    if not err <= checks.TOLERANCE:
        tally.failed += 1
        tally.problem(f"training forward differs from the oracle by {err:.3e}")
    rotated = data.rotate_batch(s.evalset.images[:n_images], angles[-1])
    err = checks.check_inference(s.inf_net, rotated)
    if not err <= checks.TOLERANCE:
        tally.failed += 1
        tally.problem(f"inference differs from the oracle by {err:.3e}")
