"""Training: the split-dropout training pass, SGD with momentum, weight
initialization, and the test-time conversion.

A network with n split-mode dropout layers defines 2^n subnetworks per
step. Each split layer stacks the masked part of its input over the
complement, so training is one forward chain over a batch that has grown
to 2^n blocks of N rows, and one backward chain back. Block j took the
complement at split s exactly when bit s of j is set. The step loss is the
arithmetic mean of the per-block cross-entropy losses, so every parameter
receives gradient every step. One mask is drawn per dropout layer per batch,
in layer order, and shared by all blocks that reach it.

The step owns every per-step value, and each is consumed once: the
forward fills one cache per layer, the backward drops each once used and
returns the gradients, and the optimizer step pops those from the dict.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .config import RUN_FIELDS, network_shapes
from .data import center_crop
from .errors import ConsistencyError, InputError, NumericalAbort
from .evaluation import predict_logits, top_k_accuracy
from .layers import (ConvLayer, DropoutLayer, FcLayer, FlattenLayer,
                     FrpcConvLayer, MaxPoolLayer, Network, NetworkSpec,
                     PReluLayer, ReluLayer, RpcConvLayer)
from .tensor_core import softmax, softmax_cross_entropy

WEIGHT_INIT_STD = 0.01
BIAS_INIT = 1.0


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """SGD-with-momentum state; one velocity tensor per parameter tensor.
    The defaults are the run document's."""

    learning_rate: float = RUN_FIELDS["learning_rate"][0]
    momentum: float = RUN_FIELDS["momentum"][0]
    batch_size: int = RUN_FIELDS["batch_size"][0]
    velocities: dict = field(default_factory=dict)


def sgd_momentum_step(net: Network, state: OptimizerState, grads: dict):
    """v <- momentum*v - lr*g; theta <- theta + v, for every parameter.

    Consumes the gradients: each is popped from `grads`, the
    {(layer_index, name): gradient} dict of backward_training, so a second
    step with the same dict needs a fresh backward_training."""
    for i, name, arr in net.named_params():
        g = grads.pop((i, name), None)
        if g is None:
            raise ConsistencyError(f"no gradient for layer {i} param {name!r}; "
                                   "run backward_training first")
        if not np.all(np.isfinite(g)):
            raise NumericalAbort(f"non-finite gradient in layer {i} param {name!r}")
        key = (i, name)
        v = state.velocities.get(key)
        if v is None:
            v = np.zeros_like(arr)
        v = state.momentum * v - state.learning_rate * g.astype(arr.dtype, copy=False)
        state.velocities[key] = v
        arr += v
    return net


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def _construct(fields: dict, shape, rng_select, mask_ss, dtype):
    """The layer for one entry of the shape pass; in-sizes come from `shape`."""
    args = {k: v for k, v in fields.items() if k != "kind"}
    constructors = {
        # a plain conv draws an empty selection, which leaves rng_select as it was
        **{cls.kind: lambda cls=cls: cls(shape[0], **args, rng=rng_select, dtype=dtype)
           for cls in (ConvLayer, RpcConvLayer, FrpcConvLayer)},
        "maxpool": lambda: MaxPoolLayer(**args),
        "relu": ReluLayer,
        "prelu": lambda: PReluLayer(shape[0], dtype=dtype),
        "flatten": FlattenLayer,
        "fc": lambda: FcLayer(shape[0], **args, dtype=dtype),
        "dropout": lambda: DropoutLayer(
            **args, rng=np.random.default_rng(mask_ss.spawn(1)[0])),
    }
    return constructors[fields["kind"]]()


def init_weights(spec: NetworkSpec, seed: int, dtype=np.float32) -> Network:
    """Materialize a network: Gaussian(0, 0.01) weights, biases 1, PReLU
    slopes 0.25, with all random draws (init, filter selection, dropout
    masks, batch shuffling) on independent child streams of the seed. The
    layers come from `config.network_shapes`, which raises ConfigError."""
    plan = network_shapes(spec.input_shape, spec.layers, "network")
    ss = np.random.SeedSequence(seed)
    init_ss, select_ss, mask_ss, shuffle_ss = ss.spawn(4)
    rng_init = np.random.default_rng(init_ss)
    rng_select = np.random.default_rng(select_ss)
    layers = [_construct(fields, shape, rng_select, mask_ss, dtype)
              for fields, shape, _ in plan]

    for layer in layers:
        for name, arr in layer.params().items():
            if name == "weights":
                arr[...] = rng_init.normal(0.0, WEIGHT_INIT_STD, arr.shape)
            elif name == "bias":
                arr[...] = BIAS_INIT

    net = Network(layers, spec, seed)
    net.data_rng = np.random.default_rng(shuffle_ss)
    return net


# ---------------------------------------------------------------------------
# Training forward / backward
# ---------------------------------------------------------------------------

@dataclass
class BranchSet:
    """One training forward pass: the stacked logits of the 2^n branches
    and the per-layer caches the backward pass reads."""

    net: Network
    n_split: int
    masks: dict               # layer index -> float32 0/1 mask used this step
    logits: np.ndarray        # [2^n * N, K], block-major
    caches: list              # one dict per layer; None once backward_training ran
    ce_grad: np.ndarray       # d loss / d logits
    input_grad: np.ndarray = None  # set by backward_training

    def __len__(self):
        return 2 ** self.n_split


def forward_training(net: Network, batch: np.ndarray, labels: np.ndarray,
                     pinned_masks: dict = None):
    """Run the training forward pass.

    Returns (loss, BranchSet) where loss is the mean of the per-branch
    cross-entropy losses (2^n branches for n split layers). pinned_masks
    maps dropout layer indices to fixed 0/1 masks of the layer's input
    width, used by the oracle checks; an unpinned layer draws the next mask
    of its own stream when the chain reaches it.
    """
    if net.inference:
        raise ConsistencyError("network was converted for inference; cannot train")
    pinned = pinned_masks or {}
    caches = []
    act = batch
    for i, layer in enumerate(net.layers):
        cache = {}
        if isinstance(layer, DropoutLayer):
            cache["mask"] = pinned[i] if i in pinned else layer.draw_mask(act.shape[1])
        act = layer.forward(act, cache)
        caches.append(cache)
    n_split = len(net.split_layers())
    blocks, rows = 2 ** n_split, len(labels)
    if act.shape[0] != blocks * rows:
        raise ConsistencyError(
            f"{act.shape[0]} logit rows for {blocks} blocks of {rows} labels")
    block_losses, grads = [], []
    for j in range(blocks):
        loss, grad = softmax_cross_entropy(act[j * rows:(j + 1) * rows], labels)
        block_losses.append(loss)
        grads.append(grad)
    ce_grad = np.concatenate(grads)
    ce_grad *= 1.0 / blocks
    loss = math.fsum(block_losses) / blocks
    masks = {i: caches[i]["mask"] for i in net.dropout_layers()}
    return loss, BranchSet(net=net, n_split=n_split, masks=masks,
                           logits=act, caches=caches, ce_grad=ce_grad)


def backward_training(branch_set: BranchSet, input_grad: bool = True):
    """Backpropagate the stacked batch and return the parameter gradients
    as {(layer_index, name): gradient}, the dict sgd_momentum_step takes.

    Each block's gradient is weighted 1/2^n, matching the loss, so these
    are the exact gradients of the returned loss. The backward consumes
    the caches: `branch_set.caches` is None from the start, and each
    layer's cache is dropped once its backward has run, so a second call
    on one BranchSet raises ConsistencyError. The gradient of the network
    input goes to `branch_set.input_grad`; without `input_grad` the chain
    ends at the first layer with parameters, which skips its own input
    gradient, and `input_grad` stays None.
    """
    net, caches = branch_set.net, branch_set.caches
    if caches is None:
        raise ConsistencyError("backward_training already ran on this branch set")
    branch_set.caches = None
    last = None if input_grad else \
        next((i for i, layer in enumerate(net.layers) if layer.params()), None)
    g, grads = branch_set.ce_grad, {}
    for i in reversed(range(last or 0, len(net.layers))):
        layer, cache, caches[i] = net.layers[i], caches[i], None
        g = layer.backward(g, cache, input_grad=False) if i == last else layer.backward(g, cache)
        grads.update(((i, name), grad) for name, grad in cache.get("grads", {}).items())
    branch_set.input_grad = g if input_grad else None
    return grads


def mean_branch_probabilities(branch_set: BranchSet) -> np.ndarray:
    """Softmax probabilities averaged over all branches of the step."""
    p = np.asarray(softmax(branch_set.logits), dtype=np.float64)
    return p.reshape(len(branch_set), -1, p.shape[1]).mean(axis=0)


# ---------------------------------------------------------------------------
# Test-time conversion
# ---------------------------------------------------------------------------

def to_inference(net: Network) -> Network:
    """Fold dropout away: remove the layers and scale the next weighted
    layer by the keep probability p (`config.network_shapes` refuses a
    dropout layer with no later weighted layer).

    ReLU/PReLU/pooling between the dropout and the weighted layer commute
    with positive scaling, so carrying p past them is exact. Returns a new
    network; the trained one is untouched. Converting twice is refused.
    """
    if net.inference:
        raise ConsistencyError("network is already an inference representation")
    new = copy.deepcopy(net)
    kept, pending_scale = [], None
    for layer in new.layers:
        if isinstance(layer, DropoutLayer):
            pending_scale = layer.p if pending_scale is None else pending_scale * layer.p
            continue
        if pending_scale is not None and "weights" in layer.params():
            layer.weights *= pending_scale
            pending_scale = None
        kept.append(layer)
    new.layers = kept
    new.inference = True
    return new


# ---------------------------------------------------------------------------
# Epoch loop
# ---------------------------------------------------------------------------

def train_epoch(net: Network, images: np.ndarray, labels: np.ndarray,
                state: OptimizerState):
    """One pass over the data in shuffled mini-batches, the images
    center-cropped to the network input as `predict_logits` crops them.

    Returns {'loss': ..., 'top1': ...} running averages. Top-1 uses the
    branch-averaged probabilities, which reduces to the plain prediction
    when no split layers are present.
    """
    n = images.shape[0]
    if n == 0:
        raise InputError("empty dataset")
    images = center_crop(images, net.spec.input_shape[1:])
    perm = net.data_rng.permutation(n)
    loss_sum, correct = 0.0, 0
    for start in range(0, n, state.batch_size):
        idx = perm[start:start + state.batch_size]
        x, y = images[idx], labels[idx]
        loss, branches = forward_training(net, x, y)
        if not np.isfinite(loss):
            raise NumericalAbort(f"non-finite training loss {loss!r}")
        sgd_momentum_step(net, state, backward_training(branches, input_grad=False))
        loss_sum += loss * len(idx)
        preds = mean_branch_probabilities(branches).argmax(axis=1)
        correct += int((preds == y).sum())
    return {"loss": loss_sum / n, "top1": correct / n}


def fit(net: Network, images, labels, state: OptimizerState, epochs: int,
        schedule: dict = None, val_images=None, val_labels=None, on_row=None):
    """Train for a number of epochs under `schedule`, the fields of
    `config.SCHEDULE_FIELDS` as config resolves them, or a fixed rate when
    None: 'plateau' multiplies the rate by `factor` after `patience` epochs
    without improvement of the training loss.

    Returns per-epoch metric rows as dicts with keys epoch, split, loss,
    top1 (split is 'train' or 'val'); `on_row`, when given, is called with
    each row as soon as it is complete. Validation is only reported, never
    monitored: its metrics come from `predict_logits` on a throwaway
    inference copy of the current weights; it and `train_epoch` center-crop
    their images to the network input.
    """
    schedule = schedule or {"kind": "fixed"}
    rows, best, stall = [], float("inf"), 0

    def emit(row):
        rows.append(row)
        if on_row is not None:
            on_row(row)

    for epoch in range(1, epochs + 1):
        metrics = train_epoch(net, images, labels, state)
        emit({"epoch": epoch, "split": "train",
              "loss": metrics["loss"], "top1": metrics["top1"]})
        if val_images is not None:
            logits = predict_logits(to_inference(net), val_images, state.batch_size)
            emit({"epoch": epoch, "split": "val",
                  "loss": softmax_cross_entropy(logits, val_labels)[0],
                  "top1": top_k_accuracy(logits, val_labels, 1)})
        if schedule["kind"] == "plateau":
            if metrics["loss"] < best - 1e-6:
                best, stall = metrics["loss"], 0
            else:
                stall += 1
                if stall >= schedule["patience"]:
                    state.learning_rate *= schedule["factor"]
                    stall = 0
    return rows
