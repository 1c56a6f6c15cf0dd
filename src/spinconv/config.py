"""Run configuration: a single JSON document, strictly validated.

Unknown keys are rejected everywhere (typo protection) and every error
names the offending field. Field tables hold each field's default and range
check, and one resolver reads them all: `RUN_FIELDS` for the document,
`SCHEDULE_FIELDS`, `DATASET_KINDS`, and `LAYER_KINDS`, which also gives
each layer kind its input rank, its output-shape rule and its rules across
fields. The tables are the only copy of these fields, defaults and checks;
the layer, optimizer and schedule classes trust what they resolved.
`network_shapes` runs the layer table as a dry shape pass, so geometry
errors and networks over the `MAX_VALUES` size cap surface before any data
is read; `training.init_weights` and checkpoint loading use the same pass.
This module stays importable without numpy so the CLI can pin thread counts
before any numerical code loads.
"""
from __future__ import annotations

import json
import math
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .errors import ConfigError, DimensionError


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _check_keys(d: dict, allowed, where: str):
    unknown = sorted(set(d) - set(allowed))
    _require(not unknown, f"unknown key(s) {unknown} in {where}; "
                          f"allowed: {sorted(allowed)}")


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def conv_output_size(size: int, k: int, stride: int, pad: int) -> int:
    """Output length of conv and pooling: a k-wide window, `pad` cells a side."""
    out = (size + 2 * pad - k) // stride + 1
    if out < 1:
        raise DimensionError(
            f"output would be empty: input {size}, window {k}, "
            f"stride {stride}, pad {pad}")
    return out


# ---------------------------------------------------------------------------
# Layer table
# ---------------------------------------------------------------------------

class LayerKind(NamedTuple):
    fields: dict          # name -> (default or REQUIRED, check), as _resolve reads
    rank: int             # input rank it needs: 3 images, 1 vectors, None either
    out_shape: Callable   # (resolved fields, input shape) -> output shape
    rules: tuple = ()     # (test over the resolved fields, message template) pairs
    weights: Callable = lambda f, shape: 0  # (fields, input shape) -> weight values


# the most values one layer's per-image output or weight tensor may hold
MAX_VALUES = 2 ** 24


REQUIRED = object()
_COUNT = ("an integer >= 1", lambda v: _is_int(v) and v >= 1)
_ODD = ("an odd integer >= 1", lambda v: _is_int(v) and v >= 1 and v % 2 == 1)
_FRACTION = ("within [0, 1]", lambda v: _is_real(v) and 0.0 <= v <= 1.0)
_SEED = ("an integer >= 0", lambda v: _is_int(v) and v >= 0)
_PATH = ("a non-empty path", lambda v: isinstance(v, str) and v != "")
_CONV_FIELDS = {"out_channels": (REQUIRED, _COUNT), "kernel": (REQUIRED, _ODD),
                "stride": (1, _COUNT),
                "pad": (0, ("an integer >= 0", lambda v: _is_int(v) and v >= 0))}


def selection_size(fraction: float, out_channels: int) -> int:
    """How many of `out_channels` filters a rotate or flip fraction selects."""
    return int(round(fraction * out_channels))


def _window_shape(shape, channels, k, stride, pad):
    return (channels,) + tuple(conv_output_size(s, k, stride, pad) for s in shape[1:])


def _conv_shape(f, shape):
    return _window_shape(shape, f["out_channels"], f["kernel"], f["stride"], f["pad"])


def _conv_weights(f, shape):
    return f["out_channels"] * shape[0] * f["kernel"] ** 2


LAYER_KINDS = {
    "conv": LayerKind(_CONV_FIELDS, 3, _conv_shape, weights=_conv_weights),
    "rpc_conv": LayerKind({**_CONV_FIELDS, "rotate_fraction": (0.5, _FRACTION)},
                          3, _conv_shape, weights=_conv_weights),
    "frpc_conv": LayerKind(
        {**_CONV_FIELDS, "rotate_fraction": (0.25, _FRACTION),
         "flip_fraction": (0.25, _FRACTION)}, 3, _conv_shape,
        ((lambda f: f["rotate_fraction"] + f["flip_fraction"] <= 1.0,
          "rotate_fraction + flip_fraction must not exceed 1, "
          "got {rotate_fraction} + {flip_fraction}"),
         (lambda f: selection_size(f["rotate_fraction"], f["out_channels"])
          + selection_size(f["flip_fraction"], f["out_channels"]) <= f["out_channels"],
          "rotate_fraction {rotate_fraction} and flip_fraction {flip_fraction} "
          "select more than {out_channels} filters once rounded")),
        weights=_conv_weights),
    # a callable default is computed from the fields resolved before it
    "maxpool": LayerKind(
        {"window": (REQUIRED, _COUNT), "stride": (lambda f: f["window"], _COUNT)}, 3,
        lambda f, shape: _window_shape(shape, shape[0], f["window"], f["stride"], 0)),
    "relu": LayerKind({}, None, lambda f, shape: shape),
    "prelu": LayerKind({}, None, lambda f, shape: shape),
    "flatten": LayerKind({}, None, lambda f, shape: (math.prod(shape),)),
    "fc": LayerKind({"out_features": (REQUIRED, _COUNT)}, 1,
                    lambda f, shape: (f["out_features"],),
                    weights=lambda f, shape: f["out_features"] * shape[0]),
    "dropout": LayerKind(
        {"p": (0.5, ("within (0, 1)", lambda v: _is_real(v) and 0.0 < v < 1.0)),
         "mode": ("standard", ("'standard' or 'split'",
                               lambda v: v in ("standard", "split")))},
        1, lambda f, shape: shape,
        ((lambda f: f["mode"] != "split" or f["p"] == 0.5,
          "split mode requires p = 0.5, got {p}"),)),
}


def _resolve(desc, fields: dict, where: str, **given) -> dict:
    """`given` plus every field of `fields`, given in `desc` or defaulted,
    each checked; other keys in `desc` are refused.

    A field is (default or REQUIRED, check). A callable default is computed
    from the fields resolved before it. A check is (description, test), or a
    callable (value, where) that returns the resolved value.
    """
    _require(isinstance(desc, dict), f"{where} must be an object, got {desc!r}")
    _check_keys(desc, (*given, *fields), where)
    out = dict(given)
    for key, (default, check) in fields.items():
        if key in desc:
            v = desc[key]
        else:
            _require(default is not REQUIRED, f"{where}.{key} is required")
            v = default(out) if callable(default) else default
        if callable(check):
            v = check(v, f"{where}.{key}")
        else:
            description, test = check
            _require(test(v), f"{where}.{key} must be {description}, got {v!r}")
        out[key] = v
    return out


def _kind_of(desc, kinds: dict, where: str) -> str:
    _require(isinstance(desc, dict), f"{where} must be an object, got {desc!r}")
    kind = desc.get("kind")
    _require(isinstance(kind, str) and kind in kinds,
             f"{where}.kind must be one of {sorted(kinds)}, got {kind!r}")
    return kind


def validate_layer(desc: dict, where: str) -> dict:
    """Resolve one layer descriptor through LAYER_KINDS: its kind plus every
    field of that kind, given or defaulted, each range-checked."""
    kind = _kind_of(desc, LAYER_KINDS, where)
    entry = LAYER_KINDS[kind]
    fields = _resolve(desc, entry.fields, where, kind=kind)
    for test, message in entry.rules:
        _require(test(fields), f"{where}: " + message.format(**fields))
    return fields


def network_shapes(input_shape, layers, where: str) -> list:
    """Dry shape pass: (resolved fields, input shape, output shape) per layer,
    shapes (C, H, W) before flatten and (d,) after; a ConfigError names
    `{where}.input_shape` or `{where}.layers[i]`, also for a layer over the
    MAX_VALUES cap. Each dropout layer needs a later layer with weights (a
    kind whose `weights` rule is non-zero), which inference scales by its
    keep probability."""
    _require(isinstance(input_shape, (list, tuple)) and len(input_shape) == 3
             and all(_is_int(v) and v >= 1 for v in input_shape),
             f"{where}.input_shape must be [channels, height, width], "
             f"got {input_shape!r}")
    _require(isinstance(layers, list) and layers,
             f"{where}.layers must be a non-empty list")
    shape, plan, unfolded = tuple(input_shape), [], None
    for i, desc in enumerate(layers):
        at = f"{where}.layers[{i}]"
        fields = validate_layer(desc, at)
        kind, entry = fields["kind"], LAYER_KINDS[fields["kind"]]
        _require(entry.rank in (None, len(shape)),
                 f"{at}: {kind} layer needs {'image' if entry.rank == 3 else 'flat'} "
                 f"input, got shape {shape}")
        try:
            out = entry.out_shape(fields, shape)
        except DimensionError as e:
            raise ConfigError(f"{at}: {kind} {e}") from e
        size = max(math.prod(out), entry.weights(fields, shape))
        _require(size <= MAX_VALUES, f"{at}: {kind} layer holds {size} values in "
                                     f"its output {out} or weights, over {MAX_VALUES}")
        plan.append((fields, shape, out))
        if entry.weights(fields, shape):
            unfolded = None
        elif kind == "dropout" and unfolded is None:
            unfolded = at
        shape = out
    _require(unfolded is None, f"{unfolded}: dropout layer needs a later conv, "
                               "rpc_conv, frpc_conv or fc layer to fold into")
    return plan


# ---------------------------------------------------------------------------
# Run document
# ---------------------------------------------------------------------------

# the most images per class synthetic_shapes may generate: 2**14 each of its
# 4 classes is 65,536 28x28 float32 images, 206 MB
MAX_SHAPES_PER_CLASS = 2 ** 14

DATASET_KINDS = {
    "idx": {"images": (REQUIRED, _PATH), "labels": (REQUIRED, _PATH)},
    "synthetic_shapes": {
        "n_per_class": (REQUIRED, (f"an integer in [1, {MAX_SHAPES_PER_CLASS}]",
                                   lambda v: _is_int(v) and 1 <= v <= MAX_SHAPES_PER_CLASS)),
        "seed": (REQUIRED, _SEED)},
}

SCHEDULE_FIELDS = {
    "kind": ("plateau", ("'fixed' or 'plateau'", lambda v: v in ("fixed", "plateau"))),
    "factor": (0.1, ("within (0, 1)", lambda v: _is_real(v) and 0.0 < v < 1.0)),
    "patience": (2, _COUNT),
}


def _dataset(desc, where):
    if desc is None:
        return None
    kind = _kind_of(desc, DATASET_KINDS, where)
    return _resolve(desc, DATASET_KINDS[kind], where, kind=kind)


def _network(desc, where):
    # the shape pass checks both fields
    _require(isinstance(desc, dict), f"{where} must be an object, got {desc!r}")
    _check_keys(desc, ("input_shape", "layers"), where)
    network_shapes(desc.get("input_shape"), desc.get("layers"), where)
    return desc


RUN_FIELDS = {
    "seed": (REQUIRED, _SEED),
    "epochs": (10, _COUNT),
    "batch_size": (128, _COUNT),
    "learning_rate": (0.01, ("a finite number > 0",
                             lambda v: _is_real(v) and 0.0 < v < math.inf)),
    "momentum": (0.9, ("within [0, 1)", lambda v: _is_real(v) and 0.0 <= v < 1.0)),
    "schedule": ({}, lambda v, where: _resolve(v, SCHEDULE_FIELDS, where)),
    "network": (REQUIRED, _network),
    "dataset": (None, _dataset),
    "val_dataset": (None, _dataset),
    "output_dir": (None, ("a non-empty path",
                          lambda v: v is None or (isinstance(v, str) and v != ""))),
}


def parse_config(doc: dict) -> SimpleNamespace:
    """A run document resolved through RUN_FIELDS, one attribute per field;
    the network's fields come as `input_shape` (a tuple) and `layers`, and
    `doc` is the document as given, echoed into the run artifacts."""
    _require(isinstance(doc, dict), "config root must be a JSON object")
    run = _resolve(doc, RUN_FIELDS, "config")
    net = run.pop("network")
    return SimpleNamespace(input_shape=tuple(net["input_shape"]), layers=net["layers"],
                           doc=doc, **run)


def load_config(path) -> SimpleNamespace:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    return parse_config(doc)
