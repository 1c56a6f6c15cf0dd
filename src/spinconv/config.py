"""Run configuration: a single JSON document, strictly validated.

Unknown keys are rejected everywhere (typo protection) and every error
names the offending field. `LAYER_KINDS` describes each layer kind once:
fields with defaults and range checks, input rank, output-shape rule.
`network_shapes` runs it as a dry shape pass, so geometry errors surface
before any data is read; `training.init_weights` and checkpoint loading use
the same pass. This module stays importable without numpy so the CLI can
pin thread counts before any numerical code loads.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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


def _pos_int(d, key, where, default=None, minimum=1):
    v = d.get(key, default)
    _require(v is not None, f"{where}.{key} is required")
    _require(_is_int(v) and v >= minimum,
             f"{where}.{key} must be an integer >= {minimum}, got {v!r}")
    return v


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
    fields: dict          # name -> (default or REQUIRED, (description, test))
    rank: int             # input rank it needs: 3 images, 1 vectors, None either
    out_shape: Callable   # (resolved fields, input shape) -> output shape
    rule: tuple = None    # (test over the resolved fields, message template)


REQUIRED = object()
_COUNT = ("an integer >= 1", lambda v: _is_int(v) and v >= 1)
_ODD = ("an odd integer >= 1", lambda v: _is_int(v) and v >= 1 and v % 2 == 1)
_FRACTION = ("within [0, 1]", lambda v: _is_real(v) and 0.0 <= v <= 1.0)
_CONV_FIELDS = {"out_channels": (REQUIRED, _COUNT), "kernel": (REQUIRED, _ODD),
                "stride": (1, _COUNT),
                "pad": (0, ("an integer >= 0", lambda v: _is_int(v) and v >= 0))}


def _window_shape(shape, channels, k, stride, pad):
    return (channels,) + tuple(conv_output_size(s, k, stride, pad) for s in shape[1:])


def _conv_shape(f, shape):
    return _window_shape(shape, f["out_channels"], f["kernel"], f["stride"], f["pad"])


LAYER_KINDS = {
    "conv": LayerKind(_CONV_FIELDS, 3, _conv_shape),
    "rpc_conv": LayerKind({**_CONV_FIELDS, "rotate_fraction": (0.5, _FRACTION)},
                          3, _conv_shape),
    "frpc_conv": LayerKind(
        {**_CONV_FIELDS, "rotate_fraction": (0.25, _FRACTION),
         "flip_fraction": (0.25, _FRACTION)}, 3, _conv_shape,
        (lambda f: f["rotate_fraction"] + f["flip_fraction"] <= 1.0,
         "rotate_fraction + flip_fraction must not exceed 1, "
         "got {rotate_fraction} + {flip_fraction}")),
    # a callable default is computed from the fields resolved before it
    "maxpool": LayerKind(
        {"window": (REQUIRED, _COUNT), "stride": (lambda f: f["window"], _COUNT)}, 3,
        lambda f, shape: _window_shape(shape, shape[0], f["window"], f["stride"], 0)),
    "relu": LayerKind({}, None, lambda f, shape: shape),
    "prelu": LayerKind({}, None, lambda f, shape: shape),
    "flatten": LayerKind({}, None, lambda f, shape: (math.prod(shape),)),
    "fc": LayerKind({"out_features": (REQUIRED, _COUNT)}, 1,
                    lambda f, shape: (f["out_features"],)),
    "dropout": LayerKind(
        {"p": (0.5, ("within (0, 1)", lambda v: _is_real(v) and 0.0 < v < 1.0)),
         "mode": ("standard", ("'standard' or 'split'",
                               lambda v: v in ("standard", "split")))},
        1, lambda f, shape: shape,
        (lambda f: f["mode"] != "split" or f["p"] == 0.5,
         "split mode requires p = 0.5, got {p}")),
}


def validate_layer(desc: dict, where: str) -> dict:
    """Resolve one layer descriptor through LAYER_KINDS: its kind plus every
    field of that kind, given or defaulted, each range-checked."""
    _require(isinstance(desc, dict), f"{where} must be an object, got {desc!r}")
    kind = desc.get("kind")
    _require(isinstance(kind, str) and kind in LAYER_KINDS,
             f"{where}.kind must be one of {sorted(LAYER_KINDS)}, got {kind!r}")
    entry = LAYER_KINDS[kind]
    _check_keys(desc, ("kind",) + tuple(entry.fields), where)
    fields = {"kind": kind}
    for key, (default, (description, test)) in entry.fields.items():
        if key in desc:
            v = desc[key]
        else:
            _require(default is not REQUIRED,
                     f"{where}.{key} is required for kind {kind!r}")
            v = default(fields) if callable(default) else default
        _require(test(v), f"{where}.{key} must be {description}, got {v!r}")
        fields[key] = v
    if entry.rule is not None:
        test, message = entry.rule
        _require(test(fields), f"{where}: " + message.format(**fields))
    return fields


def network_shapes(input_shape, layers, where: str) -> list:
    """Dry shape pass: (resolved fields, input shape, output shape) per layer,
    shapes (C, H, W) before flatten and (d,) after; a ConfigError names
    `{where}.input_shape` or `{where}.layers[i]`."""
    _require(isinstance(input_shape, (list, tuple)) and len(input_shape) == 3
             and all(_is_int(v) and v >= 1 for v in input_shape),
             f"{where}.input_shape must be [channels, height, width], "
             f"got {input_shape!r}")
    _require(isinstance(layers, list) and layers,
             f"{where}.layers must be a non-empty list")
    shape, plan = tuple(input_shape), []
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
        plan.append((fields, shape, out))
        shape = out
    return plan


def validate_dataset(d: dict, where: str) -> dict:
    _require(isinstance(d, dict), f"{where} must be an object")
    kind = d.get("kind")
    if kind == "idx":
        _check_keys(d, ("kind", "images", "labels"), where)
        for key in ("images", "labels"):
            _require(isinstance(d.get(key), str) and d[key],
                     f"{where}.{key} must be a file path")
    elif kind == "synthetic_shapes":
        _check_keys(d, ("kind", "n_per_class", "seed"), where)
        _pos_int(d, "n_per_class", where)
        _pos_int(d, "seed", where, minimum=0)
    else:
        raise ConfigError(f"{where}.kind must be 'idx' or 'synthetic_shapes', "
                          f"got {kind!r}")
    return d


@dataclass
class RunConfig:
    seed: int
    input_shape: tuple
    layers: list
    epochs: int = 10
    batch_size: int = 128
    learning_rate: float = 0.2
    momentum: float = 0.9
    schedule: dict = field(default_factory=lambda: {"kind": "plateau",
                                                    "factor": 0.1, "patience": 2})
    dataset: dict = None
    val_dataset: dict = None
    output_dir: str = None
    doc: dict = None  # the parsed document, echoed into the run artifacts


def parse_config(doc: dict) -> RunConfig:
    _require(isinstance(doc, dict), "config root must be a JSON object")
    _check_keys(doc, ("seed", "epochs", "batch_size", "learning_rate", "momentum",
                      "schedule", "network", "dataset", "val_dataset",
                      "output_dir"), "config")
    seed = _pos_int(doc, "seed", "config", minimum=0)

    net = doc.get("network")
    _require(isinstance(net, dict), "config.network is required")
    _check_keys(net, ("input_shape", "layers"), "config.network")
    network_shapes(net.get("input_shape"), net.get("layers"), "config.network")

    lr = doc.get("learning_rate", 0.2)
    _require(isinstance(lr, (int, float)) and lr > 0,
             f"config.learning_rate must be positive, got {lr!r}")
    momentum = doc.get("momentum", 0.9)
    _require(isinstance(momentum, (int, float)) and 0.0 <= momentum < 1.0,
             f"config.momentum must be within [0, 1), got {momentum!r}")

    schedule = doc.get("schedule", {"kind": "plateau", "factor": 0.1, "patience": 2})
    _require(isinstance(schedule, dict), "config.schedule must be an object")
    _check_keys(schedule, ("kind", "factor", "patience"), "config.schedule")
    _require(schedule.get("kind", "plateau") in ("fixed", "plateau"),
             f"config.schedule.kind must be 'fixed' or 'plateau', "
             f"got {schedule.get('kind')!r}")

    dataset = doc.get("dataset")
    if dataset is not None:
        dataset = validate_dataset(dataset, "config.dataset")
    val_dataset = doc.get("val_dataset")
    if val_dataset is not None:
        val_dataset = validate_dataset(val_dataset, "config.val_dataset")

    output_dir = doc.get("output_dir")
    _require(output_dir is None or (isinstance(output_dir, str) and output_dir),
             f"config.output_dir must be a non-empty path, got {output_dir!r}")

    return RunConfig(seed=seed, input_shape=tuple(net["input_shape"]),
                     layers=net["layers"],
                     epochs=_pos_int(doc, "epochs", "config", default=10),
                     batch_size=_pos_int(doc, "batch_size", "config", default=128),
                     learning_rate=float(lr), momentum=float(momentum),
                     schedule=schedule, dataset=dataset, val_dataset=val_dataset,
                     output_dir=output_dir, doc=doc)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from e
    return parse_config(doc)
