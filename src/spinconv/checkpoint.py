"""Checkpoint container: every parameter tensor, the layer selection sets,
the seed, and the mode flags.

Binary layout: 8-byte magic "SPINCONV", little-endian u32 format version
(currently 1), little-endian u32 header length, UTF-8 JSON header, then the
tensors as raw little-endian float32 in header order. A header whose
network fails the config's layer table, whose tensor shapes are not
non-negative sizes or do not add up to the payload, or whose selections do
not fit the rpc/frpc layers of the rebuilt network in count and range is
refused, as are an inference flag other than false, a missing parameter
tensor and non-finite tensor values.

A checkpoint is written to a temporary file beside the target and renamed
over it, so a failed write leaves any earlier checkpoint as it was.
"""
from __future__ import annotations

import json
import math
import os
import re
import struct

import numpy as np

from .config import _is_int, network_shapes
from .errors import ConfigError, FormatError
from .layers import FrpcConvLayer, NetworkSpec, RpcConvLayer
from .training import init_weights

MAGIC = b"SPINCONV"
FORMAT_VERSION = 1


# the layers whose filter selection is drawn and stored; a plain conv's is
# empty by kind
_SELECTING = (RpcConvLayer, FrpcConvLayer)


def _selections(net):
    out = {}
    for i, layer in enumerate(net.layers):
        if isinstance(layer, _SELECTING):
            out[str(i)] = {
                "rotate": [int(f) for f in layer.rotate_set],
                "flip_axes": {str(f): ax for f, ax in sorted(layer.flip_axes.items())},
            }
    return out


def save_checkpoint(net, path, mean_image: np.ndarray = None, extra: dict = None):
    """Write the network (and optionally the training-split mean image).

    Only the training representation is stored; converted inference
    networks have their dropout folded into the weights and cannot be
    rebuilt from the layer list.
    """
    if net.inference:
        raise ConfigError("checkpoints store the training representation; "
                          "save before converting with to_inference")
    tensors = [{"layer": i, "name": name, "shape": list(arr.shape)}
               for i, name, arr in net.named_params()]
    payload = [arr for _, _, arr in net.named_params()]
    if mean_image is not None:
        tensors.append({"layer": -1, "name": "mean_image",
                        "shape": list(mean_image.shape)})
        payload.append(mean_image)
    header = {
        "format_version": FORMAT_VERSION,
        "seed": net.seed,
        "inference": bool(net.inference),
        "input_shape": list(net.spec.input_shape),
        "layers": net.spec.layers,
        "selections": _selections(net),
        "tensors": tensors,
    }
    if extra:
        header["extra"] = extra
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
            f.write(blob)
            for arr in payload:
                f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_exact(f, count, path):
    data = f.read(count)
    if len(data) != count:
        raise OSError(f"truncated checkpoint {path}: wanted {count} more bytes, "
                      f"got {len(data)}")
    return data


def _key_index(key):
    """The integer a JSON object key spells in canonical decimal, else None."""
    return int(key) if re.fullmatch(r"0|-?[1-9][0-9]*", key) else None


def _check_header(header, path):
    """Raise FormatError unless the header holds what the rebuild reads."""
    where = f"checkpoint header of {path}"
    if not isinstance(header, dict):
        raise FormatError(f"{where} must be an object")
    try:
        network_shapes(header.get("input_shape"), header.get("layers"), where)
    except ConfigError as e:
        raise FormatError(str(e)) from e
    seed, tensors = header.get("seed"), header.get("tensors")
    if not (_is_int(seed) and seed >= 0 and isinstance(tensors, list)):
        raise FormatError(f"{where} needs a seed >= 0 and a tensor list, "
                          f"got {seed!r} and {tensors!r}")
    for i, t in enumerate(tensors):
        if not (isinstance(t, dict) and isinstance(t.get("layer"), int)
                and isinstance(t.get("name"), str) and isinstance(t.get("shape"), list)
                and all(_is_int(v) and v >= 0 for v in t["shape"])):
            raise FormatError(f"{where}: tensors[{i}] needs an integer layer, a "
                              f"name and a list of non-negative sizes, got {t!r}")
    if not isinstance(header.get("selections", {}), dict):
        raise FormatError(f"{where}: selections must be an object")
    if header.get("inference", False) is not False:
        raise FormatError(f"{where}: inference must be false, got "
                          f"{header['inference']!r}; checkpoints store the "
                          "training representation")


def _set_selections(net, selections, where):
    """Install each stored selection on its rpc/frpc layer; FormatError
    unless it names such a layer, selects as many rotated and flipped
    filters as the rebuilt layer drew, and fits its filters."""
    for idx, sel in selections.items():
        i = _key_index(idx)
        layer = net.layers[i] if i is not None and 0 <= i < len(net.layers) else None
        if not (isinstance(layer, _SELECTING) and isinstance(sel, dict)
                and isinstance(sel.get("rotate"), list)
                and all(_is_int(f) for f in sel["rotate"])
                and isinstance(sel.get("flip_axes"), dict)
                and all(_key_index(f) is not None for f in sel["flip_axes"])
                and len(sel["rotate"]) == layer.rotate_set.size
                and len(sel["flip_axes"]) == layer.flip_set.size):
            raise FormatError(f"{where}: selections[{idx!r}] must give an rpc/frpc "
                              f"layer a rotate list and a flip_axes object as long "
                              f"as its fractions select, got {sel!r}")
        try:
            layer.set_selection(sel["rotate"], {_key_index(f): ax
                                                for f, ax in sel["flip_axes"].items()})
        except ConfigError as e:
            raise FormatError(f"{where}: selections[{idx!r}]: {e}") from e


def load_checkpoint(path):
    """Rebuild the network from a checkpoint.

    Returns (net, meta) where meta carries the mean image (or None) and the
    raw header. The network is reconstructed through the normal build path
    from the stored spec and seed, then the stored selections and tensors
    overwrite the freshly drawn state.
    """
    with open(path, "rb") as f:
        magic = _read_exact(f, 8, path)
        if magic != MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r} in {path}")
        version, header_len = struct.unpack("<II", _read_exact(f, 8, path))
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version} in {path}")
        try:
            header = json.loads(_read_exact(f, header_len, path).decode("utf-8"))
        except ValueError as e:
            raise FormatError(f"unreadable checkpoint header in {path}: {e}") from e
        _check_header(header, path)
        need = sum(4 * math.prod(t["shape"]) for t in header["tensors"])
        left = os.fstat(f.fileno()).st_size - f.tell()
        if need > left:
            raise OSError(f"truncated checkpoint {path}: its tensors need {need} "
                          f"bytes, {left} follow the header")
        if need < left:
            raise FormatError(f"trailing bytes after the last tensor in {path}: "
                              f"its tensors need {need} bytes, {left} follow the header")

        spec = NetworkSpec(input_shape=tuple(header["input_shape"]),
                           layers=header["layers"])
        net = init_weights(spec, header["seed"])
        _set_selections(net, header.get("selections", {}),
                        f"checkpoint header of {path}")

        mean_image = None
        params = {(i, name): arr for i, name, arr in net.named_params()}
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            raw = _read_exact(f, 4 * math.prod(shape), path)
            arr = np.frombuffer(raw, dtype="<f4").reshape(shape)
            # a float64 sum of float32 values is finite exactly when they all
            # are; +inf plus -inf is NaN, which needs no warning
            with np.errstate(invalid="ignore"):
                finite = np.isfinite(arr.sum(dtype=np.float64))
            if not finite:
                raise FormatError(f"checkpoint tensor ({entry['layer']}, "
                                  f"{entry['name']!r}) holds non-finite values ({path})")
            if entry["name"] == "mean_image":
                mean_image = arr.astype(np.float32)
                continue
            key = (entry["layer"], entry["name"])
            if key not in params:
                raise FormatError(f"checkpoint tensor {key} has no home in the "
                                  f"rebuilt network ({path})")
            target = params[key]
            if target.shape != shape:
                raise FormatError(
                    f"checkpoint tensor {key} has shape {shape}, network "
                    f"expects {target.shape} ({path})")
            target[...] = arr
            del params[key]
        if params:
            raise FormatError(f"checkpoint lacks tensors {sorted(params)} ({path})")
    meta = {"mean_image": mean_image, "header": header}
    return net, meta
