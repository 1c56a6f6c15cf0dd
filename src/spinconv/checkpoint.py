"""Checkpoint container: every parameter tensor, the layer selection sets,
the seed, and the mode flags.

Binary layout: 8-byte magic "SPINCONV", little-endian u32 format version
(currently 1), little-endian u32 header length, UTF-8 JSON header, then the
tensors as raw little-endian float32 in header order.

`_header` is the one description of the header. The input shape, layers and
seed fix all of it, the rotate/flip selections included, which
`init_weights` draws from the seed. Load checks the seed and the network
against the config's layer table, rebuilds the network, and refuses the file
unless each header key, as canonical JSON, equals that key of the rebuilt
network's `_header`: it accepts exactly the headers save writes. `extra`
must be an object, tensor values finite, and the last tensor ends the file.

A checkpoint is written to a temporary file beside the target and renamed
over it, so a failed write leaves any earlier checkpoint as it was.
"""
from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .config import _is_int
from .data import _read_exact
from .errors import ConfigError, FormatError
from .layers import NetworkSpec
from .training import init_weights

MAGIC = b"SPINCONV"
FORMAT_VERSION = 1


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _selections(net):
    out = {}
    for i, layer in enumerate(net.layers):
        # a plain conv's selection is empty by kind, so it stores none
        if layer.kind in ("rpc_conv", "frpc_conv"):
            out[str(i)] = {
                "rotate": [int(f) for f in layer.rotate_set],
                "flip_axes": {str(f): ax for f, ax in sorted(layer.flip_axes.items())},
            }
    return out


def _header(net, mean_shape, extra) -> dict:
    """The header of `net`, with a mean-image tensor of `mean_shape` last
    unless that is None, and `extra` unless it is empty."""
    tensors = [{"layer": i, "name": name, "shape": list(arr.shape)}
               for i, name, arr in net.named_params()]
    if mean_shape is not None:
        tensors.append({"layer": -1, "name": "mean_image", "shape": list(mean_shape)})
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
    return header


def save_checkpoint(net, path, mean_image: np.ndarray = None, extra: dict = None):
    """Write the network (and optionally the training-split mean image).

    Only the training representation is stored; converted inference
    networks have their dropout folded into the weights and cannot be
    rebuilt from the layer list. The tensors are stored as float32, so a
    parameter of any other dtype is refused rather than rounded.
    """
    if net.inference:
        raise ConfigError("checkpoints store the training representation; "
                          "save before converting with to_inference")
    for i, name, arr in net.named_params():
        if arr.dtype != np.float32:
            raise ConfigError(f"checkpoints store float32 parameters; layer {i} "
                              f"param {name!r} is {arr.dtype}")
    payload = [arr for _, _, arr in net.named_params()]
    if mean_image is not None:
        payload.append(mean_image)
    header = _header(net, None if mean_image is None else mean_image.shape, extra)
    blob = _canonical(header).encode("utf-8")
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


def load_checkpoint(path):
    """Rebuild the network from a checkpoint.

    Returns (net, meta) where meta carries the mean image (or None) and the
    raw header. The network is rebuilt through the normal build path from
    the stored spec and seed, its header compared with the stored one, and
    the stored tensors read into its parameters.
    """
    where = f"checkpoint header of {path}"
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
        if not (isinstance(header, dict) and _is_int(header.get("seed"))
                and header["seed"] >= 0 and isinstance(header.get("extra", {}), dict)):
            raise FormatError(f"{where} must be an object with a seed >= 0 and, "
                              "if any, an extra object")
        seed, extra = header["seed"], header.get("extra")
        # the mean image is the one tensor the network does not describe; a
        # shape other than a list of sizes leaves it out, so the tensors differ
        tensors = header.get("tensors")
        last = tensors[-1] if isinstance(tensors, list) and tensors else None
        mean_shape = (last.get("shape") if isinstance(last, dict)
                      and last.get("name") == "mean_image" else None)
        if not (isinstance(mean_shape, list)
                and all(_is_int(v) and v >= 0 for v in mean_shape)):
            mean_shape = None
        try:
            net = init_weights(NetworkSpec(header.get("input_shape"),
                                           header.get("layers")), seed)
        except ConfigError as e:
            raise FormatError(f"{where}: {e}") from e
        want = _header(net, mean_shape, extra)
        for key in sorted(set(header) | set(want)):
            got, wanted = (_canonical(h[key]) if key in h else "absent"
                           for h in (header, want))
            if got != wanted:
                raise FormatError(f"{where}: {key} is {got}, but the network it "
                                  f"describes saves {wanted}")

        mean_image = None
        targets = [arr for _, _, arr in net.named_params()] + [None]
        for entry, target in zip(want["tensors"], targets):
            shape = tuple(entry["shape"])
            arr = np.frombuffer(_read_exact(f, 4 * math.prod(shape), path),
                                dtype="<f4").reshape(shape)
            # a float64 sum of float32 values is finite exactly when they all
            # are; +inf plus -inf is NaN, which needs no warning
            with np.errstate(invalid="ignore"):
                finite = np.isfinite(arr.sum(dtype=np.float64))
            if not finite:
                raise FormatError(f"checkpoint tensor ({entry['layer']}, "
                                  f"{entry['name']!r}) holds non-finite values ({path})")
            if target is None:
                mean_image = arr.astype(np.float32)
            else:
                target[...] = arr
        if f.read(1):
            raise FormatError(f"trailing bytes after the last tensor in {path}")
    meta = {"mean_image": mean_image, "header": header}
    return net, meta
