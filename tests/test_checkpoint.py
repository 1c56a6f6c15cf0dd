"""Checkpoint binary format: round trips, tampering, refusals."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinconv import checkpoint as ck, training as tr
from spinconv.errors import ConfigError, FormatError
from spinconv.layers import NetworkSpec


def _net(seed=5):
    spec = NetworkSpec(input_shape=(1, 6, 6), layers=[
        {"kind": "rpc_conv", "out_channels": 4, "kernel": 3, "pad": 1,
         "rotate_fraction": 0.5},
        {"kind": "relu"},
        {"kind": "maxpool", "window": 2},
        {"kind": "flatten"},
        {"kind": "fc", "out_features": 8},
        {"kind": "dropout", "mode": "split"},
        {"kind": "fc", "out_features": 3},
    ])
    return tr.init_weights(spec, seed=seed)  # default float32 storage


def _tamper_header(path, mutate):
    raw = path.read_bytes()
    header_len = struct.unpack("<I", raw[12:16])[0]
    header = json.loads(raw[16:16 + header_len])
    mutate(header)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:8] + struct.pack("<II", ck.FORMAT_VERSION, len(blob))
                     + blob + raw[16 + header_len:])


def test_round_trip_is_exact(tmp_path):
    net = _net()
    rng = np.random.default_rng(0)
    for _, name, arr in net.named_params():
        arr[...] = rng.normal(0.0, 0.5, arr.shape).astype(arr.dtype)
    mean = rng.random((1, 6, 6)).astype(np.float32)
    path = tmp_path / "model.bin"
    ck.save_checkpoint(net, str(path), mean_image=mean,
                       extra={"note": "fixture"})

    back, meta = ck.load_checkpoint(str(path))
    for (i, name, a), (_, _, b) in zip(net.named_params(), back.named_params()):
        assert np.array_equal(a, b), (i, name)
    assert np.array_equal(meta["mean_image"], mean)
    assert meta["header"]["seed"] == net.seed
    assert meta["header"]["extra"] == {"note": "fixture"}
    assert np.array_equal(back.layers[0].rotate_set, net.layers[0].rotate_set)
    assert back.spec.layers == net.spec.layers


def test_resave_is_byte_identical(tmp_path):
    net = _net()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    ck.save_checkpoint(net, str(p1), mean_image=np.zeros((1, 6, 6), np.float32))
    back, meta = ck.load_checkpoint(str(p1))
    ck.save_checkpoint(back, str(p2), mean_image=meta["mean_image"])
    assert p1.read_bytes() == p2.read_bytes()


def test_missing_mean_image_loads_as_none(tmp_path):
    path = tmp_path / "model.bin"
    ck.save_checkpoint(_net(), str(path))
    _, meta = ck.load_checkpoint(str(path))
    assert meta["mean_image"] is None


def test_inference_network_is_refused(tmp_path):
    inf = tr.to_inference(_net())
    with pytest.raises(ConfigError):
        ck.save_checkpoint(inf, str(tmp_path / "model.bin"))


def test_bad_magic(tmp_path):
    path = tmp_path / "model.bin"
    ck.save_checkpoint(_net(), str(path))
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTSPINC"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        ck.load_checkpoint(str(path))


def test_unsupported_version(tmp_path):
    path = tmp_path / "model.bin"
    ck.save_checkpoint(_net(), str(path))
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version"):
        ck.load_checkpoint(str(path))


def test_truncated_payload(tmp_path):
    path = tmp_path / "model.bin"
    ck.save_checkpoint(_net(), str(path))
    raw = path.read_bytes()
    path.write_bytes(raw[:-20])
    with pytest.raises(OSError):
        ck.load_checkpoint(str(path))


def test_corrupt_header_json(tmp_path):
    path = tmp_path / "model.bin"
    ck.save_checkpoint(_net(), str(path))
    raw = bytearray(path.read_bytes())
    raw[20] = 0xFF  # stomp a header byte
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        ck.load_checkpoint(str(path))


def test_orphan_tensor_is_rejected(tmp_path):
    path = tmp_path / "model.bin"
    ck.save_checkpoint(_net(), str(path))

    def rename_first(header):
        header["tensors"][0]["name"] = "bogus"

    _tamper_header(path, rename_first)
    with pytest.raises(FormatError, match="tensors is"):
        ck.load_checkpoint(str(path))


def test_shape_mismatch_is_rejected(tmp_path):
    path = tmp_path / "model.bin"
    ck.save_checkpoint(_net(), str(path))

    def transpose_fc(header):
        for entry in header["tensors"]:
            if entry["name"] == "weights" and len(entry["shape"]) == 2:
                entry["shape"] = entry["shape"][::-1]
                return
        raise AssertionError("no fc weights entry found")

    _tamper_header(path, transpose_fc)
    with pytest.raises(FormatError, match="shape"):
        ck.load_checkpoint(str(path))


def test_missing_tensor_is_rejected(tmp_path):
    path = tmp_path / "model.bin"
    ck.save_checkpoint(_net(), str(path))
    last = {}

    def drop_last(header):
        last.update(header["tensors"].pop())

    _tamper_header(path, drop_last)
    assert last == {"layer": 6, "name": "bias", "shape": [3]}
    path.write_bytes(path.read_bytes()[:-4 * 3])  # and its payload
    with pytest.raises(FormatError, match="tensors is"):
        ck.load_checkpoint(str(path))


def test_trailing_bytes_are_rejected(tmp_path):
    path = tmp_path / "model.bin"
    ck.save_checkpoint(_net(), str(path))
    path.write_bytes(path.read_bytes() + b"\0" * 4)
    with pytest.raises(FormatError, match="trailing"):
        ck.load_checkpoint(str(path))


def test_failed_save_leaves_earlier_checkpoint(tmp_path):
    path = tmp_path / "model.bin"
    ck.save_checkpoint(_net(), str(path))
    before = path.read_bytes()
    # the mean image is the last payload tensor; a string cannot be written
    # as float32, so the save fails after the weights went out
    bad_mean = np.full((1, 6, 6), "x", dtype=object)
    with pytest.raises(ValueError):
        ck.save_checkpoint(_net(seed=6), str(path), mean_image=bad_mean)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


def test_save_refuses_non_float32_parameters(tmp_path):
    """The file stores float32, so a float64 parameter is refused before
    any file is made instead of being rounded on the way out."""
    spec = NetworkSpec(input_shape=(1, 1, 3), layers=[
        {"kind": "flatten"}, {"kind": "fc", "out_features": 2}])
    net = tr.init_weights(spec, seed=0, dtype=np.float64)
    net.layers[1].weights[0, 0] = 0.10000000000100001
    with pytest.raises(ConfigError, match=r"layer 1 param 'weights' is float64"):
        ck.save_checkpoint(net, str(tmp_path / "model.bin"))
    assert list(tmp_path.iterdir()) == []


# values no field of a saved header holds as they are here; each layer-size
# field the list reaches is refused by the config or its size cap before
# anything is allocated
_HOSTILE = [None, True, False, 0, -1, 1.0, 0.5, 2**31, 2**64, "x", [], {}]


def _leaves(node, path=()):
    """The path of every non-container value in a decoded JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else None)
    if items is None:
        return [path]
    return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]


@pytest.fixture(scope="module")
def frpc_split_file(tmp_path_factory):
    """A saved frpc + split-dropout network with a mean image and extra."""
    spec = NetworkSpec(input_shape=(1, 6, 6), layers=[
        {"kind": "frpc_conv", "out_channels": 4, "kernel": 3, "pad": 1,
         "rotate_fraction": 0.25, "flip_fraction": 0.5},
        {"kind": "relu"},
        {"kind": "maxpool", "window": 2},
        {"kind": "flatten"},
        {"kind": "fc", "out_features": 8},
        {"kind": "dropout", "mode": "split"},
        {"kind": "fc", "out_features": 3},
    ])
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    ck.save_checkpoint(tr.init_weights(spec, seed=4), str(path),
                       mean_image=np.full((1, 6, 6), 0.5, np.float32),
                       extra={"note": "fixture"})
    raw = path.read_bytes()
    header_len = struct.unpack("<I", raw[12:16])[0]
    return path, json.loads(raw[16:16 + header_len])


def _replace_leaf(node, leaf, value):
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_load_accepts_only_headers_save_writes(frpc_split_file, data):
    """Each hostile value in turn replaces one drawn leaf of the header; the
    file is refused, or loads into a network that saves the same bytes."""
    path, header = frpc_split_file
    leaf = data.draw(st.sampled_from(_leaves(header)), label="leaf")
    bad, again = path.with_name("bad.bin"), path.with_name("again.bin")
    for value in _HOSTILE:
        bad.write_bytes(path.read_bytes())
        _tamper_header(bad, lambda h: _replace_leaf(h, leaf, value))
        try:
            net, meta = ck.load_checkpoint(str(bad))
        except (FormatError, OSError):
            continue
        ck.save_checkpoint(net, str(again), mean_image=meta["mean_image"],
                           extra=meta["header"].get("extra"))
        assert again.read_bytes() == bad.read_bytes(), value
