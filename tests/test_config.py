"""Strict config validation: every error names the offending field."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinconv import config as cfg
from spinconv.errors import ConfigError


def _doc(**overrides):
    doc = {
        "seed": 7,
        "network": {
            "input_shape": [1, 8, 8],
            "layers": [
                {"kind": "conv", "out_channels": 4, "kernel": 3, "pad": 1},
                {"kind": "relu"},
                {"kind": "flatten"},
                {"kind": "fc", "out_features": 4},
            ],
        },
    }
    doc.update(overrides)
    return doc


def test_minimal_config_gets_pinned_defaults():
    rc = cfg.parse_config(_doc())
    assert rc.seed == 7
    assert rc.input_shape == (1, 8, 8)
    assert rc.epochs == 10
    assert rc.batch_size == 128
    assert rc.learning_rate == 0.01
    assert rc.momentum == 0.9
    assert rc.schedule["kind"] == "plateau"
    assert rc.dataset is None and rc.output_dir is None


def test_seed_is_mandatory():
    doc = _doc()
    del doc["seed"]
    with pytest.raises(ConfigError, match="seed"):
        cfg.parse_config(doc)


def test_boolean_is_not_an_integer():
    with pytest.raises(ConfigError, match="seed"):
        cfg.parse_config(_doc(seed=True))


def test_unknown_root_key_is_named():
    with pytest.raises(ConfigError, match="learning_rato"):
        cfg.parse_config(_doc(learning_rato=0.1))


def test_rotate_fraction_out_of_range_names_field():
    doc = _doc()
    doc["network"]["layers"][0] = {"kind": "rpc_conv", "out_channels": 4,
                                   "kernel": 3, "rotate_fraction": 1.2}
    with pytest.raises(ConfigError, match="rotate_fraction"):
        cfg.parse_config(doc)


def test_fraction_sum_capped_at_one():
    doc = _doc()
    doc["network"]["layers"][0] = {"kind": "frpc_conv", "out_channels": 4,
                                   "kernel": 3, "rotate_fraction": 0.6,
                                   "flip_fraction": 0.6}
    with pytest.raises(ConfigError, match="rotate_fraction \\+ flip_fraction"):
        cfg.parse_config(doc)


def test_layer_typo_is_caught():
    doc = _doc()
    doc["network"]["layers"][0] = {"kind": "conv", "out_channels": 4,
                                   "kernel_size": 3}
    with pytest.raises(ConfigError, match="kernel_size"):
        cfg.parse_config(doc)


def test_even_kernel_is_rejected():
    doc = _doc()
    doc["network"]["layers"][0]["kernel"] = 4
    with pytest.raises(ConfigError, match="odd"):
        cfg.parse_config(doc)


def test_unknown_layer_kind():
    doc = _doc()
    doc["network"]["layers"][1] = {"kind": "sigmoid"}
    with pytest.raises(ConfigError, match="sigmoid"):
        cfg.parse_config(doc)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2])
def test_dropout_probability_bounds(p):
    with pytest.raises(ConfigError, match="\\.p "):
        cfg.validate_layer({"kind": "dropout", "p": p}, "layers[0]")


def test_split_mode_forces_half():
    with pytest.raises(ConfigError, match="split"):
        cfg.validate_layer({"kind": "dropout", "p": 0.3, "mode": "split"},
                           "layers[0]")
    ok = cfg.validate_layer({"kind": "dropout", "p": 0.5, "mode": "split"},
                            "layers[0]")
    assert ok["mode"] == "split"


_FRACTIONS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=40, deadline=None)
@example(kind="frpc_conv", out_channels=3, kernel=3, stride=1, pad=1,
         rotate=0.5, flip=0.5)
@example(kind="frpc_conv", out_channels=7, kernel=3, stride=1, pad=1,
         rotate=0.5, flip=0.5)
@given(kind=st.sampled_from(["conv", "rpc_conv", "frpc_conv"]),
       out_channels=st.integers(1, 9), kernel=st.sampled_from([1, 3, 5]),
       stride=st.integers(1, 3), pad=st.integers(0, 2),
       rotate=_FRACTIONS, flip=_FRACTIONS)
def test_accepted_conv_descriptor_builds(kind, out_channels, kernel, stride, pad,
                                         rotate, flip):
    # the layer table is the only check: what it accepts, init_weights builds
    from spinconv.layers import NetworkSpec
    from spinconv.training import init_weights
    desc = {"kind": kind, "out_channels": out_channels, "kernel": kernel,
            "stride": stride, "pad": pad}
    if kind != "conv":
        desc["rotate_fraction"] = rotate
    if kind == "frpc_conv":
        desc["flip_fraction"] = flip
    layers = [desc, {"kind": "flatten"}, {"kind": "fc", "out_features": 2}]
    try:
        cfg.network_shapes([1, 7, 7], layers, "network")
    except ConfigError:
        return
    init_weights(NetworkSpec(input_shape=(1, 7, 7), layers=layers), seed=0)


def test_bad_dropout_mode():
    with pytest.raises(ConfigError, match="mode"):
        cfg.validate_layer({"kind": "dropout", "mode": "both"}, "layers[0]")


def test_input_shape_must_be_three_dims():
    doc = _doc()
    doc["network"]["input_shape"] = [28, 28]
    with pytest.raises(ConfigError, match="input_shape"):
        cfg.parse_config(doc)


def test_layers_must_be_non_empty():
    doc = _doc()
    doc["network"]["layers"] = []
    with pytest.raises(ConfigError, match="layers"):
        cfg.parse_config(doc)


def test_momentum_range():
    with pytest.raises(ConfigError, match="momentum"):
        cfg.parse_config(_doc(momentum=1.0))


def test_schedule_kind_checked():
    with pytest.raises(ConfigError, match="schedule"):
        cfg.parse_config(_doc(schedule={"kind": "warmup"}))


def test_dataset_idx_requires_paths():
    with pytest.raises(ConfigError, match="images"):
        cfg.parse_config(_doc(dataset={"kind": "idx", "labels": "l.idx"}))
    rc = cfg.parse_config(_doc(dataset={"kind": "idx", "images": "i.idx",
                                        "labels": "l.idx"}))
    assert rc.dataset["kind"] == "idx"


def test_dataset_synthetic_fields():
    rc = cfg.parse_config(_doc(dataset={"kind": "synthetic_shapes",
                                        "n_per_class": 10, "seed": 0}))
    assert rc.dataset["n_per_class"] == 10
    with pytest.raises(ConfigError, match="n_per_class"):
        cfg.parse_config(_doc(dataset={"kind": "synthetic_shapes", "seed": 0}))
    # the generator's size cap, refused before any image is made
    top = cfg.MAX_SHAPES_PER_CLASS
    rc = cfg.parse_config(_doc(dataset={"kind": "synthetic_shapes",
                                        "n_per_class": top, "seed": 0}))
    assert rc.dataset["n_per_class"] == top
    with pytest.raises(ConfigError, match="config.dataset.n_per_class"):
        cfg.parse_config(_doc(dataset={"kind": "synthetic_shapes",
                                       "n_per_class": top + 1, "seed": 0}))


def test_dataset_unknown_kind():
    with pytest.raises(ConfigError, match="kind"):
        cfg.parse_config(_doc(dataset={"kind": "imagenet"}))


def test_load_config_rejects_broken_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        cfg.load_config(str(path))


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_doc(epochs=2, output_dir="out")))
    rc = cfg.load_config(str(path))
    assert rc.epochs == 2
    assert rc.output_dir == "out"


def _rich_doc():
    return {
        "seed": 3, "epochs": 2, "batch_size": 8, "learning_rate": 0.01,
        "momentum": 0.9, "schedule": {"kind": "plateau", "factor": 0.1, "patience": 2},
        "network": {
            "input_shape": [1, 9, 9],
            "layers": [
                {"kind": "conv", "out_channels": 4, "kernel": 3, "pad": 1},
                {"kind": "relu"},
                {"kind": "maxpool", "window": 2, "stride": 2},
                {"kind": "rpc_conv", "out_channels": 4, "kernel": 3, "pad": 1,
                 "rotate_fraction": 0.5},
                {"kind": "frpc_conv", "out_channels": 4, "kernel": 3,
                 "rotate_fraction": 0.25, "flip_fraction": 0.5},
                {"kind": "prelu"},
                {"kind": "flatten"},
                {"kind": "fc", "out_features": 6},
                {"kind": "dropout", "p": 0.5, "mode": "split"},
                {"kind": "fc", "out_features": 4},
            ],
        },
        "dataset": {"kind": "synthetic_shapes", "n_per_class": 2, "seed": 1},
        "val_dataset": {"kind": "idx", "images": "a.idx", "labels": "b.idx"},
        "output_dir": "runs/x",
    }


def _slots(node):
    """Every (container, key) of the document tree, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


_SIZE_KEYS = ("out_channels", "kernel", "pad", "window", "stride", "out_features",
              "n_per_class", "batch_size", "epochs")
_MUTANTS = (st.none() | st.booleans() | st.integers(-2, 5)
            | st.sampled_from([0.5, 1.0, -0.0, float("nan"), float("inf"), "", "conv",
                               "rpc_conv", "dropout", "split", "plateau", "idx", [], {},
                               [1, 2], {"kind": "relu"}]))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mutated_config_builds_or_exits_2(data, tmp_path_factory):
    """One mutation of a valid document through `parse_config` and
    `init_weights` under the CLI's exit-code mapping: it builds, or exits 2
    with an `error:` line and no traceback. Half the mutations set a size,
    either small or so large that a cap must refuse it before anything is
    allocated; the others replace any value, remove a key or add one."""
    import contextlib
    import io
    from unittest import mock

    from spinconv import cli
    from spinconv.layers import NetworkSpec
    from spinconv.training import init_weights

    doc = _rich_doc()
    slots = list(_slots(doc))
    if data.draw(st.booleans()):
        node, key = data.draw(st.sampled_from(
            [(node, key) for node, key in slots
             if key in _SIZE_KEYS or node is doc["network"]["input_shape"]]))
        node[key] = data.draw(st.integers(-1, 4) | st.sampled_from([2 ** 25, 2 ** 40, 2 ** 64]))
    else:
        node, key = data.draw(st.sampled_from(slots))
        action = data.draw(st.sampled_from(["replace", "remove", "add"]))
        if action == "replace":
            node[key] = data.draw(_MUTANTS)
        elif action == "remove":
            del node[key]
        elif isinstance(node, dict):
            node["extra"] = data.draw(_MUTANTS)
        else:
            node.append(data.draw(_MUTANTS))

    def build(args):
        rc = cfg.load_config(args.config)
        init_weights(NetworkSpec(rc.input_shape, rc.layers), rc.seed)
        return 0

    path = tmp_path_factory.mktemp("mutant") / "run.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with mock.patch.object(cli, "cmd_train", build), contextlib.redirect_stderr(err):
        code = cli.main(["train", "--config", str(path)])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error:")
    assert "Traceback" not in err.getvalue()
