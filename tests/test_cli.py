"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from spinconv import cli, data


def _write_eval_idx(tmp_path, n_per_class=2, seed=1):
    ds = data.make_rotated_shapes(n_per_class, seed=seed)
    ip = str(tmp_path / "eval-images.idx")
    lp = str(tmp_path / "eval-labels.idx")
    data.write_idx(ds, ip, lp)
    return ip, lp


def _config(tmp_path, out_name="run", **overrides):
    doc = {
        "seed": 3,
        "epochs": 2,
        "batch_size": 8,
        "learning_rate": 0.2,
        "momentum": 0.9,
        "schedule": {"kind": "fixed"},
        "network": {
            "input_shape": [1, 28, 28],
            "layers": [
                {"kind": "flatten"},
                {"kind": "fc", "out_features": 16},
                {"kind": "relu"},
                {"kind": "fc", "out_features": 4},
            ],
        },
        "dataset": {"kind": "synthetic_shapes", "n_per_class": 2, "seed": 1},
        "output_dir": str(tmp_path / out_name),
    }
    doc.update(overrides)
    path = tmp_path / f"{out_name}.json"
    path.write_text(json.dumps(doc))
    return str(path), doc


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    """A deliberately memorized model plus its training set as IDX files."""
    tmp = tmp_path_factory.mktemp("overfit")
    cfg_path, _ = _config(tmp, epochs=150,
                          network={"input_shape": [1, 28, 28], "layers": [
                              {"kind": "flatten"},
                              {"kind": "fc", "out_features": 32},
                              {"kind": "relu"},
                              {"kind": "fc", "out_features": 4}]})
    assert cli.main(["train", "--config", cfg_path]) == 0
    images, labels = _write_eval_idx(tmp)
    return str(tmp / "run" / "checkpoint.bin"), images, labels


def _eval_top1(capsys, *argv):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-2] == "top1,top5"
    top1, top5 = out[-1].split(",")
    return top1, top5


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_writes_artifacts(tmp_path):
    cfg_path, doc = _config(tmp_path)
    assert cli.main(["train", "--config", cfg_path]) == 0
    out = tmp_path / "run"
    assert (out / "checkpoint.bin").exists()
    assert (out / "run.json").exists()

    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("# seed=3 config=")
    assert lines[1] == "epoch,split,loss,top1"
    assert len(lines) == 4  # comment + header + 2 epochs
    for row in lines[2:]:
        epoch, split, loss, top1 = row.split(",")
        assert split == "train"
        assert len(loss.split(".")[1]) == 6

    run_meta = json.loads((out / "run.json").read_text())
    assert run_meta["seed"] == 3
    assert run_meta["config"]["dataset"] == doc["dataset"]


def test_train_is_byte_deterministic(tmp_path):
    cfg, _ = _config(tmp_path)
    assert cli.main(["--threads", "1", "train", "--config", cfg]) == 0
    first = {name: (tmp_path / "run" / name).read_bytes()
             for name in ("metrics.csv", "checkpoint.bin")}
    assert cli.main(["--threads", "1", "train", "--config", cfg]) == 0
    for name, blob in first.items():
        assert (tmp_path / "run" / name).read_bytes() == blob, name


def test_results_do_not_depend_on_the_thread_count(tmp_path):
    """The README network at batch 128, so the BLAS GEMMs are large enough
    to split across threads: training, ten-view eval and sweep give the
    same bytes at --threads 1 and 2. Both trainings write to one
    output_dir, which the checkpoint header echoes."""
    cfg, _ = _config(tmp_path, epochs=2, batch_size=128, learning_rate=0.01, network={
        "input_shape": [1, 28, 28],
        "layers": [
            {"kind": "conv", "out_channels": 16, "kernel": 5, "pad": 2},
            {"kind": "relu"},
            {"kind": "maxpool", "window": 2, "stride": 2},
            {"kind": "rpc_conv", "out_channels": 32, "kernel": 3, "pad": 1,
             "rotate_fraction": 0.5},
            {"kind": "relu"},
            {"kind": "maxpool", "window": 2, "stride": 2},
            {"kind": "flatten"},
            {"kind": "fc", "out_features": 256},
            {"kind": "relu"},
            {"kind": "dropout", "p": 0.5, "mode": "split"},
            {"kind": "fc", "out_features": 10}]},
        dataset={"kind": "synthetic_shapes", "n_per_class": 64, "seed": 1},
        val_dataset={"kind": "synthetic_shapes", "n_per_class": 8, "seed": 2})
    images, labels = _write_eval_idx(tmp_path, n_per_class=16, seed=4)
    ckpt = str(tmp_path / "run" / "checkpoint.bin")

    def spinconv(threads, *argv):
        p = subprocess.run([sys.executable, "-m", "spinconv", "--threads", str(threads),
                            *argv], capture_output=True, text=True, env=_src_env(),
                           timeout=300)
        assert p.returncode == 0, p.stderr
        return p.stdout

    outputs = {}
    for threads in (1, 2):
        spinconv(threads, "train", "--config", cfg)
        out = str(tmp_path / f"sweep-{threads}.csv")
        outputs[threads] = [
            (tmp_path / "run" / "checkpoint.bin").read_bytes(),
            (tmp_path / "run" / "metrics.csv").read_bytes(),
            spinconv(threads, "eval", "--checkpoint", ckpt, "--images", images,
                     "--labels", labels, "--ten-view"),
            spinconv(threads, "sweep", "--checkpoint", ckpt, "--images", images,
                     "--labels", labels, "--angles", "16", "--out", out).replace(out, ""),
            open(out, "rb").read(), open(out + ".meta.json", "rb").read()]
    for name, one, two in zip(("checkpoint.bin", "metrics.csv", "eval --ten-view",
                               "sweep stdout", "sweep.csv", "sweep .meta.json"),
                              outputs[1], outputs[2]):
        assert one == two, name


def test_aborted_train_keeps_finished_metric_rows(tmp_path, monkeypatch, capsys):
    from spinconv import training
    from spinconv.errors import NumericalAbort
    # an earlier run's files must not stay beside the aborted run's rows
    cfg, _ = _config(tmp_path, epochs=3)
    assert cli.main(["train", "--config", cfg]) == 0
    assert (tmp_path / "run" / "checkpoint.bin").exists()
    epochs = []

    def train_epoch(*args):
        epochs.append(len(epochs) + 1)
        if len(epochs) == 2:
            raise NumericalAbort("non-finite training loss nan")
        return real(*args)

    real = training.train_epoch
    monkeypatch.setattr(training, "train_epoch", train_epoch)
    assert cli.main(["train", "--config", cfg]) == 4
    assert "error:" in capsys.readouterr().err
    lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    assert lines[1] == "epoch,split,loss,top1"
    assert [line.split(",")[:2] for line in lines[2:]] == [["1", "train"]]
    assert sorted(os.listdir(tmp_path / "run")) == ["metrics.csv"]


def test_train_diverging_run_exits_4_with_one_error_line(tmp_path):
    cfg, _ = _config(tmp_path, epochs=1, batch_size=2, learning_rate=1e30)
    stderr = _assert_config_error_exit("train", "--config", cfg, code=4)
    assert stderr.splitlines() == ["error: non-finite training loss nan"]
    assert "Warning" not in stderr


@pytest.mark.parametrize("input_shape,message", [
    ([3, 24, 24], "images have 1 channels, the network input has 3"),
    ([1, 30, 30], "images of 28x28 are smaller than the network input of 30x30"),
], ids=["channels", "size"])
def test_train_dataset_geometry_exits_before_touching_output(tmp_path, input_shape,
                                                             message):
    cfg, _ = _config(tmp_path)
    assert cli.main(["--threads", "1", "train", "--config", cfg]) == 0
    names = ("metrics.csv", "checkpoint.bin", "run.json")
    before = {name: (tmp_path / "run" / name).read_bytes() for name in names}
    bad, _ = _config(tmp_path, network={
        "input_shape": input_shape,
        "layers": [{"kind": "flatten"}, {"kind": "fc", "out_features": 4}]})
    err = _assert_config_error_exit("train", "--config", bad)
    assert f"config.dataset: {message}" in err
    for name, blob in before.items():
        assert (tmp_path / "run" / name).read_bytes() == blob, name


def test_train_bad_fraction_exit_code(tmp_path, capsys):
    cfg_path, _ = _config(tmp_path, network={
        "input_shape": [1, 28, 28],
        "layers": [{"kind": "rpc_conv", "out_channels": 4, "kernel": 3,
                    "rotate_fraction": 1.2},
                   {"kind": "flatten"},
                   {"kind": "fc", "out_features": 4}]})
    assert cli.main(["train", "--config", cfg_path]) == 2
    assert "rotate_fraction" in capsys.readouterr().err


def test_train_requires_dataset(tmp_path, capsys):
    cfg_path, _ = _config(tmp_path, dataset=None)
    assert cli.main(["train", "--config", cfg_path]) == 2
    assert "dataset" in capsys.readouterr().err


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def _assert_config_error_exit(*argv, code=2):
    """`spinconv <argv>` in a fresh process exits `code` (2 by default, a
    config error) with an error line."""
    p = subprocess.run([sys.executable, "-m", "spinconv", *argv],
                       capture_output=True, text=True, env=_src_env(), timeout=120)
    assert p.returncode == code, p.stderr
    assert "error:" in p.stderr
    assert "Traceback" not in p.stderr
    return p.stderr


def _write_empty_idx(tmp_path):
    empty = data.Dataset(images=np.zeros((0, 1, 28, 28), np.float32),
                         labels=np.zeros(0, np.int64))
    ip = str(tmp_path / "empty-images.idx")
    lp = str(tmp_path / "empty-labels.idx")
    data.write_idx(empty, ip, lp)
    return ip, lp


def test_train_pool_window_exceeding_input_exit_code(tmp_path):
    cfg_path, _ = _config(tmp_path, network={
        "input_shape": [1, 28, 28],
        "layers": [{"kind": "maxpool", "window": 40},
                   {"kind": "flatten"},
                   {"kind": "fc", "out_features": 4}]})
    _assert_config_error_exit("train", "--config", cfg_path)


@pytest.mark.parametrize("layers", [
    [{"kind": "flatten"},
     {"kind": "maxpool", "window": 2},
     {"kind": "fc", "out_features": 4}],
    [{"kind": "conv", "out_channels": 6, "kernel": 23},
     {"kind": "dropout"},
     {"kind": "flatten"},
     {"kind": "fc", "out_features": 4}],
], ids=["maxpool_on_flat", "dropout_on_image"])
def test_train_layer_input_rank_exit_code(tmp_path, layers):
    cfg_path, _ = _config(tmp_path, network={"input_shape": [1, 28, 28],
                                             "layers": layers})
    _assert_config_error_exit("train", "--config", cfg_path)


_CLASSIFIER = [{"kind": "flatten"}, {"kind": "fc", "out_features": 4}]


@pytest.mark.parametrize("layers", [
    [{"kind": "conv", "out_channels": 4, "kernel": 3, "pad": 1},
     {"kind": "relu"},
     {"kind": "maxpool", "window": 40}] + _CLASSIFIER,
    [{"kind": "maxpool", "window": 2},
     {"kind": "relu"},
     {"kind": "conv", "out_channels": 4, "kernel": 15}] + _CLASSIFIER,
    [{"kind": "conv", "out_channels": 4, "kernel": 3, "pad": 1},
     {"kind": "relu"},
     {"kind": "frpc_conv", "out_channels": 3, "kernel": 3, "pad": 1,
      "rotate_fraction": 0.5, "flip_fraction": 0.5}] + _CLASSIFIER,
    _CLASSIFIER + [{"kind": "dropout"}],
    [{"kind": "conv", "out_channels": 4, "kernel": 3, "pad": 1},
     {"kind": "relu"},
     {"kind": "conv", "out_channels": 4, "kernel": 3, "pad": 2147483648}]
    + _CLASSIFIER,
    [{"kind": "flatten"},
     {"kind": "relu"},
     {"kind": "fc", "out_features": 2**40},
     {"kind": "fc", "out_features": 4}],
], ids=["pool_window_over_input", "conv_kernel_over_padded_input",
        "frpc_selections_over_filters", "dropout_without_later_weighted_layer",
        "conv_output_over_cap", "fc_weights_over_cap"])
def test_train_geometry_error_exits_before_reading_data(tmp_path, layers):
    # the dataset files do not exist: reading them first would exit 3
    cfg_path, _ = _config(tmp_path, network={
        "input_shape": [1, 28, 28], "layers": layers},
        dataset={"kind": "idx", "images": str(tmp_path / "missing-images.idx"),
                 "labels": str(tmp_path / "missing-labels.idx")})
    stderr = _assert_config_error_exit("train", "--config", cfg_path)
    assert "config.network.layers[2]" in stderr


@pytest.mark.parametrize("overrides,field", [
    ({"schedule": {"kind": "plateau", "factor": "abc"}}, "config.schedule.factor"),
    ({"schedule": {"kind": "plateau", "patience": "x"}}, "config.schedule.patience"),
    ({"schedule": {"kind": "plateau", "factor": None}}, "config.schedule.factor"),
    ({"schedule": {"kind": "plateau", "factor": -3}}, "config.schedule.factor"),
    ({"schedule": {"kind": "plateau", "patience": 0}}, "config.schedule.patience"),
    ({"learning_rate": True}, "config.learning_rate"),
    ({"momentum": False}, "config.momentum"),
    ({"learning_rate": float("inf")}, "config.learning_rate"),
], ids=["factor_str", "patience_str", "factor_null", "factor_negative",
        "patience_zero", "lr_bool", "momentum_bool", "lr_infinite"])
def test_train_run_field_error_exits_before_reading_data(tmp_path, overrides, field):
    # the dataset files do not exist: reading them first would exit 3
    cfg_path, _ = _config(tmp_path, **overrides, dataset={
        "kind": "idx", "images": str(tmp_path / "missing-images.idx"),
        "labels": str(tmp_path / "missing-labels.idx")})
    stderr = _assert_config_error_exit("train", "--config", cfg_path)
    assert field in stderr


def test_train_synthetic_size_over_cap_exit_code(tmp_path):
    # refused by the config table before any image is generated
    cfg_path, _ = _config(tmp_path, dataset={"kind": "synthetic_shapes",
                                             "n_per_class": 2**40, "seed": 1})
    stderr = _assert_config_error_exit("train", "--config", cfg_path)
    assert "config.dataset.n_per_class" in stderr


def _write_count_mismatch_idx(tmp_path):
    """An images file that declares 2 images and a labels file that declares
    3 labels, each well formed on its own."""
    ip, lp = tmp_path / "two-images.idx", tmp_path / "three-labels.idx"
    ip.write_bytes(struct.pack(">IIII", data.IDX_IMAGES_MAGIC, 2, 28, 28) + bytes(2 * 784))
    lp.write_bytes(struct.pack(">II", data.IDX_LABELS_MAGIC, 3) + bytes(3))
    return str(ip), str(lp)


def test_train_idx_count_mismatch_exit_code(tmp_path):
    images, labels = _write_count_mismatch_idx(tmp_path)
    cfg_path, _ = _config(tmp_path, dataset={"kind": "idx", "images": images,
                                             "labels": labels})
    err = _assert_config_error_exit("train", "--config", cfg_path, code=3)
    assert "2 images but 3 labels" in err


def test_cli_and_config_import_without_numpy():
    # the CLI pins BLAS threads in the environment before numpy first loads
    code = "import sys, spinconv.cli, spinconv.config; sys.exit('numpy' in sys.modules)"
    p = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=_src_env(), timeout=120)
    assert p.returncode == 0, p.stderr or "numpy was imported"


def test_train_on_empty_idx_exit_code(tmp_path):
    images, labels = _write_empty_idx(tmp_path)
    cfg_path, _ = _config(tmp_path, dataset={"kind": "idx", "images": images,
                                             "labels": labels})
    stderr = _assert_config_error_exit("train", "--config", cfg_path)
    assert "Warning" not in stderr


def test_threads_must_be_positive(capsys):
    assert cli.main(["--threads", "0", "gradcheck"]) == 2
    assert "threads" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_overfit_training_set(overfit_run, capsys):
    ckpt, images, labels = overfit_run
    top1, top5 = _eval_top1(capsys, "eval", "--checkpoint", ckpt,
                            "--images", images, "--labels", labels)
    assert float(top1) > 0.99
    assert float(top5) >= float(top1)


def test_eval_ten_view_with_crop(tmp_path, capsys):
    cfg_path, _ = _config(tmp_path, epochs=1, network={
        "input_shape": [1, 24, 24],
        "layers": [{"kind": "flatten"},
                   {"kind": "fc", "out_features": 8},
                   {"kind": "relu"},
                   {"kind": "fc", "out_features": 4}]})
    assert cli.main(["train", "--config", cfg_path]) == 0
    images, labels = _write_eval_idx(tmp_path)
    ckpt = str(tmp_path / "run" / "checkpoint.bin")
    top1, _ = _eval_top1(capsys, "eval", "--checkpoint", ckpt,
                         "--images", images, "--labels", labels, "--ten-view")
    assert 0.0 <= float(top1) <= 1.0


@pytest.mark.parametrize("input_shape", [[1, 28, 24], [1, 24, 28]],
                         ids=["28x24", "24x28"])
def test_non_square_input_shape_trains_and_evaluates(tmp_path, capsys, input_shape):
    # every crop takes (height, width) from the input shape
    cfg_path, _ = _config(tmp_path, epochs=1, val_dataset={
        "kind": "synthetic_shapes", "n_per_class": 2, "seed": 2}, network={
        "input_shape": input_shape,
        "layers": [{"kind": "conv", "out_channels": 4, "kernel": 3, "pad": 1},
                   {"kind": "relu"},
                   {"kind": "maxpool", "window": 2}] + _CLASSIFIER})
    assert cli.main(["train", "--config", cfg_path]) == 0
    images, labels = _write_eval_idx(tmp_path)
    ckpt = str(tmp_path / "run" / "checkpoint.bin")
    for extra in ([], ["--ten-view"]):
        top1, _ = _eval_top1(capsys, "eval", "--checkpoint", ckpt, "--images", images,
                             "--labels", labels, *extra)
        assert 0.0 <= float(top1) <= 1.0
    out = str(tmp_path / "sweep.csv")
    assert cli.main(["sweep", "--checkpoint", ckpt, "--images", images,
                     "--labels", labels, "--angles", "2", "--out", out]) == 0
    assert len(open(out).read().splitlines()) == 3


def test_eval_corrupt_checkpoint(overfit_run, tmp_path, capsys):
    ckpt, images, labels = overfit_run
    raw = bytearray(open(ckpt, "rb").read())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    assert cli.main(["eval", "--checkpoint", str(bad),
                     "--images", images, "--labels", labels]) == 3
    assert "magic" in capsys.readouterr().err


def _tampered(ckpt, tmp_path, mutate, payload=None):
    """A copy of the checkpoint with its header passed through `mutate` and,
    if given, its tensor bytes through `payload`."""
    raw = open(ckpt, "rb").read()
    header_len = struct.unpack("<I", raw[12:16])[0]
    header = json.loads(raw[16:16 + header_len])
    mutate(header)
    blob = json.dumps(header).encode()
    body = raw[16 + header_len:]
    bad = tmp_path / "bad.bin"
    bad.write_bytes(raw[:12] + struct.pack("<I", len(blob)) + blob
                    + (payload(body) if payload else body))
    return str(bad)


def _drop_input_shape(header):
    del header["input_shape"]


def _negative_tensor_shape(header):
    header["tensors"][0]["shape"] = [-2, 1, 3, 3]


def _unknown_layer_kind(header):
    header["layers"][0]["kind"] = "warp"


def _oversized_tensor_shape(header):
    header["tensors"][0]["shape"] = [2147483648, 2147483648]


def _inference_flag(header):
    header["inference"] = True


def _frpc_selections_over_filters(header):
    # 0.5 + 0.5 of 3 filters rounds to 2 + 2 selected filters
    header["layers"].insert(0, {"kind": "frpc_conv", "out_channels": 3, "kernel": 3,
                                "pad": 1, "rotate_fraction": 0.5,
                                "flip_fraction": 0.5})


def _dropout_without_later_weighted_layer(header):
    header["layers"].append({"kind": "dropout"})


def _frpc_weights_over_cap(header):
    # 4 filters of 3x3 over 2**31 input channels would take 288 GiB
    header["layers"].insert(0, {"kind": "frpc_conv", "out_channels": 4, "kernel": 3,
                                "pad": 1})
    header["input_shape"] = [2147483648, 28, 28]


def _extra_not_object(header):
    header["extra"] = "x"


@pytest.mark.parametrize("mutate", [
    _drop_input_shape, _negative_tensor_shape, _unknown_layer_kind,
    _oversized_tensor_shape, _inference_flag, _frpc_selections_over_filters,
    _dropout_without_later_weighted_layer, _frpc_weights_over_cap, _extra_not_object],
    ids=["no_input_shape", "negative_tensor_shape", "unknown_layer_kind",
         "oversized_tensor_shape", "inference_flag", "frpc_selections_over_filters",
         "dropout_without_later_weighted_layer", "frpc_weights_over_cap",
         "extra_not_object"])
def test_eval_bad_checkpoint_header_exit_code(overfit_run, tmp_path, mutate):
    ckpt, images, labels = overfit_run
    bad = _tampered(ckpt, tmp_path, mutate)
    _assert_config_error_exit("eval", "--checkpoint", bad, "--images", images,
                              "--labels", labels, code=3)


@pytest.fixture(scope="module")
def rpc_checkpoint(tmp_path_factory):
    """An untrained 3-layer network whose rpc layer rotates 2 of 4 filters,
    saved with a mean image, plus IDX files it can evaluate."""
    from spinconv import checkpoint, training
    from spinconv.layers import NetworkSpec
    tmp = tmp_path_factory.mktemp("rpc")
    spec = NetworkSpec(input_shape=(1, 28, 28), layers=[
        {"kind": "rpc_conv", "out_channels": 4, "kernel": 3, "stride": 4,
         "rotate_fraction": 0.5},
        {"kind": "flatten"},
        {"kind": "fc", "out_features": 4}])
    path = str(tmp / "rpc.bin")
    checkpoint.save_checkpoint(training.init_weights(spec, seed=2), path,
                               mean_image=np.zeros((1, 28, 28), np.float32))
    return (path,) + _write_eval_idx(tmp)


def _selection(value, index="0"):
    def mutate(header):
        header["selections"] = {index: value}
    return mutate


def _empty_selection_on_conv(header):
    # the rpc layer becomes a plain conv with the same tensors; a plain conv
    # owns no selection, not even an empty one
    header["layers"][0] = {"kind": "conv", "out_channels": 4, "kernel": 3, "stride": 4}
    header["selections"] = {"0": {"rotate": [], "flip_axes": {}}}


@pytest.mark.parametrize("mutate", [
    _selection({"rotate": [0, 2], "flip_axes": {}}, index="7"),
    _selection({"rotate": [99], "flip_axes": {}}),
    _selection({"rotate": [0], "flip_axes": {}}, index="2"),
    _selection("rotate"),
    _selection({"rotate": [1, 1], "flip_axes": {}}),
    _selection({"rotate": [-1], "flip_axes": {}}),
    _selection({"rotate": [0], "flip_axes": {}}),
    _selection({"rotate": [0, 1], "flip_axes": {"2": "left_right", "3": "up_down"}}),
    _empty_selection_on_conv,
    # the fixture's seed rotates filters [2, 3]
    _selection({"rotate": [0, 1], "flip_axes": {}})],
    ids=["layer_out_of_range", "rotate_index_99", "fc_layer", "not_an_object",
         "duplicate_rotate", "negative_rotate", "rotate_count", "flip_on_rpc",
         "conv_layer", "other_draw"])
def test_eval_bad_selection_exit_code(rpc_checkpoint, tmp_path, mutate):
    ckpt, images, labels = rpc_checkpoint
    bad = _tampered(ckpt, tmp_path, mutate)
    _assert_config_error_exit("eval", "--checkpoint", bad, "--images", images,
                              "--labels", labels, code=3)


def test_eval_idx_sizes_beyond_file_exit_code(rpc_checkpoint, tmp_path):
    """An images header that promises more pixels than the file holds is
    refused before anything is read, even when n * rows * cols overflows
    an index-sized integer."""
    ckpt, images, labels = rpc_checkpoint
    raw = open(images, "rb").read()
    forged = tmp_path / "forged-images.idx"
    forged.write_bytes(raw[:4] + struct.pack(">III", *[2**32 - 1] * 3) + raw[16:])
    err = _assert_config_error_exit("eval", "--checkpoint", ckpt, "--images", str(forged),
                                    "--labels", labels, code=3)
    assert "truncated" in err


def test_eval_non_finite_tensor_exit_code(overfit_run, tmp_path):
    ckpt, images, labels = overfit_run
    # +inf and -inf together also sum to NaN, and must not warn
    for values in ([np.nan], [np.inf, -np.inf]):
        head = np.array(values, np.float32).tobytes()
        bad = _tampered(ckpt, tmp_path, lambda header: None,
                        lambda body: head + body[len(head):])
        stderr = _assert_config_error_exit("eval", "--checkpoint", bad, "--images",
                                           images, "--labels", labels, code=3)
        assert "Warning" not in stderr


def _write_label_overflow_idx(tmp_path):
    """The eval set with one label equal to the class count 4."""
    ds = data.make_rotated_shapes(2, seed=1)
    ds.labels[0] = 4
    ip = str(tmp_path / "overflow-images.idx")
    lp = str(tmp_path / "overflow-labels.idx")
    data.write_idx(ds, ip, lp)
    return ip, lp


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_label_outside_network_outputs_exit_code(overfit_run, tmp_path, command):
    ckpt, _, _ = overfit_run
    images, labels = _write_label_overflow_idx(tmp_path)
    extra = ["--angles", "2", "--out", str(tmp_path / "s.csv")] if command == "sweep" else []
    err = _assert_config_error_exit(command, "--checkpoint", ckpt, "--images", images,
                                    "--labels", labels, *extra)
    assert labels in err


def test_train_val_label_outside_network_outputs_exit_code(tmp_path):
    images, labels = _write_label_overflow_idx(tmp_path)
    cfg_path, _ = _config(tmp_path, val_dataset={"kind": "idx", "images": images,
                                                 "labels": labels})
    err = _assert_config_error_exit("train", "--config", cfg_path)
    assert "config.val_dataset" in err


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_checkpoint_without_mean_image_exit_code(tmp_path, command):
    from spinconv import checkpoint, training
    from spinconv.layers import NetworkSpec
    spec = NetworkSpec(input_shape=(1, 28, 28), layers=[
        {"kind": "flatten"}, {"kind": "fc", "out_features": 4}])
    ckpt = str(tmp_path / "no-mean.bin")
    checkpoint.save_checkpoint(training.init_weights(spec, seed=2), ckpt)
    images, labels = _write_eval_idx(tmp_path)
    extra = ["--angles", "2", "--out", str(tmp_path / "s.csv")] if command == "sweep" else []
    err = _assert_config_error_exit(command, "--checkpoint", ckpt, "--images", images,
                                    "--labels", labels, *extra)
    assert f"checkpoint {ckpt} carries no training mean image" in err


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_images_smaller_than_checkpoint_input_exit_code(tmp_path, capsys, command):
    from spinconv import checkpoint, training
    from spinconv.layers import NetworkSpec
    spec = NetworkSpec(input_shape=(1, 30, 30), layers=[
        {"kind": "flatten"}, {"kind": "fc", "out_features": 4}])
    ckpt = str(tmp_path / "wide.bin")
    checkpoint.save_checkpoint(training.init_weights(spec, seed=2), ckpt,
                               mean_image=np.zeros((1, 30, 30), np.float32))
    images, labels = _write_eval_idx(tmp_path)
    extra = ["--angles", "2", "--out", str(tmp_path / "s.csv")] if command == "sweep" else []
    assert cli.main([command, "--checkpoint", ckpt, "--images", images,
                     "--labels", labels, *extra]) == 2
    assert (f"{images}, {labels}: images of 28x28 are smaller than the network "
            "input of 30x30") in capsys.readouterr().err


def _write_32x32_idx(tmp_path):
    """Four 32x32 images: larger than a 28x28 input, so the crop would fit
    them, but of another shape than a 28x28 training mean."""
    rng = np.random.default_rng(5)
    ds = data.Dataset(images=rng.random((4, 1, 32, 32)).astype(np.float32),
                      labels=np.arange(4))
    ip, lp = str(tmp_path / "wide-images.idx"), str(tmp_path / "wide-labels.idx")
    data.write_idx(ds, ip, lp)
    return ip, lp


def test_train_val_images_unlike_the_training_mean_exit_before_touching_output(
        tmp_path):
    cfg, _ = _config(tmp_path)
    assert cli.main(["--threads", "1", "train", "--config", cfg]) == 0
    names = ("metrics.csv", "checkpoint.bin", "run.json")
    before = {name: (tmp_path / "run" / name).read_bytes() for name in names}
    images, labels = _write_32x32_idx(tmp_path)
    bad, _ = _config(tmp_path, val_dataset={"kind": "idx", "images": images,
                                            "labels": labels})
    err = _assert_config_error_exit("train", "--config", bad)
    assert ("config.val_dataset: images of shape (1, 32, 32) do not match the "
            "training mean image of shape (1, 28, 28)") in err
    for name, blob in before.items():
        assert (tmp_path / "run" / name).read_bytes() == blob, name


@pytest.mark.parametrize("command", ["eval", "sweep"])
def test_images_unlike_the_checkpoint_mean_exit_code(overfit_run, tmp_path, command):
    ckpt, _, _ = overfit_run
    images, labels = _write_32x32_idx(tmp_path)
    extra = ["--angles", "2", "--out", str(tmp_path / "s.csv")] if command == "sweep" else []
    err = _assert_config_error_exit(command, "--checkpoint", ckpt, "--images", images,
                                    "--labels", labels, *extra)
    assert (f"{images}, {labels}: images of shape (1, 32, 32) do not match the "
            "training mean image of shape (1, 28, 28)") in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command,batch_size,extra", [
    ("eval", "0", []), ("eval", "-3", []), ("sweep", "0", []), ("sweep", "-1", []),
    ("eval", "0", ["--ten-view"])],
    ids=["eval-0", "eval--3", "sweep-0", "sweep--1", "eval_ten_view-0"])
def test_batch_size_below_one_exit_code(overfit_run, tmp_path, command, batch_size,
                                        extra):
    ckpt, images, labels = overfit_run
    if command == "sweep":
        extra = ["--angles", "2", "--out", str(tmp_path / "s.csv")]
    _assert_config_error_exit(command, "--checkpoint", ckpt, "--images", images,
                              "--labels", labels, "--batch-size", batch_size, *extra)


@pytest.mark.parametrize("command,extra", [
    ("eval", []), ("eval", ["--ten-view"]), ("sweep", ["--angles", "2"])],
    ids=["eval", "eval_ten_view", "sweep"])
def test_empty_idx_exit_code(overfit_run, tmp_path, command, extra):
    ckpt, _, _ = overfit_run
    images, labels = _write_empty_idx(tmp_path)
    if command == "sweep":
        extra = extra + ["--out", str(tmp_path / "s.csv")]
    _assert_config_error_exit(command, "--checkpoint", ckpt, "--images", images,
                              "--labels", labels, *extra)


@pytest.mark.parametrize("command,extra", [
    ("eval", []), ("sweep", ["--angles", "2"])], ids=["eval", "sweep"])
def test_idx_count_mismatch_exit_code(overfit_run, tmp_path, command, extra):
    ckpt, _, _ = overfit_run
    images, labels = _write_count_mismatch_idx(tmp_path)
    if command == "sweep":
        extra = extra + ["--out", str(tmp_path / "s.csv")]
    _assert_config_error_exit(command, "--checkpoint", ckpt, "--images", images,
                              "--labels", labels, *extra, code=3)


def test_sweep_angles_over_cap_exits_before_reading_files(tmp_path, capsys):
    # none of the files exists: reading any of them first would exit 3
    from spinconv.evaluation import MAX_SWEEP_ANGLES
    missing = [str(tmp_path / name) for name in ("c.bin", "i.idx", "l.idx")]
    assert cli.main(["sweep", "--checkpoint", missing[0], "--images", missing[1],
                     "--labels", missing[2], "--angles", str(MAX_SWEEP_ANGLES + 1),
                     "--out", str(tmp_path / "s.csv")]) == 2
    assert "angle" in capsys.readouterr().err


def test_sweep_out_in_missing_directory_exits_before_sweeping(overfit_run, tmp_path,
                                                              monkeypatch, capsys):
    from spinconv import evaluation

    def rotation_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(evaluation, "rotation_sweep", rotation_sweep)
    ckpt, images, labels = overfit_run
    out = str(tmp_path / "missing" / "s.csv")
    assert cli.main(["sweep", "--checkpoint", ckpt, "--images", images,
                     "--labels", labels, "--angles", "2", "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and out in err
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "missing")


def test_sweep_out_naming_a_directory_exits_before_sweeping(overfit_run, tmp_path,
                                                            monkeypatch, capsys):
    from spinconv import evaluation

    def rotation_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr(evaluation, "rotation_sweep", rotation_sweep)
    ckpt, images, labels = overfit_run
    out = str(tmp_path / "outdir")
    os.mkdir(out)
    assert cli.main(["sweep", "--checkpoint", ckpt, "--images", images,
                     "--labels", labels, "--angles", "2", "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and out in err
    assert "Traceback" not in err
    assert os.listdir(out) == []


def test_sweep_single_angle_matches_eval(overfit_run, tmp_path, capsys):
    ckpt, images, labels = overfit_run
    top1, _ = _eval_top1(capsys, "eval", "--checkpoint", ckpt,
                         "--images", images, "--labels", labels)
    out = str(tmp_path / "sweep.csv")
    assert cli.main(["sweep", "--checkpoint", ckpt, "--images", images,
                     "--labels", labels, "--angles", "1", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "angle,top1,mean_p_true"
    assert len(lines) == 2
    angle, sweep_top1, _ = lines[1].split(",")
    assert angle == "0.000000"
    assert sweep_top1 == top1

    meta = json.load(open(out + ".meta.json"))
    assert meta["n_angles"] == 1
    assert meta["seed"] == 3


def test_sweep_64_angles(overfit_run, tmp_path, capsys):
    ckpt, images, labels = overfit_run
    out = str(tmp_path / "sweep64.csv")
    assert cli.main(["sweep", "--checkpoint", ckpt, "--images", images,
                     "--labels", labels, "--out", out]) == 0
    capsys.readouterr()
    lines = open(out).read().splitlines()
    assert len(lines) == 65
    assert lines[1].split(",")[0] == "0.000000"
    assert lines[2].split(",")[0] == "5.625000"
    assert lines[64].split(",")[0] == f"{360.0 * 63 / 64:.6f}"


def test_sweep_zero_angles(overfit_run, tmp_path, capsys):
    ckpt, images, labels = overfit_run
    assert cli.main(["sweep", "--checkpoint", ckpt, "--images", images,
                     "--labels", labels, "--angles", "0",
                     "--out", str(tmp_path / "s.csv")]) == 2
    assert "angle" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_all_layers_pass(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = [l for l in out if l.endswith("PASS")]
    assert len(rows) == 8
    assert not any("FAIL" in l for l in out)


def test_gradcheck_failure_exit_code(capsys, monkeypatch):
    from spinconv import oracle
    monkeypatch.setattr(oracle, "gradient_suite", lambda seed, kinds: [
        {"layer": "conv", "max_rel": 1e-6, "coords": 104},
        {"layer": "fc", "max_rel": 2e-4, "coords": 107}])
    assert cli.main(["gradcheck"]) == 4
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1:] == [
        f"{'conv':<10} {1e-6:>12.3e} {104:>7} PASS",
        f"{'fc':<10} {2e-4:>12.3e} {107:>7} FAIL"]
    assert captured.err == "error: gradient check exceeded 0.0001 for: fc\n"


def test_gradcheck_unknown_layer(capsys):
    assert cli.main(["gradcheck", "--layer", "gelu"]) == 2
    assert "gelu" in capsys.readouterr().err


def test_gradcheck_negative_seed_exit_code():
    err = _assert_config_error_exit("gradcheck", "--seed", "-1")
    assert "seed" in err
