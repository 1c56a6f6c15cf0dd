"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import json
import os
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


def test_train_pool_window_exceeding_input_exit_code(tmp_path):
    cfg_path, _ = _config(tmp_path, network={
        "input_shape": [1, 28, 28],
        "layers": [{"kind": "maxpool", "window": 40},
                   {"kind": "flatten"},
                   {"kind": "fc", "out_features": 4}]})
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    p = subprocess.run([sys.executable, "-m", "spinconv", "train", "--config", cfg_path],
                       capture_output=True, text=True, env=env, timeout=120)
    assert p.returncode == 2, p.stderr
    assert "error:" in p.stderr
    assert "Traceback" not in p.stderr


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


def test_eval_corrupt_checkpoint(overfit_run, tmp_path, capsys):
    ckpt, images, labels = overfit_run
    raw = bytearray(open(ckpt, "rb").read())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    assert cli.main(["eval", "--checkpoint", str(bad),
                     "--images", images, "--labels", labels]) == 3
    assert "magic" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

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


def test_gradcheck_unknown_layer(capsys):
    assert cli.main(["gradcheck", "--layer", "gelu"]) == 2
    assert "gelu" in capsys.readouterr().err
