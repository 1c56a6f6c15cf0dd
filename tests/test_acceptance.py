"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. Every test asserts both the quality bar and its runtime budget.
The two training-based analogs (convergence, rotation robustness) pin their
seeds and data, so their verdicts are reproducible on a single thread.
"""

import json
import time

import numpy as np
import pytest

from spinconv import cli, data, evaluation, oracle
from spinconv.kernel_transforms import bank_index
from spinconv.layers import (ConvLayer, DropoutLayer, FrpcConvLayer,
                             NetworkSpec, RpcConvLayer, sdropout_forward)
from spinconv.training import (LrSchedule, OptimizerState, backward_training,
                               fit, forward_training, init_weights,
                               sgd_momentum_step, to_inference, train_epoch)


def _verdict(num, name, ok, detail, elapsed, budget):
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"criterion {num:02d} {name:<24s} {status}  ({detail}; "
          f"{elapsed:.2f}s of {budget:g}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: {elapsed:.2f}s over budget"


def _rescale(net, seed, std=0.1):
    # the pinned defaults underpower desk-scale conv nets, so the training
    # analogs redraw weights at a livelier scale, identically in both arms
    rng = np.random.default_rng(seed)
    for layer in net.layers:
        p = layer.params()
        if "weights" in p:
            p["weights"][...] = rng.normal(0.0, std, p["weights"].shape)
            p["bias"][...] = 0.0


def test_c01_split_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    layer = DropoutLayer(p=0.5, mode="split", rng=np.random.default_rng(12))
    checked = 0
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(1, 65))
        y = rng.standard_normal((n, d)).astype(
            np.float32 if rng.random() < 0.5 else np.float64)
        out = sdropout_forward(y, layer.draw_mask(d))
        y1, y2 = out[:n], out[n:]
        ok = ok and np.array_equal(y1 + y2, y)
        checked += 1
    _verdict(1, "split-identity", ok and checked == 1000,
             f"{checked} pairs bitwise", time.perf_counter() - t0, 1.0)


def test_c02_loss_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(21)
    worst = 0.0
    for d in (2, 4, 8):
        spec = NetworkSpec(input_shape=(1, 1, 6), layers=[
            {"kind": "flatten"},
            {"kind": "fc", "out_features": d},
            {"kind": "dropout", "p": 0.5, "mode": "split"},
            {"kind": "fc", "out_features": 3}])
        net = init_weights(spec, seed=d, dtype=np.float64)
        _rescale(net, seed=d + 50, std=0.5)
        batch = rng.standard_normal((5, 1, 1, 6))
        labels = rng.integers(0, 3, 5)
        l_drop, l_split = oracle.enumerate_mask_losses(net, batch, labels)
        worst = max(worst, abs(l_drop - l_split))
    _verdict(2, "loss-equivalence", worst <= 1e-12,
             f"d in (2,4,8), max |L_drop - L_split| = {worst:.2e}",
             time.perf_counter() - t0, 10.0)


def test_c03_gradient_suite():
    t0 = time.perf_counter()
    rows = oracle.gradient_suite(seed=3)
    ok = len(rows) == 8
    worst = max(r["max_rel"] for r in rows)
    least = min(r["coords"] for r in rows)
    ok = ok and worst <= 1e-4 and least >= 100
    _verdict(3, "gradient-suite", ok,
             f"8 layer kinds, max rel err {worst:.2e}, >= {least} coords each",
             time.perf_counter() - t0, 120.0)


def test_c04_group_laws():
    # the banks the layers gather through, at every kernel size they test
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    ok = True

    def variant(kern, mode, s):
        k = kern.shape[-1]
        return kern.ravel()[bank_index(mode, k)[s]].reshape(k, k)

    for k in (3, 5, 7):
        kernel = rng.standard_normal((k, k)).astype(np.float32)
        ring = kernel
        for _ in range(8):
            ring = variant(ring, "rotate8", 1)
        ok = ok and np.array_equal(ring, kernel)

        quarter = kernel
        for _ in range(4):
            quarter = variant(quarter, "rotate8", 2)
        ok = ok and np.array_equal(quarter, kernel)

        two_steps = variant(variant(kernel, "rotate8", 1), "rotate8", 1)
        ok = ok and np.array_equal(two_steps, np.rot90(kernel, -1, axes=(-2, -1)))

        for mode, axis in (("flip_lr", -1), ("flip_ud", -2)):
            flipped = variant(kernel, mode, 1)
            ok = ok and np.array_equal(flipped, np.flip(kernel, axis))
            ok = ok and np.array_equal(variant(flipped, mode, 1), kernel)

    _verdict(4, "group-laws", ok,
             "k = 3, 5, 7: ring order 8, quarter order 4, ring^2 == quarter, "
             "flips involute",
             time.perf_counter() - t0, 1.0)


def test_c05_rotation_equivariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(51)
    layer = RpcConvLayer(1, 1, 3, stride=1, pad=1, rotate_fraction=1.0)
    layer.weights[...] = rng.standard_normal(layer.weights.shape)
    layer.bias[...] = rng.standard_normal(1)
    worst = 0.0
    for _ in range(100):
        size = int(rng.integers(5, 13))
        x = rng.standard_normal((1, 1, size, size)).astype(np.float32)
        y = layer.forward(x, {})
        y_rot = layer.forward(np.rot90(x, 1, axes=(-2, -1)).copy(), {})
        ref = np.rot90(y, 1, axes=(-2, -1))
        scale = max(float(np.max(np.abs(ref))), 1e-8)
        worst = max(worst, float(np.max(np.abs(y_rot - ref))) / scale)
    _verdict(5, "rotation-equivariance", worst <= 1e-5,
             f"100 inputs, max rel err {worst:.2e}",
             time.perf_counter() - t0, 10.0)


def test_c06_parameter_parity():
    t0 = time.perf_counter()
    ok = True
    for in_ch, out_ch, k in [(1, 8, 3), (3, 16, 3), (4, 32, 5), (2, 10, 7)]:
        plain, rpc, frpc = (
            sum(arr.size for arr in layer.params().values())
            for layer in (ConvLayer(in_ch, out_ch, k),
                          RpcConvLayer(in_ch, out_ch, k, rotate_fraction=0.5),
                          FrpcConvLayer(in_ch, out_ch, k, rotate_fraction=0.25,
                                        flip_fraction=0.25)))
        ok = ok and plain == rpc == frpc
    _verdict(6, "parameter-parity", ok,
             "rpc and frpc match plain conv exactly over 4 configs",
             time.perf_counter() - t0, 1.0)


def test_c07_full_update():
    t0 = time.perf_counter()
    rng = np.random.default_rng(71)
    batch = rng.standard_normal((6, 1, 1, 8))
    labels = rng.integers(0, 4, 6)

    def one_step(mode, pinned=None):
        spec = NetworkSpec(input_shape=(1, 1, 8), layers=[
            {"kind": "flatten"},
            {"kind": "fc", "out_features": 16},
            {"kind": "dropout", "p": 0.5, "mode": mode},
            {"kind": "fc", "out_features": 4}])
        net = init_weights(spec, seed=7, dtype=np.float64)
        _rescale(net, seed=72, std=0.3)
        before = {(i, n): a.copy() for i, n, a in net.named_params()}
        _, branches = forward_training(net, batch, labels, pinned_masks=pinned)
        grads = backward_training(branches)
        sgd_momentum_step(net, OptimizerState(learning_rate=0.1, momentum=0.0), dict(grads))
        after = {(i, n): a.copy() for i, n, a in net.named_params()}
        return before, after, grads

    before, after, _ = one_step("split")
    fc2_delta = after[(3, "weights")] - before[(3, "weights")]
    fc1_delta = after[(1, "weights")] - before[(1, "weights")]
    ok = bool(np.all(np.any(fc2_delta != 0.0, axis=0)))       # every column
    ok = ok and bool(np.all(np.any(fc1_delta != 0.0, axis=1)))  # every unit

    bits = (np.arange(16) % 2).astype(np.float64)  # drop every odd unit
    _, _, grads = one_step("standard", pinned={2: bits})
    dropped = np.flatnonzero(bits == 0.0)
    kept = np.flatnonzero(bits == 1.0)
    g2 = grads[(3, "weights")]
    ok = ok and bool(np.all(g2[:, dropped] == 0.0))
    ok = ok and bool(np.all(np.any(g2[:, kept] != 0.0, axis=0)))

    _verdict(7, "full-update", ok,
             "split updates every column; standard zeroes dropped columns",
             time.perf_counter() - t0, 5.0)


# ---------------------------------------------------------------------------
# Training analogs (pinned seeds, single thread)
# ---------------------------------------------------------------------------

def _idx_round_trip(ds, tmp_path, stem):
    images = str(tmp_path / f"{stem}-images.idx")
    labels = str(tmp_path / f"{stem}-labels.idx")
    data.write_idx(ds, images, labels)
    return data.load_idx(images, labels)


@pytest.mark.slow
def test_c08_convergence_analog(tmp_path):
    t0 = time.perf_counter()
    train = data.preprocess(
        _idx_round_trip(data.make_rotated_shapes(2000, seed=100), tmp_path,
                        "train"))
    test = data.preprocess(
        _idx_round_trip(data.make_rotated_shapes(250, seed=900), tmp_path,
                        "test"),
        mean_image=train.mean_image)

    def run(mode, seed):
        spec = NetworkSpec(input_shape=(1, 28, 28), layers=[
            {"kind": "conv", "out_channels": 8, "kernel": 5, "stride": 1,
             "pad": 2},
            {"kind": "relu"},
            {"kind": "maxpool", "window": 2, "stride": 2},
            {"kind": "conv", "out_channels": 16, "kernel": 3, "stride": 1,
             "pad": 1},
            {"kind": "relu"},
            {"kind": "maxpool", "window": 2, "stride": 2},
            {"kind": "flatten"},
            {"kind": "fc", "out_features": 64},
            {"kind": "relu"},
            {"kind": "dropout", "p": 0.5, "mode": mode},
            {"kind": "fc", "out_features": 4}])
        net = init_weights(spec, seed=seed)
        _rescale(net, seed + 77)
        state = OptimizerState(learning_rate=0.05, momentum=0.9,
                               batch_size=128)
        losses = [train_epoch(net, train.images, train.labels, state)["loss"]
                  for _ in range(5)]
        reached = next((e + 1 for e, l in enumerate(losses) if l <= 0.5), 6)
        inf = to_inference(net)
        logits = evaluation.predict_logits(inf, test.images)
        return reached, evaluation.top_k_accuracy(logits, test.labels, 1)

    split_reach, split_acc, std_reach, std_acc = [], [], [], []
    for seed in (0, 1, 2):
        r, a = run("split", seed)
        split_reach.append(r)
        split_acc.append(a)
        r, a = run("standard", seed)
        std_reach.append(r)
        std_acc.append(a)

    speed_ok = np.mean(split_reach) <= np.mean(std_reach)
    acc_diff = np.mean(split_acc) - np.mean(std_acc)
    _verdict(8, "convergence-analog", speed_ok and acc_diff >= -0.005,
             f"epochs to loss 0.5: split {np.mean(split_reach):.2f} vs "
             f"standard {np.mean(std_reach):.2f}; top-1 diff "
             f"{100 * acc_diff:+.2f}pts", time.perf_counter() - t0, 1800.0)


@pytest.mark.slow
def test_c09_rotation_robustness():
    # Raw-intensity protocol: no mean subtraction. The mean of this class
    # set is itself orientation-biased, so subtracting an upright mean from
    # rotated inputs would inject exactly the kind of asymmetric
    # perturbation whose absence this criterion measures.
    t0 = time.perf_counter()
    train = data.make_rotated_shapes(400, seed=100)
    test = data.make_rotated_shapes(150, seed=900)
    angles = evaluation.sweep_angles(64)

    def run(kind, seed):
        head = {"kind": kind, "out_channels": 32, "kernel": 3, "stride": 1,
                "pad": 1}
        if kind == "rpc_conv":
            head["rotate_fraction"] = 0.5
        spec = NetworkSpec(input_shape=(1, 28, 28), layers=[
            {"kind": "maxpool", "window": 4, "stride": 4},
            head,
            {"kind": "relu"},
            {"kind": "maxpool", "window": 7, "stride": 7},
            {"kind": "flatten"},
            {"kind": "fc", "out_features": 4}])
        net = init_weights(spec, seed=seed)
        _rescale(net, seed + 33)
        state = OptimizerState(learning_rate=0.1, momentum=0.9, batch_size=64)
        fit(net, train.images, train.labels, state, epochs=60,
            schedule=LrSchedule(kind="plateau", factor=0.1, patience=2))
        rep = evaluation.rotation_sweep(to_inference(net), test, angles)
        return (float(np.mean([t for _, t, _ in rep.rows])),
                float(np.mean([t for a, t, _ in rep.rows if 135.0 <= a <= 225.0])))

    base_all, base_band, rpc_all, rpc_band = [], [], [], []
    for seed in (0, 1, 2):
        o, b = run("conv", seed)
        base_all.append(o)
        base_band.append(b)
        o, b = run("rpc_conv", seed)
        rpc_all.append(o)
        rpc_band.append(b)

    overall = np.mean(rpc_all) - np.mean(base_all)
    band = np.mean(rpc_band) - np.mean(base_band)
    _verdict(9, "rotation-robustness", overall >= 0.02 and band >= 0.05,
             f"margins: overall {100 * overall:+.2f}pts, "
             f"135-225 band {100 * band:+.2f}pts",
             time.perf_counter() - t0, 1200.0)


def test_c10_conv_oracle():
    t0 = time.perf_counter()
    from spinconv.tensor_core import ConvParams, conv2d_forward
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        c_in = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 6))
        k = int(rng.choice([1, 3, 5]))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 3))
        size = int(rng.integers(k + 1, k + 8))
        x = rng.standard_normal((n, c_in, size, size))
        w = rng.standard_normal((c_out, c_in, k, k))
        b = rng.standard_normal(c_out)
        params = ConvParams(w, b, stride, pad)
        fast = conv2d_forward(x, params)
        ref = oracle.naive_conv(x, params)
        scale = max(float(np.max(np.abs(ref))), 1e-8)
        worst = max(worst, float(np.max(np.abs(fast - ref))) / scale)
    _verdict(10, "conv-oracle", worst <= 1e-6,
             f"50 configurations, max rel err {worst:.2e}",
             time.perf_counter() - t0, 30.0)


def test_c11_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = {
        "seed": 5,
        "epochs": 2,
        "batch_size": 8,
        "learning_rate": 0.2,
        "momentum": 0.9,
        "schedule": {"kind": "fixed"},
        "network": {
            "input_shape": [1, 28, 28],
            "layers": [{"kind": "flatten"},
                       {"kind": "fc", "out_features": 16},
                       {"kind": "relu"},
                       {"kind": "fc", "out_features": 4}]},
        "dataset": {"kind": "synthetic_shapes", "n_per_class": 2, "seed": 1},
        "output_dir": str(tmp_path / "run"),
    }
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    eval_ds = data.make_rotated_shapes(2, seed=9)
    images = str(tmp_path / "imgs.idx")
    labels = str(tmp_path / "lbls.idx")
    data.write_idx(eval_ds, images, labels)
    sweep_out = str(tmp_path / "sweep.csv")

    def run_once():
        assert cli.main(["--threads", "1", "train", "--config",
                         str(cfg_path)]) == 0
        assert cli.main(["--threads", "1", "sweep", "--checkpoint",
                         str(tmp_path / "run" / "checkpoint.bin"),
                         "--images", images, "--labels", labels,
                         "--angles", "8", "--out", sweep_out]) == 0
        return {name: (tmp_path / "run" / name).read_bytes()
                for name in ("checkpoint.bin", "metrics.csv")} | {
                    "sweep.csv": open(sweep_out, "rb").read()}

    first = run_once()
    second = run_once()
    ok = all(first[k] == second[k] for k in first)
    _verdict(11, "determinism", ok,
             "checkpoint, metrics csv and sweep csv byte-identical twice",
             time.perf_counter() - t0, 300.0)
