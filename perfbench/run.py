"""spinconv benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload train_rpc --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source checkout; it imports `spinconv` from
the checkout's `src/` and fails (exit 2, no result) when that is missing.
BLAS and OpenMP are pinned to one thread before numpy loads.

`--trace 0` prints the end-to-end metrics of an untraced run. `--trace 1`
makes the same untraced run and then two traced rounds of fixed work (one
set-up, one training cycle, one rotation sweep each) and prints the
per-layer metrics: busy and self times per round, computed counts (which
must repeat exactly between the rounds) and the tracing overhead.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it is a record with the environment, the raw samples, the
orientation-win histograms and any problems found. The same record, with
the spans of the first traced round, is written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PINNED_THREADS = 1
TRACED_ROUNDS = 2
WORKLOAD_NAMES = ("train_rpc", "train_split_mlp", "sweep_frpc")

END_TO_END = {
    "setup_s": "s",
    "train_img_s": "img/s",
    "train_loss": "nats",
    "sweep_img_s": "img/s",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics: timed ones are per traced round; computed ones are
# derived from call shapes and results and must repeat exactly.
TIMED = {
    "tensor_core.conv2d_forward.ms": "ms",
    "tensor_core.conv2d_forward.gflop_s": "GFLOP/s",
    "tensor_core.conv2d_backward.ms": "ms",
    "tensor_core.conv2d_backward.gflop_s": "GFLOP/s",
    "tensor_core.maxpool2d_forward.ms": "ms",
    "tensor_core.maxpool2d_backward.ms": "ms",
    "tensor_core.fc_forward.ms": "ms",
    "tensor_core.fc_backward.ms": "ms",
    "tensor_core.softmax_cross_entropy.ms": "ms",
    "layers.rpc_conv.fwd_self_ms": "ms",
    "layers.rpc_conv.bwd_self_ms": "ms",
    "layers.frpc_conv.fwd_self_ms": "ms",
    "layers.frpc_conv.bwd_self_ms": "ms",
    "layers.dropout.ms": "ms",
    "layers.relu.ms": "ms",
    "kernel_transforms.ms": "ms",
    "training.forward_training.self_ms": "ms",
    "training.backward_training.self_ms": "ms",
    "training.train_epoch.self_ms": "ms",
    "training.sgd_momentum_step.ms": "ms",
    "training.to_inference.ms": "ms",
    "data.make_rotated_shapes.ms": "ms",
    "data.preprocess.ms": "ms",
    "data.idx_io.ms": "ms",
    "data.rotate_batch.ms": "ms",
    "evaluation.predict_logits.ms": "ms",
    "evaluation.rotation_sweep.self_ms": "ms",
    "checkpoint.save_checkpoint.ms": "ms",
    "checkpoint.load_checkpoint.ms": "ms",
    "trace.train_img_s": "img/s",
    "trace.sweep_img_s": "img/s",
    "trace.train_overhead": "ratio",
    "trace.sweep_overhead": "ratio",
}
COMPUTED = {
    "tensor_core.conv2d_forward.calls": "count",
    "tensor_core.conv2d_backward.calls": "count",
    "tensor_core.im2col_mb": "MB",
    "tensor_core.fc.calls": "count",
    "tensor_core.gemm_gflop": "GFLOP",
    "layers.rpc_conv.useful_ratio": "ratio",
    "layers.frpc_conv.useful_ratio": "ratio",
    "layers.rpc_conv.nonidentity_win_share": "ratio",
    "layers.frpc_conv.nonidentity_win_share": "ratio",
    "layers.conv.first_input_grad_share": "ratio",
    "kernel_transforms.calls": "count",
    "training.branches": "count",
    "training.post_split_rows": "rows",
    "checkpoint.bytes": "bytes",
}
PER_LAYER = {**TIMED, **COMPUTED}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test size: a few images, one epoch per cycle")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=30,
                           env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "spinconv").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {"git_commit": _git_commit(), "source_sha256": _source_digest(),
            "numpy": np.__version__, "blas": blas, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "threads": PINNED_THREADS, "python": platform.python_version(),
            "machine": platform.machine(), "seed": seed}


def layer_metrics(stats, counts):
    """Per-layer metrics of one traced round (without the trace.* ones)."""
    def total(name):
        return stats[name][1] * 1e3 if name in stats else 0.0

    def self_ms(name):
        return stats[name][2] * 1e3 if name in stats else 0.0

    def calls(name):
        return stats[name][0] if name in stats else 0

    def share(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    def gflop_s(flop, name):
        return counts[flop] / stats[name][1] / 1e9 if name in stats else 0.0

    kt = [s for name, s in stats.items() if name.startswith("kernel_transforms.")]
    steps = counts["steps"]
    return {
        "tensor_core.conv2d_forward.ms": total("tensor_core.conv2d_forward"),
        "tensor_core.conv2d_forward.gflop_s": gflop_s("conv_fwd_flop",
                                                      "tensor_core.conv2d_forward"),
        "tensor_core.conv2d_backward.ms": total("tensor_core.conv2d_backward"),
        "tensor_core.conv2d_backward.gflop_s": gflop_s("conv_bwd_flop",
                                                       "tensor_core.conv2d_backward"),
        "tensor_core.maxpool2d_forward.ms": total("tensor_core.maxpool2d_forward"),
        "tensor_core.maxpool2d_backward.ms": total("tensor_core.maxpool2d_backward"),
        "tensor_core.fc_forward.ms": total("tensor_core.fc_forward"),
        "tensor_core.fc_backward.ms": total("tensor_core.fc_backward"),
        "tensor_core.softmax_cross_entropy.ms": total("tensor_core.softmax_cross_entropy"),
        "layers.rpc_conv.fwd_self_ms": self_ms("layers.rpc_conv.fwd"),
        "layers.rpc_conv.bwd_self_ms": self_ms("layers.rpc_conv.bwd"),
        "layers.frpc_conv.fwd_self_ms": self_ms("layers.frpc_conv.fwd"),
        "layers.frpc_conv.bwd_self_ms": self_ms("layers.frpc_conv.bwd"),
        "layers.dropout.ms": sum(total(f"layers.{n}") for n in (
            "sdropout_forward", "sdropout_backward", "dropout_forward_standard")),
        "layers.relu.ms": total("layers.relu.fwd") + total("layers.relu.bwd"),
        "kernel_transforms.ms": sum(s[2] for s in kt) * 1e3,
        "training.forward_training.self_ms": self_ms("training.forward_training"),
        "training.backward_training.self_ms": self_ms("training.backward_training"),
        "training.train_epoch.self_ms": self_ms("training.train_epoch"),
        "training.sgd_momentum_step.ms": total("training.sgd_momentum_step"),
        "training.to_inference.ms": total("training.to_inference"),
        "data.make_rotated_shapes.ms": total("data.make_rotated_shapes"),
        "data.preprocess.ms": total("data.preprocess"),
        "data.idx_io.ms": total("data.write_idx") + total("data.load_idx"),
        "data.rotate_batch.ms": total("data.rotate_batch"),
        "evaluation.predict_logits.ms": total("evaluation.predict_logits"),
        "evaluation.rotation_sweep.self_ms": self_ms("evaluation.rotation_sweep"),
        "checkpoint.save_checkpoint.ms": total("checkpoint.save_checkpoint"),
        "checkpoint.load_checkpoint.ms": total("checkpoint.load_checkpoint"),
        "tensor_core.conv2d_forward.calls": calls("tensor_core.conv2d_forward"),
        "tensor_core.conv2d_backward.calls": calls("tensor_core.conv2d_backward"),
        "tensor_core.im2col_mb": counts["im2col_bytes"] / 1e6,
        "tensor_core.fc.calls": calls("tensor_core.fc_forward"),
        "tensor_core.gemm_gflop": sum(counts[k] for k in (
            "conv_fwd_flop", "conv_bwd_flop", "fc_fwd_flop", "fc_bwd_flop")) / 1e9,
        "layers.rpc_conv.useful_ratio": share("rpc_conv.out_channels",
                                              "rpc_conv.expanded_channels"),
        "layers.frpc_conv.useful_ratio": share("frpc_conv.out_channels",
                                               "frpc_conv.expanded_channels"),
        "layers.rpc_conv.nonidentity_win_share": share("rpc_conv.nonidentity_wins",
                                                       "rpc_conv.wins"),
        "layers.frpc_conv.nonidentity_win_share": share("frpc_conv.nonidentity_wins",
                                                        "frpc_conv.wins"),
        "layers.conv.first_input_grad_share": share("first_input_grad_flop",
                                                    "first_bwd_flop"),
        "kernel_transforms.calls": sum(s[0] for s in kt),
        "training.branches": counts["branches"] / steps if steps else 0.0,
        "training.post_split_rows": ((counts["forward_layer_rows"] - counts["pre_split_rows"])
                                     / steps if steps else 0.0),
        "checkpoint.bytes": counts["checkpoint_bytes"],
    }


def traced_rounds(w, seed, eval_per_class, angles, tmp, modules, tally, untraced):
    """Per-layer metrics from TRACED_ROUNDS rounds of fixed traced work."""
    import tracer as tr
    import workloads as wl

    tracer = tr.Tracer(modules, wl.INPUT_SHAPE)
    rounds, first = [], {}
    tracer.install()
    try:
        for i in range(TRACED_ROUNDS):
            tracer.reset()
            tracer.phase = "setup"
            s = wl.setup(w, seed, eval_per_class, tmp, tally)
            tracer.phase = "train"
            epochs = wl.train_cycle(w, s, tally)
            tracer.phase = "sweep"
            sweep_rate, _ = wl.sweep(s, angles, tally)
            loss = epochs[-1][1] if len(epochs) == w.cycle_epochs else float("nan")
            if loss != untraced["train_loss"]:
                tally.problem(f"traced training loss {loss!r} differs from the "
                              f"untraced {untraced['train_loss']!r}")
            m = layer_metrics(tracer.stats(), tracer.counts)
            rates = [rate for rate, _ in epochs] or [float("nan")]
            m["trace.train_img_s"] = statistics.median(rates)
            m["trace.sweep_img_s"] = sweep_rate
            rounds.append(m)
            if i == 0:
                first = {"histograms": tracer.histograms(), "spans": tracer.spans,
                          "span_stats": dict(sorted(tracer.stats().items()))}
    finally:
        tracer.restore()
    metrics = {}
    for name in PER_LAYER:
        if name in COMPUTED:
            values = {r[name] for r in rounds}
            if len(values) != 1:
                tally.problem(f"computed count {name} differs between traced rounds: "
                              f"{sorted(values)}")
            metrics[name] = rounds[0][name]
        elif not name.endswith("_overhead"):
            metrics[name] = statistics.fmean(r[name] for r in rounds)
    for kind in ("train", "sweep"):
        metrics[f"trace.{kind}_overhead"] = (untraced[f"{kind}_img_s"]
                                             / metrics[f"trace.{kind}_img_s"] - 1.0)
    return metrics, first


def run(args):
    import numpy as np

    import tracer as tr
    import workloads as wl
    from spinconv import evaluation

    modules = tr.load_modules()
    originals = tr.bindings(modules)
    w = wl.WORKLOADS[args.workload]
    eval_per_class, n_angles, repeats, check_images = (
        wl.EVAL_PER_CLASS, wl.SWEEP_ANGLES, wl.SETUP_REPEATS, wl.CHECK_IMAGES)
    if args.tiny:
        w, eval_per_class, n_angles, repeats, check_images = wl.tiny(w), 8, 2, 2, 1
    angles = evaluation.sweep_angles(n_angles)
    tally = wl.Tally()

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        m = wl.measure(w, args.seed, eval_per_class, angles, tmp, args.seconds,
                       repeats, tally)
        wl.oracle_checks(m.setup, m.trained_net, angles, args.seed, check_images, tally)
        if tr.bindings(modules) != originals:
            tally.problem("the untraced run found a spinconv function rebound")
        samples = {"setup_s": m.setup_s, "train_img_s": m.train_img_s,
                   "sweep_img_s": m.sweep_img_s}
        metrics = {name: statistics.median(v or [float("nan")])
                   for name, v in samples.items()}
        metrics.update(train_loss=m.train_loss, peak_rss_mb=m.peak_rss_mb)
        units, traced = END_TO_END, {}
        if args.trace:
            untraced = metrics
            metrics, traced = traced_rounds(w, args.seed, eval_per_class, angles, tmp,
                                            modules, tally, untraced)
            traced["untraced"] = untraced
            units = PER_LAYER
            if tr.bindings(modules) != originals:
                tally.problem("the tracer left a spinconv function rebound")

    spans = traced.pop("spans", None)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": environment(args.seed),
              "samples": samples, "computed": sorted(COMPUTED) if args.trace else [],
              "problems": tally.problems, **traced}
    print(json.dumps(record, default=float))
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({**record, "spans": spans}, default=float) + "\n")

    finite = all(np.isfinite(v) for v in metrics.values())
    result = {
        "correct": not tally.problems and tally.failed == 0 and finite,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(np.nan_to_num(metrics[name])), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spinconv" / "__init__.py").is_file():
        print(f"error: no spinconv sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_ENV_VARS:
        os.environ[var] = str(PINNED_THREADS)
    sys.path.insert(0, str(SRC))
    import spinconv
    if Path(spinconv.__file__).resolve().parent != SRC / "spinconv":
        print(f"error: imported spinconv from {spinconv.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
