"""Command-line entry points: train, eval, sweep, gradcheck.

Only the standard library and the config/error modules load at import
time; numerical modules are imported inside the command handlers, after
--threads has pinned the BLAS/OpenMP thread counts in the environment.
With --threads 1 two runs of the same command and seed produce
byte-identical checkpoints and CSVs.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from .config import load_config
from .errors import ConfigError, DimensionError, FormatError, InputError, NumericalAbort

GRAD_TOLERANCE = 1e-4

THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _pin_threads(n: int):
    for var in THREAD_ENV_VARS:
        os.environ[var] = str(n)


def _write_json(path, value):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(value, f, sort_keys=True, indent=2)
        f.write("\n")


def _dataset(dcfg: dict, spec, name, mean_image=None):
    """The dataset `dcfg` describes (IDX or synthetic), preprocessed with its
    own mean or the one given. Exit 2 unless the images have the channels
    of the network `spec`'s input, at least its height and width (the crop
    rule of training and inference) and the given mean's shape, and every
    label indexes one of its outputs, the first axis of its output shape."""
    from . import data
    from .config import network_shapes
    if dcfg["kind"] == "idx":
        ds = data.load_idx(dcfg["images"], dcfg["labels"])
    else:
        ds = data.make_rotated_shapes(dcfg["n_per_class"], dcfg["seed"])
    (c, h, w), (channels, rows, cols) = spec.input_shape, ds.images.shape[1:]
    if channels != c:
        raise ConfigError(f"{name}: images have {channels} channels, the network "
                          f"input has {c}")
    if rows < h or cols < w:
        raise ConfigError(f"{name}: images of {rows}x{cols} are smaller than the "
                          f"network input of {h}x{w}")
    if mean_image is not None and mean_image.shape != ds.images.shape[1:]:
        raise ConfigError(f"{name}: images of shape {ds.images.shape[1:]} do not "
                          f"match the training mean image of shape {mean_image.shape}")
    ds = data.preprocess(ds, mean_image)
    labels = ds.labels
    width = network_shapes(spec.input_shape, spec.layers, "network")[-1][2][0]
    if labels.size and (labels.min() < 0 or labels.max() >= width):
        raise ConfigError(f"{name}: labels must lie in [0, {width}) for a network "
                          f"with {width} outputs, got [{labels.min()}, {labels.max()}]")
    return ds


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if cfg.dataset is None:
        raise ConfigError("config.dataset is required for training")
    if cfg.output_dir is None:
        raise ConfigError("config.output_dir is required for training")

    import numpy as np

    from . import checkpoint, training
    from .layers import NetworkSpec

    spec = NetworkSpec(input_shape=cfg.input_shape, layers=cfg.layers)
    train_ds = _dataset(cfg.dataset, spec, "config.dataset")
    val_images = val_labels = None
    if cfg.val_dataset is not None:
        val_ds = _dataset(cfg.val_dataset, spec, "config.val_dataset", train_ds.mean_image)
        val_images, val_labels = val_ds.images, val_ds.labels

    net = training.init_weights(spec, cfg.seed)
    state = training.OptimizerState(learning_rate=cfg.learning_rate,
                                    momentum=cfg.momentum,
                                    batch_size=cfg.batch_size)

    os.makedirs(cfg.output_dir, exist_ok=True)
    config_echo = json.dumps(cfg.doc, sort_keys=True, separators=(",", ":"))
    metrics_path = os.path.join(cfg.output_dir, "metrics.csv")
    ckpt_path = os.path.join(cfg.output_dir, "checkpoint.bin")
    run_path = os.path.join(cfg.output_dir, "run.json")
    # rows stream out as epochs finish, so an aborted run keeps the ones it
    # has; an earlier run's checkpoint and run.json go first, so no file of
    # it is left beside them
    for stale in (ckpt_path, run_path):
        if os.path.lexists(stale):
            os.remove(stale)
    with open(metrics_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# seed={cfg.seed} config={config_echo}\n")
        f.write("epoch,split,loss,top1\n")
        f.flush()

        def write_row(r):
            f.write(f"{r['epoch']},{r['split']},{r['loss']:.6f},{r['top1']:.6f}\n")
            f.flush()

        # a diverging run ends on the NumericalAbort of the loss check, not
        # on numpy's overflow warnings from the steps before it
        with np.errstate(over="ignore", invalid="ignore"):
            rows = training.fit(net, train_ds.images, train_ds.labels, state,
                                cfg.epochs, cfg.schedule, val_images, val_labels,
                                on_row=write_row)

    checkpoint.save_checkpoint(net, ckpt_path, mean_image=train_ds.mean_image,
                               extra={"config": cfg.doc, "seed": cfg.seed})

    _write_json(run_path, {"format_version": checkpoint.FORMAT_VERSION, "seed": cfg.seed,
                           "config": cfg.doc,
                           "outputs": {"checkpoint": "checkpoint.bin",
                                       "metrics": "metrics.csv"}})

    final = rows[-1]
    print(f"trained {cfg.epochs} epochs; final {final['split']} "
          f"loss {final['loss']:.6f}, top1 {final['top1']:.6f}")
    print(f"checkpoint: {ckpt_path}")
    print(f"metrics: {metrics_path}")
    return 0


def _evaluation_inputs(args):
    """The checkpoint's inference network, its metadata, and the IDX pair
    preprocessed with the checkpoint's training mean image."""
    from .checkpoint import load_checkpoint
    from .training import to_inference
    net, meta = load_checkpoint(args.checkpoint)
    if meta["mean_image"] is None:
        raise ConfigError(f"checkpoint {args.checkpoint} carries no training "
                          "mean image; cannot preprocess evaluation data")
    net = to_inference(net)
    ds = _dataset({"kind": "idx", "images": args.images, "labels": args.labels},
                  net.spec, f"{args.images}, {args.labels}", meta["mean_image"])
    return net, meta, ds


def cmd_eval(args) -> int:
    from . import evaluation

    net, _, ds = _evaluation_inputs(args)
    predict = (evaluation.ten_view_probabilities if args.ten_view
               else evaluation.predict_logits)
    scores = predict(net, ds.images, args.batch_size)
    top1 = evaluation.top_k_accuracy(scores, ds.labels, 1)
    top5 = evaluation.top_k_accuracy(scores, ds.labels, min(5, scores.shape[1]))
    print("top1,top5")
    print(f"{top1:.6f},{top5:.6f}")
    return 0


def cmd_sweep(args) -> int:
    from . import evaluation

    angles = evaluation.sweep_angles(args.angles)
    # --out is opened only after the sweep, so a directory in its place or a
    # missing parent fails here, as opening it would, before any file is read
    if os.path.isdir(args.out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    net, meta, ds = _evaluation_inputs(args)
    report = evaluation.rotation_sweep(net, ds, angles, batch_size=args.batch_size)
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        f.write(report.to_csv())
    _write_json(args.out + ".meta.json",
                {"checkpoint": os.path.basename(args.checkpoint),
                 "dataset": os.path.basename(args.images),
                 "n_angles": args.angles,
                 "seed": meta["header"].get("seed"),
                 "config": meta["header"].get("extra", {}).get("config")})
    print(f"sweep: {args.out} ({args.angles} angles)")
    return 0


def cmd_gradcheck(args) -> int:
    from . import oracle

    kinds = [args.layer] if args.layer else None
    results = oracle.gradient_suite(seed=args.seed, kinds=kinds)
    print(f"{'layer':<10} {'max_rel':>12} {'coords':>7} status")
    failures = []
    for r in results:
        ok = r["max_rel"] <= GRAD_TOLERANCE
        print(f"{r['layer']:<10} {r['max_rel']:>12.3e} {r['coords']:>7} "
              f"{'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append(r["layer"])
    if failures:
        raise NumericalAbort(
            f"gradient check exceeded {GRAD_TOLERANCE:g} for: {', '.join(failures)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="spinconv",
        description="Train and evaluate small CNNs with split dropout and "
                    "orientation-pooling convolution.")
    p.add_argument("--threads", type=int, default=None, metavar="N",
                   help="pin BLAS/OpenMP threads; 1 gives bit-deterministic runs")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a JSON config")
    t.add_argument("--config", required=True, help="path to the run config")
    t.set_defaults(func=cmd_train)

    # the checkpoint and IDX pair that eval and sweep read, and their batch
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--checkpoint", required=True)
    io.add_argument("--images", required=True, help="IDX images file")
    io.add_argument("--labels", required=True, help="IDX labels file")
    io.add_argument("--batch-size", type=int, default=256)

    e = sub.add_parser("eval", parents=[io], help="top-1/top-5 accuracy of a checkpoint")
    e.add_argument("--ten-view", action="store_true",
                   help="average predictions over 10 crop/mirror views")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sweep", parents=[io], help="accuracy across a grid of rotation angles")
    s.add_argument("--angles", type=int, default=64,
                   help="number of evenly spaced angles in [0, 360)")
    s.add_argument("--out", default="sweep.csv", help="output CSV path")
    s.set_defaults(func=cmd_sweep)

    g = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    g.add_argument("--layer", default=None,
                   help="single layer kind to check (default: all)")
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be at least 1", file=sys.stderr)
            return 2
        _pin_threads(args.threads)
    try:
        return args.func(args)
    except (ConfigError, DimensionError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericalAbort as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
