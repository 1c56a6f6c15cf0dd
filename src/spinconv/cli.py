"""Command-line entry points: train, eval, sweep, gradcheck.

Only the standard library and the config/error modules load at import
time; numerical modules are imported inside the command handlers, after
--threads has pinned the BLAS/OpenMP thread counts in the environment.
With --threads 1 two runs of the same command and seed produce
byte-identical checkpoints and CSVs.
"""
from __future__ import annotations

import argparse
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


def _load_dataset(dcfg: dict):
    from . import data
    if dcfg["kind"] == "idx":
        return data.load_idx(dcfg["images"], dcfg["labels"])
    return data.make_rotated_shapes(dcfg["n_per_class"], dcfg["seed"])


def _fit_images(images, target):
    from .data import center_crop
    if images.shape[-1] != target or images.shape[-2] != target:
        return center_crop(images, target)
    return images


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if cfg.dataset is None:
        raise ConfigError("config.dataset is required for training")
    if cfg.output_dir is None:
        raise ConfigError("config.output_dir is required for training")
    with open(args.config, "r", encoding="utf-8") as f:
        cfg_doc = json.load(f)

    from . import checkpoint, data, training
    from .layers import NetworkSpec

    train_ds = data.preprocess(_load_dataset(cfg.dataset))
    val_images = val_labels = None
    if cfg.val_dataset is not None:
        val_ds = data.preprocess(_load_dataset(cfg.val_dataset), train_ds.mean_image)
        val_images, val_labels = val_ds.images, val_ds.labels

    spec = NetworkSpec(input_shape=cfg.input_shape, layers=cfg.layers)
    net = training.init_weights(spec, cfg.seed)
    state = training.OptimizerState(learning_rate=cfg.learning_rate,
                                    momentum=cfg.momentum,
                                    batch_size=cfg.batch_size)
    schedule = training.LrSchedule(
        kind=cfg.schedule.get("kind", "plateau"),
        factor=float(cfg.schedule.get("factor", 0.1)),
        patience=int(cfg.schedule.get("patience", 2)))

    target = cfg.input_shape[1]
    images = _fit_images(train_ds.images, target)
    if val_images is not None:
        val_images = _fit_images(val_images, target)
    rows = training.fit(net, images, train_ds.labels, state, cfg.epochs,
                        schedule, val_images, val_labels)

    os.makedirs(cfg.output_dir, exist_ok=True)
    config_echo = json.dumps(cfg_doc, sort_keys=True, separators=(",", ":"))
    metrics_path = os.path.join(cfg.output_dir, "metrics.csv")
    with open(metrics_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# seed={cfg.seed} config={config_echo}\n")
        f.write("epoch,split,loss,top1\n")
        for r in rows:
            f.write(f"{r['epoch']},{r['split']},{r['loss']:.6f},{r['top1']:.6f}\n")

    ckpt_path = os.path.join(cfg.output_dir, "checkpoint.bin")
    checkpoint.save_checkpoint(net, ckpt_path, mean_image=train_ds.mean_image,
                               extra={"config": cfg_doc, "seed": cfg.seed})

    run_path = os.path.join(cfg.output_dir, "run.json")
    with open(run_path, "w", encoding="utf-8", newline="\n") as f:
        json.dump({"format_version": checkpoint.FORMAT_VERSION, "seed": cfg.seed,
                   "config": cfg_doc,
                   "outputs": {"checkpoint": "checkpoint.bin",
                               "metrics": "metrics.csv"}},
                  f, sort_keys=True, indent=2)
        f.write("\n")

    final = rows[-1]
    print(f"trained {cfg.epochs} epochs; final {final['split']} "
          f"loss {final['loss']:.6f}, top1 {final['top1']:.6f}")
    print(f"checkpoint: {ckpt_path}")
    print(f"metrics: {metrics_path}")
    return 0


def _load_inference_net(checkpoint_path):
    from . import checkpoint as ckpt_mod
    from .training import to_inference
    net, meta = ckpt_mod.load_checkpoint(checkpoint_path)
    if meta["mean_image"] is None:
        raise ConfigError(f"checkpoint {checkpoint_path} carries no training "
                          "mean image; cannot preprocess evaluation data")
    return to_inference(net), meta


def cmd_eval(args) -> int:
    import numpy as np

    from . import data, evaluation

    net, meta = _load_inference_net(args.checkpoint)
    ds = data.preprocess(data.load_idx(args.images, args.labels),
                         meta["mean_image"])
    n_classes = net.spec.layers[-1].get("out_features") or int(ds.labels.max()) + 1
    k5 = min(5, n_classes)
    if args.ten_view:
        probs = np.stack([evaluation.ten_view_predict(net, img)
                          for img in ds.images])
        top1 = evaluation.top_k_accuracy(probs, ds.labels, 1)
        top5 = evaluation.top_k_accuracy(probs, ds.labels, k5)
    else:
        logits = evaluation.predict_logits(net, ds.images, args.batch_size)
        top1 = evaluation.top_k_accuracy(logits, ds.labels, 1)
        top5 = evaluation.top_k_accuracy(logits, ds.labels, k5)
    print("top1,top5")
    print(f"{top1:.6f},{top5:.6f}")
    return 0


def cmd_sweep(args) -> int:
    from . import data, evaluation

    net, meta = _load_inference_net(args.checkpoint)
    ds = data.preprocess(data.load_idx(args.images, args.labels),
                         meta["mean_image"])
    angles = evaluation.sweep_angles(args.angles)
    report = evaluation.rotation_sweep(net, ds, angles,
                                       batch_size=args.batch_size,
                                       model_id=os.path.basename(args.checkpoint),
                                       dataset_id=os.path.basename(args.images))
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        f.write(report.to_csv())
    meta_path = args.out + ".meta.json"
    with open(meta_path, "w", encoding="utf-8", newline="\n") as f:
        json.dump({"checkpoint": os.path.basename(args.checkpoint),
                   "dataset": os.path.basename(args.images),
                   "n_angles": args.angles,
                   "seed": meta["header"].get("seed"),
                   "config": meta["header"].get("extra", {}).get("config")},
                  f, sort_keys=True, indent=2)
        f.write("\n")
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

    e = sub.add_parser("eval", help="top-1/top-5 accuracy of a checkpoint")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--images", required=True, help="IDX images file")
    e.add_argument("--labels", required=True, help="IDX labels file")
    e.add_argument("--ten-view", action="store_true",
                   help="average predictions over 10 crop/mirror views")
    e.add_argument("--batch-size", type=int, default=256)
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sweep", help="accuracy across a grid of rotation angles")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--images", required=True, help="IDX images file")
    s.add_argument("--labels", required=True, help="IDX labels file")
    s.add_argument("--angles", type=int, default=64,
                   help="number of evenly spaced angles in [0, 360)")
    s.add_argument("--out", default="sweep.csv", help="output CSV path")
    s.add_argument("--batch-size", type=int, default=256)
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
