"""Span tracing of spinconv from outside the package.

`Tracer.install` wraps every public function of the traced modules and the
forward/backward methods of every public layer class, then rebinds each
module-level name that refers to a wrapped function (so the names that
`layers` and `training` import from `tensor_core` are traced too).
`Tracer.restore` puts every original back. Nothing under `src/` is edited.

A span is [name, parent span index, start, end]. A span's self time is its
duration minus the durations of its direct children. Hooks read call shapes
and results to accumulate computed counts; the time a hook takes is recorded
as a `trace.hook` child span, so it is excluded from its parent's self time.
"""
from __future__ import annotations

import functools
import inspect
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULE_NAMES = ("tensor_core", "kernel_transforms", "layers", "training",
                "data", "evaluation", "checkpoint")
HOOK_SPAN = "trace.hook"


def load_modules():
    """The traced spinconv modules, keyed by their short name."""
    import importlib
    return {name: importlib.import_module(f"spinconv.{name}") for name in MODULE_NAMES}


def layer_classes(layers):
    """Public Layer subclasses defined in the layers module."""
    return [c for c in vars(layers).values()
            if isinstance(c, type) and issubclass(c, layers.Layer)
            and c is not layers.Layer and c.__module__ == layers.__name__
            and not c.__name__.startswith("_")]


def bindings(modules):
    """Every attribute the tracer may rebind, mapped to its current object.

    Comparing two snapshots by identity shows whether anything was rebound.
    """
    out = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj):
                out[(short, name)] = obj
    for cls in layer_classes(modules["layers"]):
        for meth in ("forward", "backward"):
            out[(cls.__name__, meth)] = vars(cls).get(meth)
    return out


def _public_functions(modules):
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                yield f"{short}.{name}", obj


class Tracer:
    """Records spans and computed counts while installed."""

    def __init__(self, modules, input_shape):
        self.modules = modules
        self.input_shape = tuple(input_shape)
        self.phase = "setup"
        self._patches = []
        self._stack = []
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.win_hist = defaultdict(lambda: np.zeros(8, dtype=np.int64))

    # -- installation ------------------------------------------------------
    def install(self):
        hooks = self._hooks()
        wrappers = {fn: self._wrap(name, fn, hooks.get(name))
                    for name, fn in _public_functions(self.modules)}
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])
        layers = self.modules["layers"]
        oriented = (layers.RpcConvLayer, layers.FrpcConvLayer)
        for cls in layer_classes(layers):
            hook = self._oriented_hook if cls in oriented else self._layer_rows_hook
            self._patch(cls, "forward",
                        self._wrap(f"layers.{cls.kind}.fwd", cls.forward, hook))
            self._patch(cls, "backward",
                        self._wrap(f"layers.{cls.kind}.bwd", cls.backward, None))

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner).get(name), name in vars(owner)))
        setattr(owner, name, value)

    def restore(self):
        for owner, name, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches = []

    def _wrap(self, name, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            parent = stack[-1] if stack else -1
            span = [name, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2], span[3] = t0, perf_counter()
                stack.pop()
            if hook is not None:
                h0 = perf_counter()
                hook(args, out)
                spans.append([HOOK_SPAN, parent, h0, perf_counter()])
            return out

        return traced

    def active(self, name):
        return any(self.spans[i][0] == name for i in self._stack)

    # -- computed counts ---------------------------------------------------
    def _hooks(self):
        return {
            "tensor_core.conv2d_forward": self._conv_forward_hook,
            "tensor_core.conv2d_backward": self._conv_backward_hook,
            "tensor_core.fc_forward": self._fc_forward_hook,
            "tensor_core.fc_backward": self._fc_backward_hook,
            "training.forward_training": self._forward_training_hook,
            "checkpoint.save_checkpoint": self._save_checkpoint_hook,
        }

    @staticmethod
    def _conv_sizes(out_shape, weights_shape):
        n, o, h, w = out_shape
        m = n * h * w                       # GEMM rows: output positions
        k = int(np.prod(weights_shape[1:]))  # GEMM depth: C*k*k
        return m, k, o

    def _conv_forward_hook(self, args, out):
        m, k, o = self._conv_sizes(out.shape, args[1].weights.shape)
        self.counts["conv_fwd_flop"] += 2 * m * k * o
        self.counts["im2col_bytes"] += 8 * m * k

    def _conv_backward_hook(self, args, out):
        grad_out, x, params = args[:3]
        m, k, o = self._conv_sizes(grad_out.shape, params.weights.shape)
        self.counts["conv_bwd_flop"] += 4 * m * k * o
        self.counts["im2col_bytes"] += 8 * m * k
        if tuple(x.shape[1:]) == self.input_shape:
            # input gradient: GEMM plus the col2im adds; the rest is the
            # weight GEMM and the bias sum
            self.counts["first_input_grad_flop"] += 2 * m * k * o + m * k
            self.counts["first_bwd_flop"] += 4 * m * k * o + m * k + m * o

    def _fc_forward_hook(self, args, out):
        x, w = args[:2]
        self.counts["fc_fwd_flop"] += 2 * x.shape[0] * w.shape[1] * w.shape[0]

    def _fc_backward_hook(self, args, out):
        grad_out, x, w = args[:3]
        n, d, o = x.shape[0], w.shape[1], w.shape[0]
        self.counts["fc_bwd_flop"] += 4 * n * d * o
        if x.ndim == 2 and d == int(np.prod(self.input_shape)):
            self.counts["first_input_grad_flop"] += 2 * n * d * o
            self.counts["first_bwd_flop"] += 4 * n * d * o + n * o

    def _layer_rows_hook(self, args, out):
        if self.active("training.forward_training"):
            self.counts["forward_layer_rows"] += args[1].shape[0]

    def _oriented_hook(self, args, out):
        self._layer_rows_hook(args, out)
        layer, cache = args[0], args[2]
        kind = layer.kind
        o = layer.weights.shape[0]
        self.counts[f"{kind}.out_channels"] += o
        self.counts[f"{kind}.expanded_channels"] += (
            o + 7 * len(layer.rotate_set) + len(layer.flip_set))
        for key, bins in (("rot_win", 8), ("flip_win", 2)):
            win = cache.get(key)
            if win is None:
                continue
            hist = np.bincount(win.ravel(), minlength=bins)
            self.win_hist[(kind, key, self.phase)][:bins] += hist
            self.counts[f"{kind}.wins"] += int(win.size)
            self.counts[f"{kind}.nonidentity_wins"] += int(win.size - hist[0])

    def _forward_training_hook(self, args, out):
        net, batch = args[0], args[1]
        kinds = [(d.get("kind"), d.get("mode")) for d in net.spec.layers]
        pre_split = kinds.index(("dropout", "split")) if ("dropout", "split") in kinds \
            else len(kinds)
        self.counts["steps"] += 1
        self.counts["branches"] += len(out[1])
        self.counts["pre_split_rows"] += batch.shape[0] * pre_split

    def _save_checkpoint_hook(self, args, out):
        self.counts["checkpoint_bytes"] += os.path.getsize(args[1])

    # -- aggregation -------------------------------------------------------
    def stats(self):
        """{span name: [calls, total seconds, self seconds]}."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _, t0, t1), c in zip(self.spans, child):
            s = out[name]
            s[0] += 1
            s[1] += t1 - t0
            s[2] += t1 - t0 - c
        return out

    def histograms(self):
        return {f"{kind}.{key}.{phase}": hist[:8 if key == "rot_win" else 2].tolist()
                for (kind, key, phase), hist in sorted(self.win_hist.items())}
