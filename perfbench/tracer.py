"""Outside-in span tracer for quadseg.

The tracer wraps public functions of the quadseg modules from the outside:
nothing under ``src/`` changes.  A function is replaced in every quadseg
module that binds it, so a name that ``train`` or ``model`` pulled in with
``from .x import f`` is traced as well as the defining module's own global.
Methods (``Tape.backward``, ``AdamW.step``) are patched on their class.

Each wrapped call records one span ``(span_id, name, start, end, parent)``;
the parent comes from the tracer's own call stack, and every span of one
traced call shares the tracer's ``run_id``.  Spans stay in memory until
``write_spans``.  Per-layer metrics are aggregated from the spans: ``.calls``
is the span count and ``.s`` the self time, i.e. the span's duration minus
the time its child spans cover.

Span names follow ``<module>.<function>[.<stage>]``; the encoder stage is
read from the ``prefix`` argument (``s2.b0.all.attn`` is stage 2).
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from collections import Counter, defaultdict

_STAGE = re.compile(r"^s(\d+)\.")


def _stage_of(prefix: str) -> str:
    m = _STAGE.match(prefix)
    if m is None:
        raise ValueError(f"cannot read an encoder stage from prefix {prefix!r}")
    return f"stage{m.group(1)}"


# (module, function, how the span is named).  A string names every call
# alike; a callable maps the call's arguments to the span name.
_FUNCTIONS = [
    ("model", "forward_pair", "model.forward_pair"),
    ("model", "infer_target_sourcefree", "model.infer_target_sourcefree"),
    ("encoder", "patch_embed", "encoder.patch_embed"),
    ("encoder", "patch_merge",
     lambda a, k: f"encoder.patch_merge.{_stage_of(a[1])}"),
    ("encoder", "attention",
     lambda a, k: f"encoder.attention.{_stage_of(a[1])}"),
    ("encoder", "mix_ffn", lambda a, k: f"encoder.mix_ffn.{_stage_of(a[1])}"),
    ("encoder", "quad_block", "encoder.quad_block"),
    ("encoder", "encoder_forward", "encoder.encoder_forward"),
    ("encoder", "encoder_forward_single", "encoder.encoder_forward_single"),
    ("decoder", "unify_and_upsample", "decoder.unify_and_upsample"),
    ("decoder", "fuse_and_predict", "decoder.fuse_and_predict"),
    ("decoder", "decode_pair", "decoder.decode_pair"),
    ("decoder", "decode_single", "decoder.decode_single"),
    ("decoder", "mask_probs", "decoder.mask_probs"),
    ("objectives", "seg_cross_entropy", "objectives.seg_cross_entropy"),
    ("objectives", "discriminator_forward", "objectives.discriminator_forward"),
    ("adaptation", "pair_two_way", "adaptation.pair_two_way"),
    ("adaptation", "ssim", "adaptation.ssim"),
    ("adaptation", "correct_pseudo_labels", "adaptation.correct_pseudo_labels"),
    ("adaptation", "initialize_bank", "adaptation.initialize_bank"),
    ("adaptation", "warmup_pseudo_labels", "adaptation.warmup_pseudo_labels"),
    ("adaptation", "ema_update", "adaptation.ema_update"),
    ("adaptation", "save_pseudo_labels", "adaptation.save_pseudo_labels"),
    ("adaptation", "load_pseudo_labels", "adaptation.load_pseudo_labels"),
    ("dataset", "generate_sample", "dataset.generate_sample"),
    ("dataset", "load_sample", "dataset.load_sample"),
    ("dataset", "augment", "dataset.augment"),
    ("pnm", "read_ppm", "pnm.read"),
    ("pnm", "read_pgm", "pnm.read"),
    ("pnm", "read_f64", "pnm.read"),
    ("pnm", "write_ppm", "pnm.write"),
    ("pnm", "write_pgm", "pnm.write"),
    ("pnm", "write_f64", "pnm.write"),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("train", "predict_mask", "train.predict_mask"),
    ("train", "warmup", "train.warmup"),
    ("train", "adapt", "train.adapt"),
    ("train", "evaluate", "train.evaluate"),
]

# Counters kept beside the spans: span name -> (counter, function of the
# call's args and result giving the amount to add).
_COUNTERS = {
    "pnm.read": ("pnm.read.bytes", lambda a, r: os.path.getsize(a[0])),
    "pnm.write": ("pnm.write.bytes", lambda a, r: os.path.getsize(a[0])),
    "checkpoint.save_checkpoint": (
        "checkpoint.save_checkpoint.bytes",
        lambda a, r: os.path.getsize(a[0]) + os.path.getsize(a[0] + ".bin")),
    "adaptation.pair_two_way": ("adaptation.pairs", lambda a, r: len(r.pairs)),
}

# The per-layer metrics, in print order, with their units.
LAYER_METRICS: list[tuple[str, str]] = [
    ("tensor.Tape.backward.calls", "count"),
    ("tensor.Tape.backward.s", "s"),
    ("tensor.tape_nodes_per_step", "count"),
    ("tensor.disc_tape_nodes_per_step", "count"),
    ("tensor.grad_reached_ratio", "ratio"),
    ("model.forward_pair.calls", "count"),
    ("model.forward_pair.s", "s"),
    ("model.infer_target_sourcefree.calls", "count"),
    ("model.infer_target_sourcefree.s", "s"),
    ("encoder.patch_embed.s", "s"),
    *[(f"encoder.patch_merge.stage{i}.s", "s") for i in (1, 2, 3)],
    *[m for i in range(4) for m in
      ((f"encoder.attention.stage{i}.calls", "count"),
       (f"encoder.attention.stage{i}.s", "s"))],
    *[(f"encoder.mix_ffn.stage{i}.s", "s") for i in range(4)],
    ("encoder.quad_block.s", "s"),
    ("encoder.encoder_forward.s", "s"),
    ("encoder.encoder_forward_single.s", "s"),
    ("decoder.unify_and_upsample.s", "s"),
    ("decoder.fuse_and_predict.s", "s"),
    ("decoder.decode_pair.s", "s"),
    ("decoder.decode_single.s", "s"),
    ("decoder.mask_probs.s", "s"),
    ("objectives.seg_cross_entropy.s", "s"),
    ("objectives.discriminator_forward.calls", "count"),
    ("objectives.discriminator_forward.s", "s"),
    ("objectives.AdamW.step.gen.s", "s"),
    ("objectives.AdamW.step.disc.s", "s"),
    ("adaptation.pair_two_way.s", "s"),
    ("adaptation.ssim.calls", "count"),
    ("adaptation.ssim.s", "s"),
    ("adaptation.pairs_per_ssim", "ratio"),
    ("adaptation.correct_pseudo_labels.s", "s"),
    ("adaptation.initialize_bank.s", "s"),
    ("adaptation.warmup_pseudo_labels.s", "s"),
    ("adaptation.ema_update.calls", "count"),
    ("adaptation.save_pseudo_labels.s", "s"),
    ("adaptation.load_pseudo_labels.s", "s"),
    ("dataset.generate_sample.calls", "count"),
    ("dataset.generate_sample.s", "s"),
    ("dataset.load_sample.calls", "count"),
    ("dataset.load_sample.s", "s"),
    ("dataset.augment.s", "s"),
    ("pnm.read.calls", "count"),
    ("pnm.read.s", "s"),
    ("pnm.read.bytes", "bytes"),
    ("pnm.write.calls", "count"),
    ("pnm.write.s", "s"),
    ("pnm.write.bytes", "bytes"),
    ("checkpoint.save_checkpoint.s", "s"),
    ("checkpoint.save_checkpoint.bytes", "bytes"),
    ("checkpoint.load_checkpoint.s", "s"),
    ("train.predict_mask.calls", "count"),
    ("train.predict_mask.s", "s"),
]


def patch_everywhere(original, replacement) -> list:
    """Rebind ``original`` to ``replacement`` in every imported quadseg
    module that holds it, so each ``from .x import f`` binding is replaced
    too.  Returns the ``(module, attribute)`` pairs that were changed."""
    changed = []
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("quadseg"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []
        # tape accounting: nodes recorded / nodes reached by backward,
        # attributed to the generator or critic by the optimizer step that
        # consumes the gradients
        self._pending_nodes = 0
        self.nodes = Counter()
        self.opt_steps = Counter()
        self.recorded = 0
        self.reached = 0

    # -- span recording -----------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)              # reserve the id in call order
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent)
        return result

    def _wrap(self, fn, naming):
        tracer = self
        counter = _COUNTERS.get(naming) if isinstance(naming, str) else None

        def traced(*args, **kwargs):
            name = naming if isinstance(naming, str) else naming(args, kwargs)
            result = tracer._span(name, fn, args, kwargs)
            if counter is not None:
                key, amount = counter
                tracer.counters[key] += amount(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_backward(self, fn):
        tracer = self

        def backward(tape, root):
            tracer._span("tensor.Tape.backward", fn, (tape, root), {})
            tracer._pending_nodes = len(tape.nodes)
            tracer.recorded += len(tape.nodes)
            tracer.reached += sum(g is not None for g in tape.grads)

        backward.__wrapped__ = fn
        return backward

    def _wrap_step(self, fn):
        tracer = self

        def step(opt, params, grads):
            kind = ("disc" if any(k.startswith("disc.") for k in params)
                    else "gen")
            tracer.nodes[kind] += tracer._pending_nodes
            tracer.opt_steps[kind] += 1
            tracer._pending_nodes = 0
            return tracer._span(f"objectives.AdamW.step.{kind}", fn,
                                (opt, params, grads), {})

        step.__wrapped__ = fn
        return step

    # -- install / restore --------------------------------------------------

    def __enter__(self) -> "Tracer":
        import importlib

        mods = {name: importlib.import_module(f"quadseg.{name}")
                for name in {m for m, _, _ in _FUNCTIONS} | {"tensor"}}
        for mod_name, fn_name, naming in _FUNCTIONS:
            original = getattr(mods[mod_name], fn_name)
            wrapper = self._wrap(original, naming)
            self._undo += [(m, a, original)
                           for m, a in patch_everywhere(original, wrapper)]
        tape_cls = mods["tensor"].Tape
        adamw_cls = mods["objectives"].AdamW
        for cls, attr, make in ((tape_cls, "backward", self._wrap_backward),
                                (adamw_cls, "step", self._wrap_step)):
            original = vars(cls)[attr]
            setattr(cls, attr, make(original))
            self._undo.append((cls, attr, original))
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()
        return False

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: number of calls and summed self time."""
        calls: Counter = Counter()
        child_time: defaultdict = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: Counter = Counter()
        for sid, name, start, end, _ in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[sid]
        return calls, self_s

    def layer_metrics(self) -> dict[str, float]:
        calls, self_s = self.self_times()
        out: dict[str, float] = {}
        derived = {
            "tensor.tape_nodes_per_step":
                self.nodes["gen"] / self.opt_steps["gen"]
                if self.opt_steps["gen"] else 0.0,
            "tensor.disc_tape_nodes_per_step":
                self.nodes["disc"] / self.opt_steps["disc"]
                if self.opt_steps["disc"] else 0.0,
            "tensor.grad_reached_ratio":
                self.reached / self.recorded if self.recorded else 0.0,
            "adaptation.pairs_per_ssim":
                self.counters["adaptation.pairs"] / calls["adaptation.ssim"]
                if calls["adaptation.ssim"] else 0.0,
        }
        for metric, _ in LAYER_METRICS:
            span, kind = metric.rsplit(".", 1)
            if metric in derived:
                out[metric] = float(derived[metric])
            elif kind == "calls":
                out[metric] = float(calls[span])
            elif kind == "s":
                out[metric] = float(self_s[span])
            else:
                out[metric] = float(self.counters[metric])
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per span, in call order, all tagged with run_id."""
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": self.run_id, "span": sid,
                                     "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
        os.replace(tmp, path)
