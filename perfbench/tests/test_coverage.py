"""Self-tests of the benchmark: wrapper coverage and the output contract.

Each workload runs at a tiny size, untraced and traced.  Every layer metric
a workload exercises must read nonzero, and the ones it must not exercise
must read zero; a wrapper that only replaced the defining module's name,
while ``train`` or ``model`` call through their own ``from .x import f``
binding, shows up here as a zero.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import Sizes  # noqa: E402

TINY = Sizes(n_train=4, n_val=2, big_val=3, ckpt_train=4, ckpt_val=2,
             warm_steps=2, adapt_steps=3, warmup_steps=3, setups=2)

INFERENCE = [
    "model.infer_target_sourcefree.calls", "model.infer_target_sourcefree.s",
    "encoder.patch_embed.s", "encoder.encoder_forward_single.s",
    *[f"encoder.patch_merge.stage{i}.s" for i in (1, 2, 3)],
    *[f"encoder.attention.stage{i}.{k}" for i in range(4)
      for k in ("calls", "s")],
    *[f"encoder.mix_ffn.stage{i}.s" for i in range(4)],
    "decoder.unify_and_upsample.s", "decoder.fuse_and_predict.s",
    "decoder.decode_single.s",
    "dataset.load_sample.calls", "dataset.load_sample.s",
    "pnm.read.calls", "pnm.read.s", "pnm.read.bytes",
    "train.predict_mask.calls", "train.predict_mask.s",
    "trace.overhead_ratio",
]
TRAINING = INFERENCE + [
    "tensor.Tape.backward.calls", "tensor.Tape.backward.s",
    "tensor.tape_nodes_per_step", "tensor.grad_reached_ratio",
    "decoder.mask_probs.s", "objectives.seg_cross_entropy.s",
    "objectives.AdamW.step.gen.s", "dataset.augment.s",
    "checkpoint.save_checkpoint.s", "checkpoint.save_checkpoint.bytes",
]
NONZERO = {
    "adapt-paired": TRAINING + [
        "tensor.disc_tape_nodes_per_step",
        "model.forward_pair.calls", "model.forward_pair.s",
        "encoder.quad_block.s", "encoder.encoder_forward.s",
        "decoder.decode_pair.s",
        "objectives.discriminator_forward.calls",
        "objectives.discriminator_forward.s", "objectives.AdamW.step.disc.s",
        "adaptation.pair_two_way.s", "adaptation.ssim.calls",
        "adaptation.ssim.s", "adaptation.pairs_per_ssim",
        "adaptation.correct_pseudo_labels.s",
        "adaptation.initialize_bank.s", "adaptation.ema_update.calls",
        "adaptation.load_pseudo_labels.s", "checkpoint.load_checkpoint.s",
    ],
    "warmup-sourcefree": TRAINING + [
        "adaptation.warmup_pseudo_labels.s", "adaptation.save_pseudo_labels.s",
        "dataset.generate_sample.calls", "dataset.generate_sample.s",
        "pnm.write.calls", "pnm.write.s", "pnm.write.bytes",
    ],
    "infer-eval": INFERENCE + [
        "checkpoint.load_checkpoint.s",
        "pnm.write.calls", "pnm.write.s", "pnm.write.bytes",
    ],
}


def _run(capsys, tmp_path, workload: str, trace: int):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], sizes=TINY,
                    work_root=str(tmp_path))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return lines, result


def _printed_with_units(lines, result, units, info):
    assert list(result["metrics"]) == [name for name, _ in units]
    for name, unit in units:
        assert result["metrics"][name]["unit"] == unit
    for name, unit in units + info:
        pattern = re.compile(rf"^{re.escape(name)} = \S+ {re.escape(unit)} \(")
        assert any(pattern.match(ln) for ln in lines), name


@pytest.mark.parametrize("workload", sorted(NONZERO))
def test_traced_layers_cover_the_workload(capsys, tmp_path, workload):
    lines, result = _run(capsys, tmp_path, workload, trace=1)
    _printed_with_units(lines, result, run.layer_units(), run.INFO[-1:])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    should = set(NONZERO[workload])
    assert [m for m in should if values[m] <= 0] == []
    assert [m for m in values if m not in should and values[m] != 0] == []
    if workload == "adapt-paired":
        assert values["adaptation.ssim.calls"] == TINY.n_train ** 2
        assert values["tensor.tape_nodes_per_step"] == 1834
        assert values["tensor.disc_tape_nodes_per_step"] == 101
    if workload == "warmup-sourcefree":
        assert values["tensor.tape_nodes_per_step"] == 541
    assert os.listdir(os.path.join(tmp_path, "spans"))


@pytest.mark.parametrize("workload", sorted(NONZERO))
def test_untraced_run_prints_every_metric(capsys, tmp_path, workload):
    lines, result = _run(capsys, tmp_path, workload, trace=0)
    _printed_with_units(lines, result, run.END_TO_END, run.INFO)
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert lines[0].startswith("host ")
    host = json.loads(lines[0][len("host "):])
    assert host["seed"] == 3
    assert host["QF_THREADS"] == os.environ["QF_THREADS"]
    # a second run of the same seed is checked against the stored digest
    _, again = _run(capsys, tmp_path, workload, trace=0)
    assert again["attempted"] == result["attempted"] + 1


def test_benchmark_json_matches_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == LAYER_METRICS + [run.OVERHEAD]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(NONZERO)


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
