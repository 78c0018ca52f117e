"""Digest of a tiny end-to-end chain's output files.

    python3 tools/chain_digest.py CHECKOUT [--seed S] [--batch B] \
        [--set KEY=VALUE ...] [--against OTHER_CHECKOUT [--sweep]]

Runs ``generate`` (4 training images per domain, 2 held out) -> ``pair``
-> ``warmup`` -> ``adapt`` twice (pairing on the fly, then from the
persisted pair file) -> ``eval`` of both adapted checkpoints, at crop 32
with 4 warm-up and 4 adaptation steps.  Every command runs in its own
subprocess against ``CHECKOUT/src`` and writes into a temporary directory,
which is removed afterwards.  ``--seed`` seeds both the generated domains
and the run config; each ``--set`` overrides one config key of the warm-up
and both adaptations.

The output is one ``sha256  relpath`` line per file the chain wrote, in
path order.  Two checkouts whose chains write the same bytes print the
same listing, so a ``diff`` of two listings shows whether a change keeps
every output of its parent.  ``--against OTHER_CHECKOUT`` runs the chain in
both checkouts and prints instead each path whose bytes differ, or that
only one chain wrote; it exits 1 if there is any.  ``--sweep`` (with
``--against``) compares the two checkouts over the matrix of
``sweep_cases`` instead of one seed and batch: seeds 0, 1 and 4 at batch
1-3, then seed 1 at batch 2 with each of ``share_branch_weights=false``,
``label_correction=false``, ``adversarial=false``, ``self_training=false``
and ``crop=64``, and seed 1 at batch 3 with ``crop=64`` (the five-layer
critic at full depth on an odd batch), 15 cases.  The two toggles run
each half of an adaptation step alone: the pseudo-label job without the
critic step after it, and the critic step with no job.  It prints one
line per case, with the paths that differ, and exits 1 if any case
differs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

_GENERATE = ["--train", "4", "--val", "2"]
_FAST = {"crop": "32", "warmup_iterations": "4", "iterations": "4",
         "eval_every": "2"}


def chain_commands(seed: int, batch: int, sets: list[str]) -> list[list[str]]:
    """The chain's ``quadseg`` command lines, relative to the work dir."""
    opts = [f"{k}={v}" for k, v in
            {**_FAST, "batch": str(batch), "seed": str(seed)}.items()] + sets
    cfg = [a for kv in opts for a in ("--set", kv)]
    adapt = ["adapt", "--data", "data", "--warmup", "w.ckpt"]
    return [
        ["generate", "--out", "data", "--seed", str(seed), *_GENERATE],
        ["pair", "--data", "data", "--out", "pairs.tsv"],
        ["warmup", "--data", "data", "--out", "w.ckpt", "--log", "w.csv", *cfg],
        [*adapt, "--out", "a.ckpt", "--log", "a.csv", *cfg],
        [*adapt, "--out", "ap.ckpt", "--pairs", "pairs.tsv", "--log", "ap.csv",
         *cfg],
        ["eval", "--ckpt", "a.ckpt", "--data", "data", "--out", "eval_a"],
        ["eval", "--ckpt", "ap.ckpt", "--data", "data", "--out", "eval_ap"],
    ]


def tree_listing(root: str) -> list[str]:
    """``sha256  relpath`` of every file under ``root``, in path order."""
    files = []
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files.append((os.path.relpath(path, root),
                              hashlib.sha256(fh.read()).hexdigest()))
    return [f"{digest}  {rel}" for rel, digest in sorted(files)]


def run_chain(checkout: str, seed: int = 0, batch: int = 2,
              sets: list[str] = ()) -> list[str]:
    """Run the chain against ``checkout``'s sources; its tree listing."""
    src = os.path.join(os.path.abspath(checkout), "src")
    if not os.path.isfile(os.path.join(src, "quadseg", "cli.py")):
        raise FileNotFoundError(f"{checkout}: no src/quadseg/cli.py")
    env = {**os.environ, "PYTHONPATH": src}
    with tempfile.TemporaryDirectory(prefix="chain_digest_") as work:
        for cmd in chain_commands(seed, batch, list(sets)):
            proc = subprocess.run([sys.executable, "-m", "quadseg.cli", *cmd],
                                  cwd=work, env=env, capture_output=True,
                                  text=True, check=False)
            if proc.returncode != 0:
                raise RuntimeError(f"quadseg {' '.join(cmd)} exited "
                                   f"{proc.returncode}\n{proc.stderr[-2000:]}")
        return tree_listing(work)


def differing_paths(listing: list[str], other: list[str]) -> list[str]:
    """Paths of two listings whose digests differ or that only one has, in
    path order."""
    a, b = ({rel: digest for digest, rel in (line.split("  ", 1) for line in l)}
            for l in (listing, other))
    return sorted(rel for rel in a.keys() | b.keys() if a.get(rel) != b.get(rel))


def sweep_cases() -> list[tuple[int, int, list[str]]]:
    """(seed, batch, config overrides) of each ``--sweep`` case."""
    cases = [(seed, batch, []) for seed in (0, 1, 4) for batch in (1, 2, 3)]
    cases += [(1, 2, [kv]) for kv in ("share_branch_weights=false",
                                      "label_correction=false",
                                      "adversarial=false",
                                      "self_training=false", "crop=64")]
    cases.append((1, 3, ["crop=64"]))
    return cases


def sweep(checkout: str, other: str, sets: list[str]) -> int:
    """Compare the two checkouts' chains on every sweep case, one line
    each; the number of cases that differ."""
    failed = 0
    for seed, batch, case_sets in sweep_cases():
        case_sets = [*sets, *case_sets]
        listing = run_chain(checkout, seed, batch, case_sets)
        differ = differing_paths(listing,
                                 run_chain(other, seed, batch, case_sets))
        failed += bool(differ)
        print(" ".join([f"seed {seed} batch {batch}", *case_sets]) +
              f": {len(differ)} of {len(listing)} paths differ" +
              "".join(f" {rel}" for rel in differ), flush=True)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="repository checkout to run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch", type=int, default=2)
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", help="config override (repeatable)")
    parser.add_argument("--against", metavar="OTHER_CHECKOUT",
                        help="print the paths whose bytes differ from this "
                             "checkout's chain; exit 1 if any")
    parser.add_argument("--sweep", action="store_true",
                        help="with --against: compare every sweep case "
                             "instead of one seed and batch")
    args = parser.parse_args(argv)
    if args.sweep:
        if args.against is None:
            parser.error("--sweep needs --against")
        return 1 if sweep(args.checkout, args.against, args.set) else 0
    listing = run_chain(args.checkout, args.seed, args.batch, args.set)
    if args.against is None:
        print("\n".join(listing))
        return 0
    other = run_chain(args.against, args.seed, args.batch, args.set)
    differ = differing_paths(listing, other)
    for rel in differ:
        print(rel)
    print(f"{len(differ)} paths differ ({len(listing)} and {len(other)} files)",
          file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
