"""Perfbench fingerprint gate: fresh samples vs the committed fingerprints.

A perfbench sample's ``fingerprint`` (``perfbench/child.py``) names the
work one run did: the result digest and the work counts (events scheduled
and dispatched, QUERY_HISTORY rows written, ticks, retrains).  A change
meant to keep behaviour leaves every fingerprint as committed in
``perfbench_fingerprints.json``.  A change meant to alter the simulated
work (a fidelity or bug fix) re-blesses them with ``--update`` and says why
in CHANGES.md, as it would re-bless ``GOLDEN_DIGEST``.

Usage::

    python benchmarks/perfbench_fingerprints.py                 # every committed entry; exit 1 on a difference
    python benchmarks/perfbench_fingerprints.py --workload customer_only            # its default seed
    python benchmarks/perfbench_fingerprints.py --workload customer_only --seed 7
    python benchmarks/perfbench_fingerprints.py --update        # bless fresh fingerprints

Each entry costs one untraced sample, a fresh interpreter of a few seconds.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
FINGERPRINTS = pathlib.Path(__file__).resolve().parent / "perfbench_fingerprints.json"

sys.path.insert(0, str(ROOT / "perfbench"))
from harness import DEFAULT_SEEDS  # noqa: E402

#: Seeds blessed per workload besides its default: 7 is the held-out seed
#: CI's perfbench-smoke job also runs.
EXTRA_SEEDS = (7,)


def sample_fingerprint(workload: str, seed: int) -> dict:
    """The fingerprint of one untraced sample of this tree."""
    out = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "child.py"),
            "--root",
            str(ROOT),
            "--workload",
            workload,
            "--seed",
            str(seed),
        ],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    sample = json.loads(out.strip().splitlines()[-1])
    if sample["failures"]:
        raise SystemExit(f"{workload} seed {seed}: the sample failed: {sample['failures']}")
    return sample["fingerprint"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, help="default: the workload's own seed")
    parser.add_argument("--update", action="store_true", help="write fresh fingerprints")
    args = parser.parse_args(argv)
    if args.seed is not None and args.workload is None:
        parser.error("--seed needs --workload")

    committed = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    if args.workload:
        seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
        entries = [(args.workload, seed)]
    else:
        entries = [(w, s) for w in sorted(DEFAULT_SEEDS) for s in (DEFAULT_SEEDS[w], *EXTRA_SEEDS)]

    differ = 0
    for workload, seed in entries:
        fresh = sample_fingerprint(workload, seed)
        if args.update:
            committed.setdefault(workload, {})[str(seed)] = fresh
            print(f"blessed {workload} seed {seed}")
            continue
        expected = committed.get(workload, {}).get(str(seed))
        if expected is None:
            print(f"{workload} seed {seed}: no committed fingerprint (bless it with --update)")
            differ += 1
            continue
        keys = sorted(k for k in expected.keys() | fresh.keys() if expected.get(k) != fresh.get(k))
        for key in keys:
            print(
                f"{workload} seed {seed}: {key}: committed {expected.get(key)!r}, "
                f"this tree {fresh.get(key)!r}"
            )
        differ += bool(keys)
        if not keys:
            print(f"{workload} seed {seed}: fingerprint as committed")
    if args.update:
        FINGERPRINTS.write_text(json.dumps(committed, indent=2, sort_keys=True) + "\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
