#!/usr/bin/env python3
"""Record the verdict counts of workloads for a range of seeds.

    python3 perfbench/record_expected.py FIRST LAST [WORKLOAD ...]

Runs one untimed pass per workload and seed, from FIRST to LAST inclusive,
and stores the counts in perfbench/expected.json, replacing what was there
for the named workloads (by default every workload whose verdicts depend on
the seed).  run.py then compares each run's counts with the recorded ones.
A seed whose pass fails a check is not recorded, and the script exits 1.
"""
from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

from run import EXPECTED, OUT, import_library, run_passes
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    names = argv[2:] or [name for name, wl in WORKLOADS.items() if not wl.all_completable]
    mods = import_library()
    OUT.mkdir(parents=True, exist_ok=True)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    status = 0
    with tempfile.TemporaryDirectory(dir=OUT, prefix="record-") as workdir:
        for name in names:
            wl = WORKLOADS[name]
            expected[name] = {}
            for seed in range(first, last + 1):
                instances = wl.build(mods, random.Random(f"{name}:{seed}"), Path(workdir))
                (one,), _ = run_passes(wl, mods, instances, 0.0, 1)
                if one.failures:
                    print(f"{name} seed {seed}: {one.failures} failed checks, not recorded")
                    status = 1
                    continue
                expected[name][str(seed)] = dict(sorted(one.verdicts.items()))
            print(f"{name}: seeds {first}..{last} done", flush=True)
            EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
