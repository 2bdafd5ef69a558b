"""Record the input digest of every workload for a range of seeds.

    python3 perfbench/record_digests.py 0 100

Run from the root of a checkout.  Writes perfbench/digests.json, which
run.py compares each run's generated inputs against: a run whose
inputs differ from the recorded digest for its seed counts as failed,
so a change to the generator cannot silently change a workload.  Rerun
this only when such a change is intended, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main(argv):
    lo, hi = int(argv[0]), int(argv[1])
    root = Path.cwd()
    run.import_program(root)
    import workloads

    table = {}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for name, wl in workloads.WORKLOADS.items():
            table[name] = {}
            for seed in range(lo, hi):
                state = wl.setup(seed, Path(tmp))
                table[name][str(seed)] = run.digest(wl.arrays(state))
                del state
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} ({hi - lo} seeds per workload)")


if __name__ == "__main__":
    main(sys.argv[1:])
