"""Regenerate bench/reference.json, the per-item outputs of the default seed.

Usage, from the repository root:

    python3 bench/make_reference.py

Runs the first REFERENCE_ITEMS items of every workload at the reference
seed and stores each item's (digest, floats).  Refuses to write when any
item fails its checks.  Regenerate only when a change is meant to alter
outputs, and say which outputs moved and why.
"""

import json
import sys
import tempfile

import run

REFERENCE_ITEMS = 200


def main():
    run.import_projlab()
    import workloads

    ref = {"seed": run.REFERENCE_SEED, "items": REFERENCE_ITEMS, "workloads": {}}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as scratch:
        for name in run.WORKLOADS:
            wl = workloads.make(name, scratch)
            shared = wl.setup(run.REFERENCE_SEED)
            res = run.run_loop(wl, shared, run.REFERENCE_SEED, n_items=REFERENCE_ITEMS)
            if res.failures:
                sys.exit(f"{name}: items failed, not writing a reference: {res.failures[:5]}")
            ref["workloads"][name] = res.records
            print(f"{name}: {res.attempted} items in {res.loop_s:.1f} s")
    run.REFERENCE.write_text(json.dumps(ref, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
