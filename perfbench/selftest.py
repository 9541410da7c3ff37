#!/usr/bin/env python3
"""Show that each workload's checker accepts real outputs and rejects
deliberately corrupted ones.

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

For each workload (all four by default) it builds the set-up, runs the
warm-up input and the first round untimed, checks every output, then checks
each corrupted copy and prints the checker's verdict.  Exits 1 if a real
output is rejected or a corrupted one accepted.  Takes about half a minute,
most of it the Q-lane operations.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = args.workloads or list(workloads.WORKLOADS)
    bad = 0
    for name in names:
        wl = workloads.WORKLOADS[name](args.seed)
        state = wl.setup()
        errors = wl.check_setup(state)
        pairs = [(inp, wl.run(state, inp)) for inp in [wl.warmup_input()] + wl.round_inputs(0)]
        errors += [e for e in (wl.check(state, i, o) for i, o in pairs) if e]
        for err in errors:
            print(f"{name}: real output rejected: {err}")
        bad += len(errors)
        for label, inp, corrupted in wl.corruptions(pairs):
            verdict = wl.check(state, inp, corrupted)
            print(f"{name}: {label}: {'rejected: ' + verdict if verdict else 'ACCEPTED'}")
            bad += verdict is None
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
