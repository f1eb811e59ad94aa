"""Record the output digest of every workload for the recorded seeds.

    python3 perfbench/record_digests.py

Run from the root of a source checkout.  Writes perfbench/digests.json for
seeds 0-99 and the held-out seed; run.py compares against it: a run whose
canonical outputs (quotients, remainders, certificates, residual
trajectories, CLI stdout and exit codes) differ from the recorded digest
reports ``correct: false``.  Re-record only when an output change is
intended, and say so in the change.
"""

import json
import sys
from pathlib import Path

import run

SEEDS = list(range(100)) + [run.HELD_OUT_SEED]


def main():
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    table = {}
    for name, wl in workloads.WORKLOADS.items():
        table[name] = {}
        for seed in SEEDS:
            runner = run.Runner(wl)
            stats = workloads.Stats()
            texts = []
            for inp in run.prefix_inputs(wl, wl.rounds(seed)):
                out, _, err = runner.timed(inp)
                texts.append(runner.check(inp, out, err, stats))
            if runner.failed:
                sys.exit(f"{name} seed {seed}: {runner.first_failure}")
            table[name][str(seed)] = run.digest_of(texts)
        print(f"{name}: {len(SEEDS)} seeds", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
