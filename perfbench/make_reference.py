"""Write the stored reference CSVs the benchmark checks its warm-up against.

    python3 perfbench/make_reference.py

Each workload's warm-up campaign (seed ``bench.WARMUP_CAMPAIGN_SEED``,
``warmup_trials`` trials, replayed one trial at a time) is emitted to
``perfbench/reference/<workload>.csv``.  Failed trials are absent.  Run it only
on the commit that defines the reference: later runs compare against it.
"""

from __future__ import annotations

import run


def main() -> None:
    run.bootstrap()
    import bench  # after bootstrap: it imports numpy

    bench.REFERENCE_DIR.mkdir(exist_ok=True)
    for wl in bench.WORKLOADS.values():
        path = bench.REFERENCE_DIR / f"{wl.name}.csv"
        phase = bench.run_phase(wl, bench.WARMUP_CAMPAIGN_SEED, path, wl.warmup_trials)
        print(f"{path.name}: {phase.completed} of {phase.attempted} trials, "
              f"failures {dict(phase.failures)}")


if __name__ == "__main__":
    main()
