"""Regenerate ``references.json``, the committed expected outputs.

    PYTHONPATH=src python3 perfbench/make_references.py

Run from the checkout root.  Computes every Table II cell, every cold
Table III cell (with its cache counters) and every Monte-Carlo seed of
the pool that the benchmark can draw, serially, each in a fresh empty
cache directory.  Only regenerate when a change is *meant* to alter
results; the benchmark checks outputs against this file bit for bit.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

from repro import runtime
from repro.runtime import METRICS

import workloads
from layers import MetricsView


def main() -> int:
    runtime.configure(workers=1)
    tmp = Path(".perfbench_tmp") / "references"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    references = {"table2": {}, "synth": {}, "mc_tail": {}}
    try:
        table2 = workloads.Table2(0, tmp)
        synth = workloads.Synth(0, tmp)
        mc = workloads.McTail(0, tmp)
        # Set up against the references being built, not the file.
        workloads.load_references = lambda: references
        for workload in (table2, synth, mc):
            workload.setup(traced=False)

        for cell in workloads.TABLE2_CELLS:
            row = table2._run(cell).rows[0]
            references["table2"][workloads.cell_id(*cell)] = \
                workloads.table2_output(row)

        for index, case in enumerate(workloads.SYNTH_CASES):
            cache = tmp / f"synth-{index}"
            cache.mkdir()
            os.environ["REPRO_CACHE_DIR"] = str(cache)
            before = MetricsView.from_registry(METRICS)
            result = synth._run(case)
            delta = MetricsView.from_registry(METRICS).minus(before)
            references["synth"][f"{case[0]}@{case[1]}"] = {
                "reports": workloads.synth_output(result),
                "cache": {counter: delta.counter(f"cache.{counter}")
                          for counter in ("hit", "miss", "write")}}

        for mc_seed in workloads.MC_SEED_POOL:
            references["mc_tail"][str(mc_seed)] = workloads.mc_output(
                mc.query(mc_seed), mc._threshold)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    with open(workloads.REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {workloads.REFERENCES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
