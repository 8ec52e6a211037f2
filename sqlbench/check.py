#!/usr/bin/env python3
"""The SQL benchmark's own smoke and determinism check.

    python3 sqlbench/check.py

Builds the benchmark like run.py, then runs every workload on small tables,
twice per mode with the same seed, and checks that:
  * every run is correct, with no failed statement;
  * the untraced run prints exactly BENCHMARK.json's end-to-end metrics and
    the traced run exactly its per-layer metrics, each with its unit;
  * two same-seed runs give identical model_ms_per_query and identical
    counter-derived per-layer metrics;
  * the pooled workload's simulated time includes the pool devices (it is
    non-zero), and each workload moves the layers it exists to exercise.
Exits non-zero on the first failed check.
"""
import json
import os
import sys
from types import SimpleNamespace

import run as bench

SMALL = ["--flows-rows", "100000", "--census-rows", "36000"]
WORKLOADS = ["select_hot", "select_churn", "aggregate_scan",
             "materialize_pool"]
# Per-layer metrics computed only from device counters and the statement
# cycle: they must repeat exactly for a seed.
COUNTER_METRICS = [
    "core.passes_per_query", "core.fused_pass_frac", "core.cpu_fallbacks",
    "gpu.fragments_per_query", "gpu.fp_instructions_per_query",
    "gpu.occlusion_readbacks_per_query", "gpu.bytes_read_back_per_query",
    "gpu.swap_ins_per_query", "plancache.hit_rate", "plancache.lookups",
    "plancache.evictions", "pool.shards_per_query", "pool.failovers",
]
# Metrics each workload exists to move; they must be non-zero there.
EXERCISED = {
    "select_hot": ["core.exec_ms.count", "core.exec_ms.range",
                   "core.exec_ms.semilinear", "core.exec_ms.dnf",
                   "plancache.hit_rate", "cpu.wall_ratio.count"],
    "select_churn": ["gpu.swap_ins_per_query", "plancache.lookups"],
    "aggregate_scan": ["core.exec_ms.kth", "core.exec_ms.sum",
                       "core.exec_ms.avg_where", "cpu.wall_ratio.kth",
                       "cpu.wall_ratio.sum"],
    "materialize_pool": ["core.exec_ms.select_rows", "gpu.readback_ms",
                         "core.fused_pass_frac",
                         "pool.shards_per_query", "pool.overhead_ratio",
                         "gpu.bytes_read_back_per_query"],
}


def fail(msg):
    print("check.py: FAIL: " + msg, file=sys.stderr)
    sys.exit(1)


def detail(lines):
    for line in lines:
        if line.startswith("detail "):
            return json.loads(line[len("detail "):])
    fail("no detail line")


def main():
    spec_path = os.path.join(bench.ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    bench.build()
    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            args = SimpleNamespace(workload=workload, seed=7, seconds=1,
                                   trace=trace)
            runs = [bench.run(args, SMALL) for _ in range(2)]
            for lines, result in runs:
                info = detail(lines)
                if not result["correct"] or result["failed"] != 0:
                    fail("%s trace=%d failed: %s" %
                         (workload, trace, info["first_error"]))
                if info["failed_frac"] != 0:
                    fail("%s: failed_frac %s" % (workload, info["failed_frac"]))
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                want = {m["name"]: m["unit"] for m in wanted}
                if got != want:
                    fail("%s trace=%d metrics differ from BENCHMARK.json: %s" %
                         (workload, trace, sorted(set(got) ^ set(want))))
            a, b = (r[1]["metrics"] for r in runs)
            same = ["model_ms_per_query"] if trace == 0 else COUNTER_METRICS
            for name in same:
                if a[name]["value"] != b[name]["value"]:
                    fail("%s: %s differs between same-seed runs (%r, %r)" %
                         (workload, name, a[name]["value"], b[name]["value"]))
            if trace == 0 and workload == "materialize_pool":
                pooled = detail(runs[0][0])["pool_model_ms_per_query"]
                if not pooled > 0 or not a["model_ms_per_query"]["value"] > 0:
                    fail("pooled statements priced at zero model ms")
            if trace == 1:
                for name in EXERCISED[workload]:
                    if not a[name]["value"] > 0:
                        fail("%s: %s is %r, expected > 0" %
                             (workload, name, a[name]["value"]))
            print("check.py: %s trace=%d ok" % (workload, trace))
    print("check.py: all workloads ok")


if __name__ == "__main__":
    main()
