#!/usr/bin/env python3
"""Self-test of scagbench: failure accounting, the correctness gate,
determinism of the count metrics, and a held-out seed.

    python3 scagbench/selftest.py

Run from the root of the repository; it builds through run.py. Prints one
line per check and exits non-zero when any check fails.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Never used while the benchmark was tuned; the gate must pass on it too.
HELD_OUT_SEED = 90210
# Count metrics of the traced run: fixed by the inputs, so they repeat
# exactly for a fixed seed.
COUNT_METRICS = [
    "cpu.retired_per_detect", "cache.llc_miss_per_detect",
    "cache.l1d_miss_per_detect", "cfg.blocks_per_detect",
    "core.relevant.keep_frac", "core.cst.accesses_per_detect",
    "core.scan.exact_frac", "core.scan.dp_cells_per_detect",
    "core.scan.memo_hit_frac", "core.store.bytes",
]


def bench(workload, seed, seconds=1, trace=0, failpoints=None, extra=()):
    env = dict(os.environ)
    env.pop("SCAG_FAILPOINTS", None)
    if failpoints:
        env["SCAG_FAILPOINTS"] = failpoints
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           *extra]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def result_of(proc):
    """The result object on the last stdout line, or None."""
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return res if isinstance(res, dict) and "metrics" in res else None


def printed_failed_frac(proc):
    m = re.search(r"^\s*failed_frac\s+(\S+)", proc.stdout, re.M)
    return float(m.group(1)) if m else None


def check_failure_accounting(workload, failpoints):
    proc = bench(workload, 3, failpoints=failpoints)
    res = result_of(proc)
    if proc.returncode != 0 or res is None or not res["correct"]:
        return f"run failed (exit {proc.returncode}): {proc.stderr[-500:]}"
    frac = printed_failed_frac(proc)
    if res["failed"] == 0 or not frac:
        return f"no failures reported (failed={res['failed']}, failed_frac={frac})"
    if abs(frac - res["failed"] / res["attempted"]) > 1e-6:
        return f"failed_frac {frac} != {res['failed']}/{res['attempted']}"
    return None


def check_gate_fails_on_mismatch():
    proc = bench("paper-4poc", 3, extra=["--inject-mismatch"])
    if proc.returncode == 0 or result_of(proc) is not None:
        return f"gate did not reject (exit {proc.returncode})"
    return None


def check_counts_repeat():
    runs = [result_of(bench("paper-4poc", 5, trace=1)) for _ in range(2)]
    if None in runs:
        return "traced run failed"
    diff = [m for m in COUNT_METRICS
            if runs[0]["metrics"][m]["value"] != runs[1]["metrics"][m]["value"]]
    if diff:
        return f"count metrics differ between runs: {diff}"
    f1 = [result_of(bench("paper-4poc", 5)) for _ in range(2)]
    if None in f1:
        return "untraced run failed"
    if f1[0]["metrics"]["macro_f1"] != f1[1]["metrics"]["macro_f1"]:
        return "macro_f1 differs between runs"
    return None


def check_held_out_seed():
    proc = bench("paper-4poc", HELD_OUT_SEED)
    res = result_of(proc)
    if proc.returncode != 0 or res is None or not res["correct"]:
        return f"held-out seed failed (exit {proc.returncode})"
    return None


def main():
    checks = [
        ("failed_frac counts serial failures",
         lambda: check_failure_accounting("paper-4poc", "detector.scan=throw@7")),
        ("failed_frac counts batch failures",
         lambda: check_failure_accounting("batch-4poc", "batch.scan_target=throw@7")),
        ("correctness gate rejects a mismatch", check_gate_fails_on_mismatch),
        ("count metrics and macro_f1 repeat", check_counts_repeat),
        ("held-out seed passes the gate", check_held_out_seed),
    ]
    failures = 0
    for name, check in checks:
        problem = check()
        print(f"{'FAIL' if problem else 'ok  '} {name}" +
              (f": {problem}" if problem else ""), flush=True)
        failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
