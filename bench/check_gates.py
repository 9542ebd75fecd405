#!/usr/bin/env python3
"""Check the gates of the BENCH_*.json files bench/main.exe writes.

Each file is {"bench", "cores", "gates": [{name, value, threshold,
enforced, ok}], ...fields}.  A failed enforced gate is an error and fails
the check; a failed advisory gate is a warning.  The jobs=4 speedup gate
is enforced only on runners with at least 4 cores, and a run that left it
advisory is a warning whether it passed or not.

Usage: python3 bench/check_gates.py BENCH_campaign.json [BENCH_...json ...]
"""
import json
import sys

# Gates the bench enforces only on large enough runners.
RUNNER_DEPENDENT = {"parallel_speedup_j4_vs_j1"}

failed = False
for path in sys.argv[1:]:
    with open(path) as f:
        gates = json.load(f)["gates"]
    if not gates:
        print(f"::error::{path} has no gates")
        failed = True
    for g in gates:
        line = (f"{path}: gate {g['name']} = {g['value']} "
                f"(threshold {g['threshold']})")
        if g["enforced"] and not g["ok"]:
            print(f"::error::{line} failed")
            failed = True
        elif not g["enforced"] and (not g["ok"]
                                    or g["name"] in RUNNER_DEPENDENT):
            verdict = "passed" if g["ok"] else "failed"
            print(f"::warning::{line} ran advisory only and {verdict}")
        else:
            print(f"{line}: ok")
sys.exit(1 if failed else 0)
