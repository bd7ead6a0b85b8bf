"""Self-test of the benchmark's output checks.

Run from the root of a checkout::

    python3 bench/selftest.py

For each workload it writes a copy of ``golden.json`` with one dim off
(every spec's, for ``sweep-zeta12``), runs the benchmark against that copy
at the golden seed, and requires every operation to be reported failed
(``failed == attempted``, so fail_frac = 1) and ``correct`` false.  Exits 1
when the checker lets a wrong answer through.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
GOLDEN_SEED = "1"


def tampered(golden, workload):
    g = copy.deepcopy(golden)
    entry = g[workload]
    if workload == "sweep-zeta12":
        for records in entry["specs"].values():
            for rec in records:
                rec["dims"][-1] += 1
    else:
        entry["dims"][-1] += 1
    return g


def main():
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    bad = 0
    for workload in golden:
        path = out / f"golden-tampered-{workload}.json"
        path.write_text(json.dumps(tampered(golden, workload)),
                        encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", GOLDEN_SEED, "--seconds", "1", "--trace", "0",
             "--golden", str(path)],
            capture_output=True, text=True, timeout=180)
        path.unlink()
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        ok = proc.returncode == 0 and result is not None and \
            result["correct"] is False and \
            result["failed"] == result["attempted"] > 0
        bad += not ok
        summary = {k: result[k] for k in ("correct", "attempted", "failed")} \
            if result else proc.stderr[-500:]
        print(f"{'ok  ' if ok else 'FAIL'} {workload}: {summary}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
