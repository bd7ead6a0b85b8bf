"""Capture ``golden.json`` from the engine in this checkout.

Run from the root of a checkout, only on an engine whose results are
trusted (the goldens pin them for every later change)::

    python3 bench/capture_golden.py

Stores, per workload, the stdout digest and dims of the full and of the
cut-down (set-up) command, and for ``sweep-zeta12`` the verdict, GK
dimension and dims of each spec of the first children of the default seed.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import (BENCH, OUT, SWEEP_PART_SEEDS, WORKLOADS, Runner,  # noqa: E402
                 canonical, sha256)

DEFAULT_SEED = 1
# every child of a run at the default seed is checked against stored records
# while the run has at most this many children
SWEEP_GOLDEN_PARTS = 12


def _driver_result(runner, args):
    child = runner.driver(args)
    payload = child.payload()
    if payload is None or payload["errors"]:
        raise SystemExit(f"driver {args} failed:\n{child.stderr}")
    return payload["result"]


def _cli_stdout(runner, args):
    child = runner.cli(args)
    if child.rc != 0:
        raise SystemExit(f"gknichols {args} failed:\n{child.stderr}")
    return child.stdout


def main():
    root = Path.cwd()
    OUT.mkdir(exist_ok=True)
    runner = Runner(root, perf_counter() + 600)
    golden = {}
    for name in ("dims-poseidon", "verify-generic"):
        spec = WORKLOADS[name]
        stdout = _cli_stdout(runner, spec["cli"])
        out = json.loads(stdout)
        golden[name] = {
            "stdout_sha256": sha256(stdout),
            "dims": out if isinstance(out, list) else out["dims"],
            "setup_stdout_sha256": sha256(_cli_stdout(runner,
                                                      spec["setup"])),
        }
    member = _driver_result(runner, WORKLOADS["member-overshoot"]["driver"])
    golden["member-overshoot"] = {
        "result_sha256": sha256(canonical(member)),
        "dims": member["dims"],
        "relations": [r["relation"] for r in member["relations"]],
        "setup_result_sha256": sha256(canonical(_driver_result(
            runner, WORKLOADS["member-overshoot"]["setup"]))),
    }
    first = SWEEP_PART_SEEDS * DEFAULT_SEED
    sweeps = {str(seed): _driver_result(runner, ["sweep", "--seed",
                                                  str(seed)])["specs"]
              for seed in range(first, first + SWEEP_GOLDEN_PARTS)}
    golden["sweep-zeta12"] = {
        "count": len(sweeps[str(first)]),
        "specs": {seed: [{k: rec[k] for k in ("verdict", "gk", "dims")}
                         for rec in specs] for seed, specs in sweeps.items()},
        "setup_result_sha256": sha256(canonical(_driver_result(
            runner, WORKLOADS["sweep-zeta12"]["setup"]))),
    }
    (BENCH / "golden.json").write_text(_dump(golden), encoding="utf-8")


def _dump(golden):
    """JSON with one line per field, and one line per sweep spec record."""
    entries = []
    for name, entry in golden.items():
        fields = []
        for key, val in entry.items():
            if key == "specs":
                val = "{\n" + ",\n".join(
                    f"   {json.dumps(seed)}: [\n" +
                    ",\n".join("    " + json.dumps(r) for r in recs) +
                    "\n   ]" for seed, recs in val.items()) + "\n  }"
            else:
                val = json.dumps(val)
            fields.append(f"  {json.dumps(key)}: {val}")
        entries.append(f" {json.dumps(name)}: {{\n" + ",\n".join(fields) +
                       "\n }")
    return "{\n" + ",\n".join(entries) + "\n}\n"


if __name__ == "__main__":
    main()
