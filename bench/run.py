"""Benchmark of the gknichols engine: four workloads, one child at a time.

Run from the root of a checkout::

    python3 bench/run.py --workload dims-poseidon --seed 1 --seconds 24 \
        --trace 0

With ``--trace 0`` every child runs untraced and the end-to-end metrics are
taken from outside it (``os.wait4``), times scaled to a reference machine
speed (see ``measure``).  With ``--trace 1`` one untraced and
one traced child run, the traced child records spans around each layer's
public functions (``tracer.py``) and the per-layer metrics are read from
those spans, plus a scalar microbench.  Every run checks the outputs
against ``golden.json``; the last line of stdout is the JSON result.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
POSEIDON = "bench/data/poseidon.json"
RUN_LIMIT_S = 170  # every child is killed by then; a run must end by 180 s
SETUP_PROBES = 9
MIN_CHILDREN = 2
REFERENCE_S = 0.33  # reference time on the machine all times are scaled to

# An operation is one command (CLI workloads), one relation
# (member-overshoot) or one spec (sweep-zeta12).
WORKLOADS = {
    # nichols._advance on rational scalars: 5 letters, 5^6 words at degree 6
    "dims-poseidon": {
        "cli": ["dims", POSEIDON, "--max-degree", "6"],
        "setup": ["dims", POSEIDON, "--max-degree", "1"]},
    # the same truncation on rational-function scalars, plus the verify path
    "verify-generic": {
        "cli": ["verify", "--name", "lstr(A(1|0)1;r)", "--params",
                "r=generic", "--max-degree", "6"],
        "setup": ["verify", "--name", "lstr(A(1|0)1;r)", "--params",
                  "r=generic", "--max-degree", "1"]},
    # membership above the truncation degree: skew derivations dominate
    "member-overshoot": {
        "driver": ["member"], "setup": ["member", "--setup"]},
    # many small cyclotomic problems: set-up and classify weigh more
    "sweep-zeta12": {
        "driver": ["sweep"], "setup": ["sweep", "--count", "0"]},
}
SWEEP_PART_SEEDS = 1000  # child k of a run with seed s uses seed 1000*s + k


class Child:
    """A finished child process and what ``os.wait4`` said about it."""

    def __init__(self, rc, stdout, stderr, wall, cpu, rss_mb):
        self.rc, self.stdout, self.stderr = rc, stdout, stderr
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb

    def payload(self):
        """The driver's JSON line, or None when the child failed."""
        if self.rc != 0:
            return None
        try:
            return json.loads(self.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            return None


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        PYTHONHASHSEED="0")
        self._n = 0

    def spawn(self, argv):
        """Run argv to completion through ``launch.py``; wall time is from
        fork to reaped exit."""
        self._n += 1
        out = OUT / f"child-{os.getpid()}-{self._n}"
        report = Path(f"{out}.usage")
        with open(f"{out}.out", "wb") as fo, open(f"{out}.err", "wb") as fe:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-E", "-S", str(BENCH / "launch.py"),
                 str(report), "--"] + argv,
                stdout=fo, stderr=fe, cwd=self.root, env=self.env,
                start_new_session=True)
        timer = threading.Timer(max(0.0, self.deadline - perf_counter()),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
        wall = perf_counter() - t0
        stdout = Path(f"{out}.out").read_text(encoding="utf-8")
        stderr = Path(f"{out}.err").read_text(encoding="utf-8")
        os.unlink(f"{out}.out")
        os.unlink(f"{out}.err")
        try:
            usage = json.loads(report.read_text(encoding="utf-8"))
            report.unlink()
        except (OSError, ValueError):  # killed at the deadline
            return Child(proc.returncode or -1, stdout, stderr, wall, 0.0,
                         0.0)
        return Child(usage["rc"], stdout, stderr, usage["wall"],
                     usage["cpu"], usage["maxrss_kb"] / 1024)

    def cli(self, args):
        return self.spawn([sys.executable, "-m", "gknichols.cli"] + args)

    def driver(self, args, trace=None):
        pre = ["--trace", str(trace), "--run-id", trace.stem] if trace else []
        return self.spawn([sys.executable, str(BENCH / "driver.py")] + pre
                          + args)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# output checks: each returns one bool per operation


def check_cli(golden, stdout, rc):
    """A CLI command passes when exit code, stdout digest and dims match."""
    if rc != 0 or sha256(stdout) != golden["stdout_sha256"]:
        return [False]
    try:
        out = json.loads(stdout)
    except ValueError:
        return [False]
    dims = out if isinstance(out, list) else out.get("dims")
    ok = dims == golden["dims"]
    if isinstance(out, dict):
        ok = ok and out.get("pass") is True
    return [ok]


def check_member(golden, payload):
    """Every relation must be zero; a mismatch of the truncation or of the
    whole result digest fails every relation of the child."""
    n = len(golden["relations"])
    if payload is None or payload["errors"]:
        return [False] * n
    result = payload["result"]
    if result["dims"] != golden["dims"] or \
            sha256(canonical(result)) != golden["result_sha256"]:
        return [False] * n
    got = {r["relation"]: r["zero"] for r in result["relations"]}
    return [got.get(rel) is True for rel in golden["relations"]]


def check_sweep(golden, payload, spec_seed, kernels, count):
    """Per spec: the stored record where the seed has one; at every seed
    dims[n] + ideal_dims[n] == L**n and the symmetrizer kernel dimension
    equals ideal_dims[n] for n <= 3."""
    if payload is None:
        return [False] * count
    records = payload["result"]["specs"]
    expect = golden["specs"].get(str(spec_seed))
    oks = []
    for i, rec in enumerate(records):
        ok = rec is not None
        if ok and expect is not None:
            ok = {k: rec[k] for k in ("verdict", "gk", "dims")} == expect[i]
        if ok:
            L = rec["letters"]
            ok = all(d + e == L ** n for n, (d, e) in
                     enumerate(zip(rec["dims"], rec["ideal_dims"])))
        if ok and kernels is not None:
            ok = kernels[i] == rec["ideal_dims"][:len(kernels[i])]
        oks.append(ok)
    return oks + [False] * (count - len(records))


# ---------------------------------------------------------------------------
# one measured execution of a workload, with its checks


class Workload:
    def __init__(self, name, runner, golden, seed):
        self.name = name
        self.spec = WORKLOADS[name]
        self.runner = runner
        self.golden = golden[name]
        self.seed = seed
        self.parts = 0  # sweep children started, for their spec seeds
        self.sweep_checks = []  # (payload, spec_seed), checked after timing

    def _spec_seed(self):
        return SWEEP_PART_SEEDS * self.seed + self.parts

    def setup(self):
        """One cut-down child: it must exit 0 with the golden output."""
        if "cli" in self.spec:
            child = self.runner.cli(self.spec["setup"])
            ok = child.rc == 0 and \
                sha256(child.stdout) == self.golden["setup_stdout_sha256"]
        else:
            child = self.runner.driver(self.spec["setup"])
            payload = child.payload()
            ok = payload is not None and not payload["errors"] and \
                sha256(canonical(payload["result"])) == \
                self.golden["setup_result_sha256"]
        return child, ok

    def run(self, trace=None):
        """One full child; returns it with per-operation (seconds, ok) pairs,
        ok None for sweep specs, which are checked in ``finish``."""
        if "cli" in self.spec:
            if trace is None:
                child = self.runner.cli(self.spec["cli"])
                stdout, rc = child.stdout, child.rc
            else:
                child = self.runner.driver(["cli", "--"] + self.spec["cli"],
                                           trace)
                payload = child.payload()
                stdout = payload["result"]["stdout"] if payload else ""
                rc = payload["result"]["rc"] if payload else child.rc
            oks = check_cli(self.golden, stdout, rc)
            return child, [(child.wall, ok) for ok in oks]
        args = list(self.spec["driver"])
        if self.name == "sweep-zeta12":
            args += ["--seed", str(self._spec_seed())]
        child = self.runner.driver(args, trace)
        payload = child.payload()
        times = payload["times"] if payload else []
        if self.name == "member-overshoot":
            oks = check_member(self.golden, payload)
        else:
            self.sweep_checks.append((payload, self._spec_seed()))
            self.parts += 1
            oks = [None] * max(len(times), self.golden["count"])
        times = times + [child.wall] * (len(oks) - len(times))
        return child, list(zip(times, oks))

    def finish(self, ops):
        """Run the untimed sweep checks and fill in their verdicts."""
        if not self.sweep_checks:
            return ops
        seeds = [s for _, s in self.sweep_checks]
        oracle = self.runner.driver(["oracle", "--seeds"] +
                                    [str(s) for s in seeds])
        payload = oracle.payload()
        kernels = payload["result"]["kernel_dims"] if payload else \
            [None] * len(seeds)
        verdicts = []
        for (part, spec_seed), kern in zip(self.sweep_checks, kernels):
            oks = check_sweep(self.golden, part, spec_seed, kern,
                              self.golden["count"])
            if kern is None:
                oks = [False] * len(oks)
            verdicts.extend(oks)
        it = iter(verdicts)
        return [(t, next(it) if ok is None else ok) for t, ok in ops]


# ---------------------------------------------------------------------------
# metrics


def quartile3(values):
    """Third quartile, interpolated between samples (two runs of a 10 s
    child give two samples, which the default method would extrapolate)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def reference_time(runner):
    """Seconds the reference computation (``driver.py reference``) takes in
    a child, as that child timed it."""
    child = runner.driver(["reference"])
    payload = child.payload()
    return payload["result"]["seconds"] if payload else child.wall


def measure(wl, seconds):
    """End-to-end metrics, children untraced.

    The machine's speed drifts by tens of percent over tens of seconds (other
    tenants share its cores), so times are scaled to a reference speed: a
    reference child runs before the set-up children and between measured
    children, and each child's times are multiplied by REFERENCE_S / (mean
    of the reference times on either side of it).
    """
    refs = [reference_time(wl.runner)]
    setup = [wl.setup() for _ in range(SETUP_PROBES)]
    refs.append(reference_time(wl.runner))
    setup_scale = 2 * REFERENCE_S / (refs[0] + refs[1])
    children, ops = [], []
    t0 = perf_counter()
    while True:
        child, child_ops = wl.run()
        refs.append(reference_time(wl.runner))
        scale = 2 * REFERENCE_S / (refs[-2] + refs[-1])
        children.append((child, scale))
        ops.extend((t * scale, ok) for t, ok in child_ops)
        elapsed = perf_counter() - t0
        typical = statistics.median(c.wall for c, _ in children)
        if len(children) >= MIN_CHILDREN and elapsed + typical > seconds:
            break
        if perf_counter() + typical > wl.runner.deadline - 10:
            break
    ops = wl.finish(ops)
    times = [t for t, _ in ops]
    metrics = {
        "wall_s": (statistics.median(c.wall * k for c, k in children), "s"),
        "cpu_s": (statistics.median(c.cpu * k for c, k in children), "s"),
        "setup_s": (statistics.median(c.wall for c, _ in setup)
                    * setup_scale, "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c, _ in children),
                        "MB"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_p75": (quartile3(times), "s"),
    }
    samples = {
        "children": len(children), "operations": len(ops),
        "setup_probes": len(setup),
        "reference_s": refs,
        "unscaled_wall_s": statistics.median(c.wall for c, _ in children),
        "unscaled_setup_s": statistics.median(c.wall for c, _ in setup),
    }
    return metrics, ops, all(ok for _, ok in setup), samples


LAYER_UNITS = {
    "nichols.truncation_share": "ratio",
    "freealgebra.skew_derivation_calls": "count",
    "freealgebra.act_on_word_calls": "count",
    "scalars.mul_calls": "count", "scalars.add_calls": "count",
    "scalars.inv_calls": "count", "weyl.calls": "count",
}
TRACE_DEGREES = range(2, 7)


def _span_sums(spans):
    """Total and longest duration per span name; nested spans of the same
    name (a parse inside a parse) count once, at the outermost."""
    total, longest = {}, {}
    for span in spans:
        name, parent = span["name"], span["parent"]
        while parent >= 0 and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent >= 0:
            continue
        d = span["end"] - span["start"]
        total[name] = total.get(name, 0.0) + d
        longest[name] = max(longest.get(name, 0.0), d)
    return total, longest


def layer_metrics(trace_file, traced, untraced, microbench):
    data = json.loads(trace_file.read_text(encoding="utf-8"))
    spans, counts = data["spans"], data["counts"]
    total, longest = _span_sums(spans)
    root = sum(v for k, v in total.items() if k.startswith("driver."))
    extend = sum(v for k, v in total.items()
                 if k.startswith("nichols.extend.d"))
    m = {f"nichols.extend_s.d{n}": total.get(f"nichols.extend.d{n}", 0.0)
         for n in TRACE_DEGREES}
    m.update({
        "nichols.truncation_share": extend / root,
        "nichols.member_s": total.get("nichols.member", 0.0),
        "nichols.member_s.max": longest.get("nichols.member", 0.0),
        "freealgebra.skew_derivation_calls": sum(
            s["name"] == "freealgebra.skew_derivation" for s in spans),
        "freealgebra.skew_derivation_s":
            total.get("freealgebra.skew_derivation", 0.0),
        "freealgebra.act_on_word_calls":
            counts.get("freealgebra.act_on_word", 0),
        "freealgebra.parse_s": total.get("freealgebra.parse", 0.0),
        "scalars.mul_calls": counts.get("scalars.mul_calls", 0),
        "scalars.add_calls": counts.get("scalars.add_calls", 0),
        "scalars.inv_calls": counts.get("scalars.inv_calls", 0),
        "catalog.instantiate_s": total.get("catalog.instantiate", 0.0),
        "braidings.spec_from_json_s":
            total.get("braidings.spec_from_json", 0.0),
        "braidings.spec_build_s": total.get("braidings.spec_build", 0.0),
        "flourished.classify_s": total.get("flourished.classify", 0.0),
        "weyl.calls": counts.get("weyl.calls", 0),
        "cli.import_s": total["cli.import"],
        "cli.overhead_s": traced.wall - root,
        "trace.total_s": root,
        "trace.overhead_s": traced.wall - untraced.wall,
    })
    m.update(microbench)
    units = {k: LAYER_UNITS.get(k, "us" if "_us." in k else "s") for k in m}
    return {k: (v, units[k]) for k, v in m.items()}


def trace_run(wl, root):
    """Per-layer metrics: one untraced child, one traced, a microbench."""
    untraced, ops = wl.run()
    wl.parts = 0  # the traced child gets the same sweep specs
    trace_file = OUT / f"spans-{wl.name}-{wl.seed}-{os.getpid()}.json"
    traced, traced_ops = wl.run(trace=trace_file)
    ops = wl.finish(ops + traced_ops)
    bench = wl.runner.driver(["microbench", "--seed", str(wl.seed)])
    payload = bench.payload()
    ok = traced.rc == 0 and payload is not None and trace_file.exists()
    if not ok:
        return None, ops, False, {}
    metrics = layer_metrics(trace_file, traced, untraced,
                            payload["result"]["microbench"])
    return metrics, ops, True, {"spans_file": str(trace_file.relative_to(
        root))}


# ---------------------------------------------------------------------------


def run_metadata(root, runner, args):
    probe = runner.spawn([sys.executable, "-c",
                          "import gknichols.cli, gknichols.scalars as s; "
                          "print(s._Q.__module__)"])
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "gknichols").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "scalar_backend": probe.stdout.strip() if probe.rc == 0 else None,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }, probe.rc == 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--golden", type=Path, default=BENCH / "golden.json",
                        help="golden outputs (the self-test passes a "
                             "tampered copy)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gknichols" / "cli.py").is_file():
        print("bench/run.py: run from the root of a gknichols checkout "
              "(src/gknichols not found)", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    golden = json.loads(args.golden.read_text(encoding="utf-8"))
    runner = Runner(root, perf_counter() + RUN_LIMIT_S)
    # the probe also compiles the package's bytecode before anything is timed
    meta, probe_ok = run_metadata(root, runner, args)
    wl = Workload(args.workload, runner, golden, args.seed)
    if args.trace:
        metrics, ops, ok, samples = trace_run(wl, root)
    else:
        metrics, ops, ok, samples = measure(wl, args.seconds)
    failed = sum(not good for _, good in ops)
    meta.update(samples, fail_frac=failed / len(ops) if ops else 1.0)
    correct = ok and probe_ok and metrics is not None and failed == 0
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in (metrics or {}).items()},
    }
    record = dict(meta=meta, **result)
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json") \
        .write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
