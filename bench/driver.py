"""Child program of the benchmark: runs one library workload in-process.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 bench/driver.py member [--setup]
    python3 bench/driver.py sweep --seed N [--count K]
    python3 bench/driver.py oracle --seeds N [N ...] [--count K]
    python3 bench/driver.py microbench --seed N
    python3 bench/driver.py reference
    python3 bench/driver.py cli -- <gknichols arguments>

``--trace SPANS.json`` (before the mode) wraps each layer's public
functions, runs the mode and writes the spans when it ends.  The last line
of stdout is one JSON object: ``result`` (deterministic, checked against the
goldens), ``times`` (seconds per operation) and ``errors``.
"""

import argparse
import contextlib
import io
import itertools
import json
import random
from fractions import Fraction
from time import perf_counter

MEMBER_ENTRY = "lstr(A2,2)"
MEMBER_TRUNCATION = 5
MEMBER_DEGREES = (6, 10)

SWEEP_ORDER = 12
SWEEP_DEGREE = 4
SWEEP_COUNT = 40
# (blocks, points) shapes of tests/test_acceptance.py::_random_spec, taken
# in turn rather than drawn, so that every seed has the same mix of 2, 3 and
# 4 letter specs and per-seed run times stay comparable.
SWEEP_SHAPES = ((1, 0), (1, 1), (1, 2), (0, 2), (0, 3))
ORACLE_DEGREE = 3


def sweep_inputs(seed, count):
    """Block+point specs over Q(zeta_12), as exponents of zeta_12.

    Same family as ``_random_spec`` in the acceptance tests: 0-1 blocks of
    length 2 with sign +-1, point labels and off-diagonal q entries powers
    of zeta_12, and a_{jk} in {0, 0, 1, -1}.
    """
    rng = random.Random(seed)
    out = []
    for n in range(count):
        nblocks, npoints = SWEEP_SHAPES[n % len(SWEEP_SHAPES)]
        theta = nblocks + npoints
        signs = [rng.choice(["1", "-1"]) for _ in range(nblocks)]
        points = [rng.randrange(SWEEP_ORDER) for _ in range(npoints)]
        qmat = [[None if i == j else rng.randrange(SWEEP_ORDER)
                 for j in range(theta)] for i in range(theta)]
        avals = {f"{j},{k}": rng.choice(["0", "0", "1", "-1"])
                 for j in range(nblocks + 1, theta + 1)
                 for k in range(1, nblocks + 1)}
        out.append((signs, points, qmat, avals))
    return out


def _spec_args(ring, raw, zeta):
    signs, points, qpow, avals = raw
    diag = signs + [zeta[p] for p in points]
    qmat = [[diag[i] if e is None else zeta[e] for i, e in enumerate(row)]
            for row in qpow]
    return ring, [(s, 2) for s in signs], [zeta[p] for p in points], qmat, \
        avals


def _verdict(v):
    return {"verdict": type(v).__name__, "gk": getattr(v, "gk", None)}


def run_member(setup):
    from gknichols import catalog, freealgebra, nichols
    spec, pres = catalog.instantiate(MEMBER_ENTRY, {})
    trunc = nichols.compute_truncation(spec, 1 if setup else MEMBER_TRUNCATION)
    macros = dict(pres.macros)
    relations, times, errors = [], [], []
    lo, hi = MEMBER_DEGREES
    for rel in [] if setup else pres.relations:
        degree = freealgebra.expression_degree(rel, spec, macros)
        if not lo <= degree <= hi:
            continue
        t0 = perf_counter()
        element = freealgebra.parse_element(rel, spec, macros)
        zero, _ = nichols.is_zero_in_nichols(element, trunc)
        times.append(perf_counter() - t0)
        relations.append({"relation": rel, "degree": degree, "zero": zero})
    return {"entry": MEMBER_ENTRY, "dims": trunc.dims,
            "relations": relations}, times, errors


def run_sweep(seed, count):
    from gknichols import ScalarRing, braidings, flourished, nichols
    from gknichols.scalars import print_scalar
    ring = ScalarRing(SWEEP_ORDER)
    zeta = [print_scalar(ring.zeta(k)) for k in range(SWEEP_ORDER)]
    specs, times, errors = [], [], []
    for i, raw in enumerate(sweep_inputs(seed, count)):
        args = _spec_args(ring, raw, zeta)
        t0 = perf_counter()
        try:
            spec = braidings.BraidedSpaceSpec(*args)
            verdict = flourished.classify(spec)
            trunc = nichols.compute_truncation(spec, SWEEP_DEGREE)
        except Exception as exc:  # reported as a failed operation
            times.append(perf_counter() - t0)
            specs.append(None)
            errors.append(f"spec {i}: {type(exc).__name__}: {exc}")
            continue
        times.append(perf_counter() - t0)
        specs.append(dict(_verdict(verdict), letters=spec.nletters,
                          dims=trunc.dims, ideal_dims=trunc.ideal_dims))
    return {"seed": seed, "specs": specs}, times, errors


def run_oracle(seeds, count):
    """Dimensions of the quantum symmetrizer kernel in degrees 0..3, per
    spec, for the specs of each seed."""
    from gknichols import ScalarRing, braidings, nichols
    from gknichols.scalars import print_scalar
    ring = ScalarRing(SWEEP_ORDER)
    zeta = [print_scalar(ring.zeta(k)) for k in range(SWEEP_ORDER)]
    kernels = []
    for seed in seeds:
        per_spec = []
        for raw in sweep_inputs(seed, count):
            spec = braidings.BraidedSpaceSpec(*_spec_args(ring, raw, zeta))
            per_spec.append([0, 0] + [
                len(nichols.quantum_symmetrizer_kernel(spec, n))
                for n in range(2, ORACLE_DEGREE + 1)])
        kernels.append(per_spec)
    return {"kernel_dims": kernels}, [], []


def _operands(ring, kind, rng, count):
    frac = lambda: ring.from_rational(rng.choice([-1, 1]) * rng.randint(1, 99),
                                      rng.randint(1, 99))
    out = []
    for _ in range(count):
        if kind == "q":
            out.append(frac())
        elif kind == "c12":
            out.append(sum((frac() * ring.zeta(k) for k in range(ring.phi)),
                           ring.zero()))
        else:
            r = ring.param("r")
            out.append((frac() + frac() * r) / (frac() + frac() * r))
    return out


def run_microbench(seed):
    """Median microseconds per mul, add and inverse for each scalar kind."""
    from gknichols import ScalarRing
    rng = random.Random(seed)
    rings = {"q": ScalarRing(1), "c12": ScalarRing(12),
             "f": ScalarRing(1, ("r",))}
    ops = {"mul": lambda a, b: a * b, "add": lambda a, b: a + b,
           "inv": lambda a, b: a.inverse()}
    result = {}
    for kind, ring in rings.items():
        xs = _operands(ring, kind, rng, 32)
        pairs = list(zip(xs, xs[1:] + xs[:1]))
        for op_name, op in ops.items():
            reps, batches = 1, []
            while len(batches) < 5:
                t0 = perf_counter()
                for _ in range(reps):
                    for a, b in pairs:
                        op(a, b)
                dt = perf_counter() - t0
                if dt < 0.02 and not batches:
                    reps *= 2
                    continue
                batches.append(dt / (reps * len(pairs)) * 1e6)
            batches.sort()
            result[f"scalars.{op_name}_us.{kind}"] = batches[2]
    return {"microbench": result}, [], []


def run_reference():
    """A fixed pure-Python computation that does not use gknichols: Fraction
    arithmetic into a dict keyed by tuples, the pattern of the engine's hot
    loop.  Its time measures the machine's current speed."""
    t0 = perf_counter()
    acc = {}
    third = Fraction(1, 3)
    for w in itertools.product(range(5), repeat=7):
        key = w[1:]
        acc[key] = acc.get(key, 0) + Fraction(w[0] + 1, w[-1] + 2) * third
    return {"seconds": perf_counter() - t0}, [], []


def run_cli(argv):
    from gknichols import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return {"rc": rc, "stdout": out.getvalue()}, [], []


def main(argv=None):
    parser = argparse.ArgumentParser(prog="driver.py")
    parser.add_argument("--trace", metavar="SPANS_JSON")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("mode", choices=["member", "sweep", "oracle",
                                         "microbench", "reference", "cli"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--count", type=int, default=SWEEP_COUNT)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("cli_args", nargs="*")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer, install
        t0 = perf_counter()
        import gknichols.cli  # noqa: F401  (timed as cli.import_s)
        tracer = Tracer(args.run_id)
        tracer.add_span("cli.import", t0, perf_counter())
        install(tracer)

    runners = {
        "member": lambda: run_member(args.setup),
        "sweep": lambda: run_sweep(args.seed, args.count),
        "oracle": lambda: run_oracle(args.seeds, args.count),
        "microbench": lambda: run_microbench(args.seed),
        "reference": run_reference,
        "cli": lambda: run_cli(args.cli_args),
    }
    run = runners[args.mode]
    if tracer is not None:
        run = tracer.timed(f"driver.{args.mode}", run)
    result, times, errors = run()
    if tracer is not None:
        tracer.write(args.trace)
    print(json.dumps({"result": result, "times": times, "errors": errors}))


if __name__ == "__main__":
    main()
