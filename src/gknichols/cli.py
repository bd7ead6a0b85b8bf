"""Command-line interface: JSON specs in, deterministic reports out.

Subcommands mirror the library: ``classify``, ``flourish`` (with DOT
export), ``dims``, ``member``, ``verify``, ``reflect``, ``probe`` and
``catalog``.  Data goes to stdout, progress to stderr: ``dims`` and
``member`` write a line per degree, ``verify`` one per relation, and with
``--stats`` the four commands that truncate (``dims``, ``member``,
``verify``, ``probe``) write each degree's ``NicholsTruncation.stats``
record as a JSON line.  Exit codes: 0 on success, 2 when a verification
FAILs, 1 on any error.

Each subcommand imports the modules that only it uses (``catalog``,
``flourished``, ``weyl``) when it runs, so ``dims``, ``member`` and
``probe`` load the truncation engine and nothing else.
"""

from __future__ import annotations

import argparse
import json
import sys

from .braidings import diagonal_from_json, spec_from_json, spec_to_json
from .freealgebra import expression_degree, parse_element, print_element
from .nichols import (DEFAULT_BUDGET, Presentation, compute_truncation,
                      infinite_probe, is_zero_in_nichols, verify_presentation)
from .scalars import GKNicholsError, print_scalar

_ERRORS = (GKNicholsError, OSError, ValueError, KeyError)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors (2 is reserved for FAIL)."""

    def error(self, message):
        print(f"gknichols: error: {message}", file=sys.stderr)
        sys.exit(1)


def _nonnegative(text):
    """argparse type: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return value


def _emit(obj):
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _progress(msg):
    print(msg, file=sys.stderr)


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_spec(path):
    return spec_from_json(_load_json(path))


def _parse_params(items):
    """Entry parameters from ``--params`` tokens: one JSON object or
    repeated key=value pairs (values JSON-decoded when possible)."""
    params = {}
    for item in items:
        if item.lstrip().startswith("{"):
            params.update(json.loads(item))
            continue
        if "=" not in item:
            raise ValueError(f"bad parameter {item!r}: expected key=value")
        key, _, raw = item.partition("=")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _verdict_json(v):
    from .flourished import FiniteGK, InfiniteGK, Unknown
    if isinstance(v, FiniteGK):
        return {
            "verdict": "finite",
            "gk": v.gk,
            "decomposition": [{"component": list(comp), "entry": entry,
                               "gk": gk} for comp, entry, gk in
                              v.decomposition],
            "is_domain": v.is_domain,
            "conjecture_dependent": False,
            "violations": [],
        }
    if isinstance(v, InfiniteGK):
        return {
            "verdict": "infinite",
            "gk": None,
            "decomposition": [],
            "is_domain": False,
            "conjecture_dependent": v.conjecture_dependent,
            "violations": [{"code": r.code, "detail": r.detail,
                            "conjecture_dependent": r.conjecture_dependent}
                           for r in v.reasons],
        }
    if isinstance(v, Unknown):
        return {"verdict": "unknown", "reason": v.reason}
    raise ValueError(f"unrecognized verdict {v!r}")


def _pbw_json(pbw):
    """Serialize (label, degree, height) triples; infinite height -> 0."""
    return [{"label": label, "degree": degree,
             "height": 0 if height is None else height}
            for label, degree, height in pbw]


def _presentation_json(p: Presentation):
    return {
        "name": p.name,
        "params": p.params,
        "gk": p.gk,
        "is_domain": p.is_domain,
        "macros": dict(p.macros),
        "relations": list(p.relations),
        "pbw": _pbw_json(p.pbw),
    }


def _presentation_from_json(obj) -> Presentation:
    """A Presentation from its JSON object, every field checked before use:
    a bad one raises a one-line ValueError naming it and its value."""
    def check(ok, field, what, value):
        if not ok:
            raise ValueError(f"presentation: {field} must be {what}, "
                             f"got {json.dumps(value)}")

    check(isinstance(obj, dict), "the top level", "an object", obj)
    relations, pbw = obj.get("relations"), obj.get("pbw")
    macros, params = obj.get("macros", {}), obj.get("params", {})
    check(isinstance(relations, list)
          and all(isinstance(r, str) for r in relations),
          "relations", "a list of strings", relations)
    check(isinstance(macros, dict)
          and all(isinstance(m, str) for m in macros.values()),
          "macros", "an object of strings", macros)
    check(isinstance(params, dict), "params", "an object", params)
    check(isinstance(pbw, list), "pbw", "a list", pbw)
    generators = []
    for i, entry in enumerate(pbw):
        if isinstance(entry, dict):
            entry = [entry.get(key) for key in ("label", "degree", "height")]
        check(isinstance(entry, list) and len(entry) == 3, f"pbw[{i}]",
              "[label, degree, height] or {label, degree, height}", entry)
        label, degree, height = entry
        # a bool is not an int here
        check(isinstance(label, str), f"pbw[{i}] label", "a string", label)
        check(type(degree) is int and degree >= 1, f"pbw[{i}] degree",
              "an integer >= 1", degree)
        check(type(height) is int and height >= 0, f"pbw[{i}] height",
              "an integer >= 0 (0 for infinite)", height)
        generators.append((label, degree, height or None))
    return Presentation(
        name=obj.get("name", "presentation"),
        relations=relations,
        pbw=generators,
        macros=macros,
        is_domain=bool(obj.get("is_domain", False)),
        params=params,
    )


def _graph_json(g):
    from .flourished import is_admissible
    out = {
        "blocks": [{"index": k + 1, "sign": g.signs[k]}
                   for k in range(g.t)],
        "points": [{"index": j, "label": print_scalar(g.label(j))}
                   for j in range(g.t + 1, g.theta + 1)],
        "block_point_edges": [
            {"block": k, "point": j, "ghost": str(data["ghost"]),
             "mild": data["mild"], "strong": data["strong"]}
            for (k, j), data in sorted(g.block_point.items())],
        "point_point_edges": [
            {"points": [a, b], "qtilde": print_scalar(qt)}
            for (a, b), qt in sorted(g.point_point.items())],
    }
    violations = is_admissible(g)
    out["admissible"] = not violations
    out["violations"] = [{"code": v.code, "detail": v.detail,
                          "conjecture_dependent": v.conjecture_dependent}
                         for v in violations]
    return out


def _graded_truncation(spec, max_degree, budget, stats=False):
    """Extend degree by degree so progress can be streamed: one line per
    degree, the degree's ``stats`` record as JSON when ``stats`` is set."""
    trunc = compute_truncation(spec, 0, budget)
    for n in range(max_degree + 1):
        trunc.extend(n)
        _progress(json.dumps(trunc.stats[n]) if stats
                  else f"degree {n}: dim {trunc.dims[n]}")
    return trunc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args):
    from .flourished import classify
    spec = _load_spec(args.spec)
    _emit(_verdict_json(classify(spec)))
    return 0


def _cmd_flourish(args):
    from .flourished import build_flourished
    spec = _load_spec(args.spec)
    g = build_flourished(spec)
    _emit(_graph_json(g))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(g.to_dot() + "\n")
    return 0


def _cmd_dims(args):
    spec = _load_spec(args.spec)
    trunc = _graded_truncation(spec, args.max_degree, args.budget,
                               args.stats)
    _emit(trunc.dims[: args.max_degree + 1])
    return 0


def _cmd_member(args):
    spec = _load_spec(args.spec)
    degree = expression_degree(args.element, spec)
    e = parse_element(args.element, spec)
    trunc = _graded_truncation(spec, degree, args.budget, args.stats)
    zero, witness = is_zero_in_nichols(e, trunc)
    _emit({"element": args.element, "degree": degree, "zero": zero,
           "witness": None if witness is None else print_element(witness)})
    return 0


def _cmd_verify(args):
    if args.name:
        from . import catalog
        params = _parse_params(args.params or [])
        spec, pres = catalog.instantiate(args.name, params)
    else:
        if not args.spec or not args.presentation:
            raise ValueError(
                "verify needs --name <entry> or <spec.json> --presentation")
        spec = _load_spec(args.spec)
        pres = _presentation_from_json(_load_json(args.presentation))
    trunc = (_graded_truncation(spec, args.max_degree, args.budget, True)
             if args.stats else None)
    report = verify_presentation(pres, spec, args.max_degree, args.budget,
                                 progress=_progress, trunc=trunc)
    report["pbw"] = _pbw_json(pres.pbw)
    _emit(report)
    return 0 if report["pass"] else 2


def _cmd_reflect(args):
    from .weyl import reflect
    d = diagonal_from_json(_load_json(args.diagonal))
    r = reflect(d, args.vertex)
    _emit({"ring": {"cyclotomic_order": r.ring.cyclotomic_order,
                    "params": list(r.ring.params)},
           "q": [[print_scalar(v) for v in row] for row in r.matrix]})
    return 0


def _cmd_probe(args):
    spec = _load_spec(args.spec)
    i = spec.letter(args.i).idx
    j = spec.letter(args.j).idx
    trunc = (_graded_truncation(spec, args.max_degree, args.budget, True)
             if args.stats else None)
    report = infinite_probe(spec, i, j, args.count, args.max_degree,
                            args.budget, trunc=trunc)
    _emit(report)
    return 0


def _cmd_catalog(args):
    from . import catalog
    if args.action == "list":
        for name in catalog.list_entries():
            print(name)
        return 0
    if not args.name:
        raise ValueError("catalog show needs an entry name")
    params = _parse_params(args.params or [])
    spec, pres = catalog.instantiate(args.name, params)
    out = _presentation_json(pres)
    out["spec"] = spec_to_json(spec)
    _emit(out)
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_budget(p):
    p.add_argument("--budget", type=_nonnegative, default=DEFAULT_BUDGET,
                   help="cap on the candidate words of one degree, "
                        "dims[n-1] * letters (default 10^6)")


def _add_stats(p):
    p.add_argument("--stats", action="store_true",
                   help="write each degree's statistics as a JSON line on "
                        "stderr")


def build_parser() -> _Parser:
    parser = _Parser(prog="gknichols",
                     description="Finite GK-dimension Nichols algebra "
                                 "toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a braided space spec")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("flourish", help="decorated graph of a spec")
    p.add_argument("spec")
    p.add_argument("--dot", help="write a DOT file")
    p.set_defaults(func=_cmd_flourish)

    p = sub.add_parser("dims", help="graded dimensions of the Nichols "
                                    "algebra")
    p.add_argument("spec")
    p.add_argument("--max-degree", type=_nonnegative, required=True)
    _add_stats(p)
    _add_budget(p)
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("member", help="test an element for ideal membership")
    p.add_argument("spec")
    p.add_argument("--element", required=True)
    _add_stats(p)
    _add_budget(p)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("verify", help="verify a presentation degree by "
                                      "degree")
    p.add_argument("spec", nargs="?")
    p.add_argument("--name", help="catalog entry name")
    p.add_argument("--params", action="append",
                   help="entry parameters: JSON object or key=value")
    p.add_argument("--presentation", help="presentation JSON file")
    p.add_argument("--max-degree", type=_nonnegative, required=True)
    _add_stats(p)
    _add_budget(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reflect", help="reflect a diagonal braiding at a "
                                       "vertex")
    p.add_argument("diagonal")
    p.add_argument("--vertex", type=int, required=True)
    p.set_defaults(func=_cmd_reflect)

    p = sub.add_parser("probe", help="evidence probe for infinite GK")
    p.add_argument("spec")
    p.add_argument("--i", required=True, help="letter name, e.g. x1")
    p.add_argument("--j", required=True, help="letter name, e.g. x2")
    p.add_argument("--count", type=_nonnegative, default=4)
    p.add_argument("--max-degree", type=_nonnegative, required=True)
    _add_stats(p)
    _add_budget(p)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("catalog", help="browse the presentation catalog")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.add_argument("--params", action="append",
                   help="entry parameters: JSON object or key=value")
    p.set_defaults(func=_cmd_catalog)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"gknichols: error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
