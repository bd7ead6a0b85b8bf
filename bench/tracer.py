"""In-memory spans and call counts around calls into ``gknichols``.

The benchmark's traced child installs these wrappers from outside the
package: module-level functions are replaced in every ``gknichols`` module
that imported them, methods are replaced on their class.  Spans are kept in
memory and written once, when the child ends.
"""

import json
import sys
from time import perf_counter


class Tracer:
    """Spans ``[name, start, end, parent]`` of one run, plus call counters."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self.counts = {}

    def add_span(self, name, start, end):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent])

    def timed(self, name, fn):
        """``fn`` wrapped so that each call records one span."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    def counted(self, key, fn):
        """``fn`` wrapped so that each call adds one to ``counts[key]``;
        no timer, so the wrapper stays cheap on hot paths."""
        cell = self.counts.setdefault(key, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def patch_function(self, module, attr, name, count_only=False):
        """Replace ``module.attr`` wherever a ``gknichols`` module holds it."""
        orig = getattr(module, attr)
        wrapped = self.counted(name, orig) if count_only \
            else self.timed(name, orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "gknichols" and \
                    getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapped)

    def patch_method(self, cls, attr, name, count_only=False):
        orig = cls.__dict__[attr]
        setattr(cls, attr, self.counted(name, orig) if count_only
                else self.timed(name, orig))

    def write(self, path):
        spans = [{"name": n, "start": s, "end": e, "parent": p,
                  "run": self.run_id} for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": spans,
                       "counts": {k: v[0] for k, v in self.counts.items()}},
                      fh)


def install(tracer):
    """Wrap the public entry points of each layer of ``gknichols``."""
    from gknichols import (braidings, catalog, cli, flourished, freealgebra,
                           nichols, scalars, weyl)

    truncation = nichols.NicholsTruncation
    extend = truncation.extend
    per_degree = {}

    def extend_by_degree(self, max_degree):
        # one span per degree, so that d{n} is comparable across workloads
        # whether the caller extends degree by degree (the CLI) or at once
        for n in range(self.max_degree + 1, max_degree + 1):
            step = per_degree.get(n)
            if step is None:
                step = per_degree[n] = tracer.timed(f"nichols.extend.d{n}",
                                                    extend)
            step(self, n)

    truncation.extend = extend_by_degree
    tracer.patch_function(nichols, "is_zero_in_nichols", "nichols.member")
    tracer.patch_function(nichols, "verify_presentation", "nichols.verify")
    tracer.patch_function(freealgebra, "skew_derivation",
                          "freealgebra.skew_derivation")
    tracer.patch_function(freealgebra, "act_on_word",
                          "freealgebra.act_on_word", count_only=True)
    tracer.patch_function(freealgebra, "parse_element", "freealgebra.parse")
    tracer.patch_function(freealgebra, "expression_degree",
                          "freealgebra.parse")
    tracer.patch_function(catalog, "instantiate", "catalog.instantiate")
    tracer.patch_function(braidings, "spec_from_json",
                          "braidings.spec_from_json")
    tracer.patch_method(braidings.BraidedSpaceSpec, "__init__",
                        "braidings.spec_build")
    tracer.patch_function(flourished, "classify", "flourished.classify")
    for attr in ("dynkin", "match_table_pattern", "classify_cartan",
                 "reflect"):
        tracer.patch_function(weyl, attr, "weyl.calls", count_only=True)
    tracer.patch_function(cli, "run", "cli.run")
    scalar = scalars.Scalar
    for attr, key in (("__mul__", "scalars.mul_calls"),
                      ("__rmul__", "scalars.mul_calls"),
                      ("__add__", "scalars.add_calls"),
                      ("__radd__", "scalars.add_calls"),
                      ("inverse", "scalars.inv_calls")):
        tracer.patch_method(scalar, attr, key, count_only=True)
