"""Span recorder for the traced run.

`install` wraps the package's public functions from outside: every
`roughtop.*` namespace that holds a reference to one of them gets the
wrapper instead, so calls made inside the package are seen too.  Each
call records one span (name, start, end, parent span, operation id);
spans stay in memory until `dump`.  Work counters are computed at the
boundary from arguments and results, never read from inside the
package.  roughtop is single-threaded with no queues, so no layer
waits on another and no wait time is recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "parser", "report", "approx", "groups", "topology", "trg",
          "actions", "homs")

TRACED = {
    "cli": ("main",),
    "parser": ("parse_spec",),
    "report": ("serialize_report",),
    "approx": ("upper_approx",),
    "groups": ("verify_rough_group", "verify_rough_subgroup",
               "enumerate_rough_subgroups", "verify_rough_homomorphism"),
    "topology": ("generate_topology", "product_topology", "enumerate_topologies",
                 "verify_topology", "is_continuous", "subspace_topology", "closure"),
    "trg": ("verify_trg", "find_symmetric_square_nbhd",
            "check_open_iff_inverse_open"),
    "actions": ("is_rough_homogeneous", "verify_rough_action"),
    "homs": ("verify_trg_homomorphism", "verify_trg_homeomorphism"),
}


def _verify_trg(args, kwargs, result):
    report, cert = result
    stats = dict(report.stats)
    mode = args[2] if len(args) > 2 else kwargs.get("codomain_topology", "upper")
    relative = mode == "relative"
    cod = stats["tau-G-opens" if relative else "tau-opens"]
    return {"passes": cert is not None,
            "pairs_scanned": args[0].g_mask.bit_count() ** 2 * cod}


def _relations(carrier: int) -> int:
    n = carrier.bit_count()
    return 2 ** (n * n - n)


# computed counters: function -> f(args, kwargs, result) -> {counter: increment}
COUNTERS = {
    "topology.generate_topology": lambda a, k, r: {"opens_out": len(r.opens)},
    "topology.product_topology": lambda a, k, r: {
        "carrier_points": r.carrier.bit_count()},
    "topology.enumerate_topologies": lambda a, k, r: {
        "topologies_out": len(r), "relations_scanned": _relations(a[1])},
    "trg.verify_trg": _verify_trg,
    "topology.verify_topology": lambda a, k, r: {
        "pairs": math.comb(len(set(a[2])), 2)},
    "topology.is_continuous": lambda a, k, r: {"opens_pulled_back": len(a[2].opens)},
    "actions.is_rough_homogeneous": lambda a, k, r: {
        "bijections": math.factorial(a[0].upper_x.bit_count())},
    "parser.parse_spec": lambda a, k, r: {"bytes": len(a[0].encode())},
    "report.serialize_report": lambda a, k, r: {"bytes": len(r)},
    "groups.verify_rough_group": lambda a, k, r: {
        "assoc_triples": dict(r[0].stats).get("upper-size", 0) ** 3},
}

# every counter, reported (as 0 when never reached) on every workload
COUNTER_NAMES = (
    "topology.generate_topology.opens_out",
    "topology.product_topology.carrier_points",
    "topology.enumerate_topologies.topologies_out",
    "topology.enumerate_topologies.relations_scanned",
    "trg.verify_trg.pairs_scanned",
    "topology.verify_topology.pairs",
    "topology.is_continuous.opens_pulled_back",
    "actions.is_rough_homogeneous.bijections",
    "parser.parse_spec.bytes",
    "report.serialize_report.bytes",
    "groups.verify_rough_group.assoc_triples",
)


class Recorder:
    """In-memory spans: [name, start, end, parent index, operation id]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = 0
        self.counters = defaultdict(int)

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                for key, inc in count(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += inc
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def install(recorder: Recorder):
    """Rebind every traced function in every roughtop namespace; returns
    a callable that puts the originals back."""
    undo = []
    for layer, names in TRACED.items():
        module = importlib.import_module(f"roughtop.{layer}")
        for fname in names:
            original = getattr(module, fname)
            wrapper = recorder.wrap(f"{layer}.{fname}", original)
            for mname, mod in list(sys.modules.items()):
                if mname != "roughtop" and not mname.startswith("roughtop."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))

    def restore():
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)

    return restore


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.
    Spans on one thread nest, so children never overlap each other."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(recorder: Recorder, wall_traced: float, wall_untraced: float) -> dict:
    """Per-function and per-layer self time and calls, the computed
    counters, and the tracing overhead; raises if the self times of all
    layers plus untraced glue do not add up to the traced wall time."""
    spans = recorder.spans
    own = self_times(spans)
    if any(t < -1e-9 for t in own):
        raise AssertionError("a child span lies outside its parent")
    fn_self = defaultdict(float)
    fn_calls = defaultdict(int)
    for s, t in zip(spans, own):
        fn_self[s[0]] += t
        fn_calls[s[0]] += 1
    roots = sum(s[2] - s[1] for s in spans if s[3] < 0)
    glue = wall_traced - roots
    layer_self = {layer: sum(v for k, v in fn_self.items() if k.split(".")[0] == layer)
                  for layer in LAYERS}
    total = sum(layer_self.values()) + glue
    if abs(total - wall_traced) > 1e-6 * max(1.0, wall_traced) or glue < -1e-6:
        raise AssertionError(
            f"layer self times plus glue ({total:.6f} s) differ from the "
            f"traced wall time ({wall_traced:.6f} s)")
    m = {}
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = (layer_self[layer], "s")
        m[f"layer.{layer}.calls"] = (
            sum(v for k, v in fn_calls.items() if k.split(".")[0] == layer), "count")
    for layer, names in TRACED.items():
        for fname in names:
            key = f"{layer}.{fname}"
            m[f"{key}.self_s"] = (fn_self[key], "s")
            m[f"{key}.calls"] = (fn_calls[key], "count")
    for key in COUNTER_NAMES:
        m[key] = (recorder.counters[key], "B" if key.endswith(".bytes") else "count")
    calls = fn_calls["trg.verify_trg"]
    m["trg.verify_trg.pass_ratio"] = (
        recorder.counters["trg.verify_trg.passes"] / calls if calls else 0.0, "ratio")
    m["trace.glue_s"] = (glue, "s")
    m["trace.wall_s"] = (wall_traced, "s")
    m["trace.spans"] = (len(spans), "count")
    m["trace.overhead_s"] = (wall_traced - wall_untraced, "s")
    return m
