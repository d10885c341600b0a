"""Spans around the calls into each withinperfect layer, taken from outside.

The worker installs wrappers on the package's public calls before it runs the
CLI, so nothing under src/ knows it is traced.  A span is a list
``[name, parent, start, end, amount]``: ``parent`` is the index of the
enclosing span (-1 at the top), times come from ``time.perf_counter`` and
``amount`` is a per-call count taken at the same boundary (elements sieved,
payload bytes, a regular-classification flag, rendered characters).

Spans stay in memory while the CLI runs and are written when it returns.
``layer_metrics`` turns them into the per-layer figures; a span's self time is
its duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

#: Wrapped calls per layer module.  ``None`` wraps every public function the
#: module defines (the layer's entry points); a name that a later version of
#: the package no longer has is skipped, and its metrics then read 0.
WRAPPED = {
    "sieve": ("sieve_segment",),
    "cache": ("read_segment", "write_segment"),
    "congruence": None,
    "within": None,
    "distribution": None,
    "exact": None,
    "emit": None,
}

#: Per-call amounts recorded with a span, keyed by span name.
AMOUNTS = {
    "sieve.sieve_segment": lambda result, args: len(result),
    "cache.read_segment": lambda result, args: result.sigma.nbytes,
    "cache.write_segment": lambda result, args: args[0].sigma.nbytes,
    "congruence.classify": lambda result, args: int(result[0] == "regular"),
}

_RENDERER_SUFFIXES = ("_csv", "_json", "_ndjson", "_text")


def _text_length(result, args):
    return len(result)  # the renderers emit ASCII, so characters are bytes


class Tracer:
    """Collects spans from one process; single-threaded use only."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self._stack[-1], time.perf_counter(), 0.0, 0])
        self._stack.append(sid)
        return sid

    def end(self, sid: int, amount: int = 0) -> None:
        span = self.spans[sid]
        span[3] = time.perf_counter()
        span[4] = amount
        self._stack.pop()

    def wrap(self, name: str, fn):
        amount = AMOUNTS.get(name) or (_text_length if name.startswith("emit.") else None)

        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(sid)
                raise
            self.end(sid, amount(result, args) if amount else 0)
            return result

        return traced

    def dump(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


def _targets(module, names):
    if names is not None:
        return [n for n in names if callable(getattr(module, n, None))]
    out = []
    for n, obj in vars(module).items():
        if n.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
            continue
        if module.__name__.endswith(".emit") and not n.endswith(_RENDERER_SUFFIXES):
            continue  # per-field helpers such as fmt6 run once per row
        out.append(n)
    return out


def install(tracer: Tracer) -> None:
    """Wrap the layer calls in every loaded withinperfect module, and make
    ``cli.RunConfig.source`` hand out a SigmaSource whose ``segments`` and
    ``table`` are traced."""
    import withinperfect.cli as cli
    from withinperfect import sieve

    wrappers = {}
    for layer, names in WRAPPED.items():
        module = sys.modules.get(f"withinperfect.{layer}")
        if module is None:
            continue
        for n in _targets(module, names):
            original = getattr(module, n)
            wrappers[id(original)] = tracer.wrap(f"{layer}.{n}", original)
    # Rebind every module-level reference, including `from .x import f` copies.
    for modname, module in list(sys.modules.items()):
        if modname == "withinperfect" or modname.startswith("withinperfect."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    setattr(module, attr, wrappers[id(obj)])

    class TracedSource(sieve.SigmaSource):
        table = tracer.wrap("sieve.table", sieve.SigmaSource.table)

        def segments(self, limit):
            inner = super().segments(limit)
            while True:
                sid = tracer.begin("sieve.segments")
                yielded = 0
                try:
                    segment = next(inner)
                    yielded = 1
                except StopIteration:
                    return
                finally:
                    tracer.end(sid, yielded)
                yield segment

    make_source = cli.RunConfig.source

    def source(config):
        src = make_source(config)
        src.__class__ = TracedSource
        return src

    cli.RunConfig.source = source


def load(path: str) -> list[list]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    names = data["names"]
    return [[names[r[0]], r[1], r[2], r[3], r[4]] for r in data["spans"]]


def merge(runs: list[list[list]]) -> list[list]:
    """The spans of several invocations as one list, parents re-indexed."""
    out: list[list] = []
    for run in runs:
        base = len(out)
        out += [[name, parent + base if parent >= 0 else -1, start, end, amount]
                for name, parent, start, end, amount in run]
    return out


def _totals(spans: list[list]) -> dict[str, list[float]]:
    """name -> [calls, total duration, total self time, total amount]."""
    covered = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for (name, parent, start, end, amount), child in zip(spans, covered):
        t = totals[name]
        t[0] += 1
        t[1] += end - start
        t[2] += end - start - child
        # nested emit calls would count their text twice
        if not (name.startswith("emit.") and parent >= 0 and spans[parent][0].startswith("emit.")):
            t[3] += amount
    return totals


def _layer(totals, layer: str, column: int) -> float:
    return sum((t[column] for name, t in totals.items() if name.startswith(layer + ".")), 0.0)


def layer_metrics(timed: list[list], setup: list[list]) -> dict[str, float]:
    """Per-layer figures of one traced pass (its invocations' spans merged).

    Figures for producing segments (sieve.segments, sieve.busy_s,
    sieve.n_per_busy_s, cache.write_*) also count the traced set-up, which
    is where a workload that reads a cache sieves and writes it.  Byte counts
    are computed from array and string sizes, not measured on a device.
    """
    run = _totals(timed)
    both = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for totals in (run, _totals(setup)):
        for name, t in totals.items():
            both[name] = [a + b for a, b in zip(both[name], t)]
    zero = [0, 0.0, 0.0, 0]
    sieved = both.get("sieve.sieve_segment", zero)
    reads = run.get("cache.read_segment", zero)
    writes = both.get("cache.write_segment", zero)
    lookups = run.get("sieve.segments", zero)
    classify = run.get("congruence.classify", zero)
    mib = float(1 << 20)
    return {
        "sieve.segments": sieved[0],
        "sieve.busy_s": sieved[1],
        "sieve.wait_s": lookups[1],
        "sieve.n_per_busy_s": sieved[3] / sieved[1] if sieved[1] else 0.0,
        "sieve.table_s": run.get("sieve.table", zero)[1],
        "cache.reads": reads[0],
        "cache.read_s": reads[1],
        "cache.read_mb": reads[3] / mib,
        "cache.hit_frac": reads[0] / lookups[3] if lookups[3] else 0.0,
        "cache.writes": writes[0],
        "cache.write_s": writes[1],
        "cache.write_mb": writes[3] / mib,
        "within.self_s": _layer(run, "within", 2),
        "congruence.classify_calls": classify[0],
        "congruence.classify_s": classify[1],
        "congruence.anchors_s": run.get("congruence.witness_anchors", zero)[1],
        "congruence.self_s": _layer(run, "congruence", 2),
        "congruence.regular_frac": classify[3] / classify[0] if classify[0] else 0.0,
        "distribution.self_s": _layer(run, "distribution", 2),
        "exact.self_s": _layer(run, "exact", 2),
        "emit.s": _layer(run, "emit", 2),
        "emit.mb": _layer(run, "emit", 3) / mib,
        "cli.self_s": run.get("cli.main", zero)[2],
    }
