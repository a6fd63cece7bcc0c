"""Run the sumfree CLI with its layers traced from the outside.

    python3 bench/traced_cli.py OUT.json CLI-ARGS...

Every public function of the modules in LAYERS gets a span per call (name,
start, end, parent span), and so do ElemSet.members and ElemSet.from_values.
The GroupSpec index methods run millions of times per job, so they get the
cheapest probe instead: a call counter, plus a timer on the outermost call
only.  count_sum_free also records whether the lru cache missed, and how
many sets the miss counted.

Several modules import with ``from .x import y``, so every module binding of
a wrapped function is replaced, not only the defining one.  The spans and
counters are written to OUT.json when the CLI returns or raises; the exit
code and the output are the CLI's own.
"""

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "analysis", "enumeration", "universe", "groups", "generate", "construct")
INDEX_OPS = ("add_index", "neg_index", "index_to_coords", "coords_to_index")


class Trace:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack = [-1]
        self.index = [0, 0, 0]  # index-op calls, ns in outermost calls, nesting flag
        self.counts = {"count_misses": 0, "sets_counted": 0, "count_miss_ns": 0}

    def span(self, name, f):
        spans, stack, now = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(f)
        def traced(*args, **kwargs):
            record = [name, now(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                return f(*args, **kwargs)
            finally:
                record[2] = now()
                stack.pop()

        return traced

    def counted(self, f):
        cell, now = self.index, time.perf_counter_ns

        @functools.wraps(f)
        def counted(*args):
            cell[0] += 1
            if cell[2]:
                return f(*args)
            cell[2] = 1
            start = now()
            try:
                return f(*args)
            finally:
                cell[1] += now() - start
                cell[2] = 0

        return counted

    def cache_misses(self, f, caches):
        counts, now = self.counts, time.perf_counter_ns

        def misses():
            return sum(c.cache_info().misses for c in caches)

        @functools.wraps(f)
        def observed(*args, **kwargs):
            before, start = misses(), now()
            result = f(*args, **kwargs)
            if misses() != before:
                counts["count_misses"] += 1
                counts["sets_counted"] += result
                counts["count_miss_ns"] += now() - start
            return result

        return observed


def install(trace: Trace) -> None:
    modules = {layer: importlib.import_module(f"sumfree.{layer}") for layer in LAYERS}
    enumeration, groups, universe = (
        modules["enumeration"], modules["groups"], modules["universe"])
    caches = (enumeration._interval_count, enumeration._group_count)

    swaps = {}
    for layer, mod in modules.items():
        for name, f in vars(mod).items():
            if inspect.isfunction(f) and f.__module__ == mod.__name__ \
                    and not name.startswith("_"):
                inner = trace.cache_misses(f, caches) if f is enumeration.count_sum_free else f
                swaps[id(f)] = (f, trace.span(f"{layer}.{name}", inner))
    for mod in [m for n, m in sys.modules.items() if n == "sumfree" or n.startswith("sumfree.")]:
        for attr, value in list(vars(mod).items()):
            hit = swaps.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])

    for op in INDEX_OPS:
        setattr(groups.GroupSpec, op, trace.counted(getattr(groups.GroupSpec, op)))
    elemset = universe.ElemSet
    elemset.members = trace.span("universe.ElemSet.members", elemset.members)
    elemset.from_values = classmethod(trace.span(
        "universe.ElemSet.from_values", vars(elemset)["from_values"].__func__))


def dump(trace: Trace, path: str) -> None:
    enumeration = sys.modules["sumfree.enumeration"]
    infos = [c.cache_info() for c in (enumeration._interval_count, enumeration._group_count)]
    payload = dict(
        trace.counts,
        spans=trace.spans,
        index_ops=trace.index[0],
        index_ns=trace.index[1],
        cache_hits=sum(i.hits for i in infos),
        cache_misses=sum(i.misses for i in infos),
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    trace = Trace()
    install(trace)
    cli = sys.modules["sumfree.cli"]
    try:
        return cli.main(argv)
    finally:
        dump(trace, out_path)


if __name__ == "__main__":
    sys.exit(main())
