"""Outside-in per-module tracing of treelab, from the benchmark's own files.

`Tracer.install` wraps the public functions listed in ``layers.json`` and
rebinds every ``treelab`` module attribute that refers to one of them, so
calls made through a ``from .embeddings import is_minor`` binding are timed
too.  Each call records a span ``[name, start, end, parent, note]`` in memory;
``note`` is a small summary of the return value (a bool, a count).  Spans of
forked worker processes are not recorded: only the parent process is traced.

Run as a script it is the traced interpreter of one benchmark run::

    python perfbench/tracer.py SPANS_FILE -- ARG...

which calls ``treelab.cli.main([ARG...])`` in process, writes the spans to
SPANS_FILE when main returns (with `marshal`: a scan writes about 10^5 spans,
and JSON would add a quarter second to the traced run), and exits with main's
code.
"""

from __future__ import annotations

import functools
import importlib
import json
import marshal
import os
import sys
import time
from pathlib import Path

MODULES = ("trees", "embeddings", "solvers", "quotient", "families",
           "_parallel", "cli")


@functools.cache
def layers() -> dict:
    """The layer map: traced functions, their stats, and what they should move."""
    return json.loads(Path(__file__).with_name("layers.json").read_text())


def _levels_totals(result) -> tuple[int, int]:
    return (sum(lv.candidates for lv in result.levels),
            sum(lv.hits for lv in result.levels))


# How a traced call's return value is summarised into its span's note.
NOTES = {
    "embeddings.is_minor": bool,
    "embeddings.enumerate_embeddings": len,
    "solvers.smallest_common_supertree": _levels_totals,
    "solvers.largest_common_minor": _levels_totals,
    "quotient.build_quotient": lambda q: len(q.classes),
    "quotient.check_prop21": lambda report: len(report.violations),
    "_parallel.parallel_map": len,
}


def treelab_modules() -> list:
    """The package and each of its modules, imported."""
    pkg = importlib.import_module("treelab")
    return [pkg] + [importlib.import_module(f"treelab.{m}") for m in MODULES]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.on = True
        self.rebound: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(result)
            return result

        return traced

    def install(self) -> None:
        modules = treelab_modules()
        for target in layers()["spans"]:
            module, func = target.split(".")
            original = getattr(importlib.import_module(f"treelab.{module}"), func)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.rebound.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.on = False

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.rebound):
            setattr(mod, attr, original)
        self.rebound.clear()
        self.on = False


def accumulate(spans: list[list]) -> dict[str, dict]:
    """Per traced function: calls, inclusive time ``s``, ``self_s``, the notes
    of its calls, and how many of its calls reached ``find_embedding``.

    ``s`` does not count a span nested in a span of the same name twice;
    ``self_s`` is a span's time minus its direct children's, so the self
    times of all spans under a root sum to the root's time.
    """
    child_time = [0.0] * len(spans)
    searched = [False] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            searched[parent] |= name == "embeddings.find_embedding"

    def nested_in_same(i: int) -> bool:
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    acc = {t: {"calls": 0, "s": 0.0, "self_s": 0.0, "notes": [], "searched": 0}
           for t in layers()["spans"]}
    for i, (name, start, end, _, note) in enumerate(spans):
        a = acc[name]
        a["calls"] += 1
        a["self_s"] += (end - start) - child_time[i]
        if not nested_in_same(i):
            a["s"] += end - start
        if note is not None:
            a["notes"].append(note)
        a["searched"] += searched[i]
    return acc


def summarise(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics named in ``layers.json`` from a run's spans, and
    each module's self time (the sum over its traced functions)."""
    acc = accumulate(spans)
    out = {metric_name(target, stat): _stat(stat, acc[target])
           for target, spec in layers()["spans"].items() for stat in spec["stats"]}
    for module in MODULES:
        out[metric_name(module, "self_s")] = sum(
            a["self_s"] for t, a in acc.items() if t.split(".")[0] == module)
    return out


def _stat(stat: str, a: dict) -> float:
    calls, notes = a["calls"], a["notes"]
    if stat in ("calls", "s", "self_s"):
        return a[stat]
    if stat == "true_frac":
        return sum(notes) / calls if calls else 0.0
    if stat == "search_frac":
        return a["searched"] / calls if calls else 0.0
    if stat == "candidates":
        return sum(c for c, _ in notes)
    if stat == "hit_frac":
        candidates = sum(c for c, _ in notes)
        return sum(h for _, h in notes) / candidates if candidates else 0.0
    return sum(notes)  # results, items, classes, violations


def metric_name(target: str, stat: str) -> str:
    # Metric names must start with a letter, so `_parallel` reports as `parallel`.
    return f"{target.lstrip('_')}.{stat}"


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE -- ARG...")
    spans_file, _, *args = argv
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("treelab.cli")
    try:
        code = cli.main(args)
    finally:
        sys.stdout.flush()
        tracer.on = False
        Path(spans_file).write_bytes(marshal.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
