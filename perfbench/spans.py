"""Spans around calls into anchorlab's modules, recorded from outside.

Each traced function is replaced at the module attribute through which its
caller looks it up (``anchorlab.trainer.rollout`` is the rollout the
trainer calls), so nothing under ``src/`` changes. A span records its name,
start, end, depth, parent and thread; spans stay in memory until
:func:`layer_metrics` summarizes them after the run.

Self time: at each instant the innermost open span of every running thread
shares the wall time equally, so the self times of all spans plus the
remainder left to the root add up to the root's duration. With one thread
this is the usual duration minus the part its children cover. The root's
thread counts as waiting while any other thread has a span open, because
it is then blocked on the cell pool.
"""

from __future__ import annotations

import importlib
import itertools
import os
import statistics
import threading
import time

LAYERS = ("env", "policy", "trainer", "objectives", "metrics", "cli")


def _batch_tokens(args, result):
    return {"trainer.tokens": len(args[3])}


def _snapshot_bytes(args, result):
    table = args[0]
    return {"policy.snapshot.bytes": len(table) * table.vocab_size * 8}


def _group_use(args, result):
    return {"trainer.groups": 1, "trainer.useful_groups": 0 if result.skipped else 1}


def _written(path):
    try:
        return {"cli.io.bytes": os.path.getsize(path)}
    except OSError:
        return {}


# (module, attribute, span name, counter hook)
TARGETS = (
    ("anchorlab.trainer", "generate_tree", "env.generate_tree", None),
    ("anchorlab.trainer", "rollout", "env.rollout.train", None),
    ("anchorlab.metrics", "rollout", "env.rollout.eval", None),
    ("anchorlab.trainer", "snapshot", "policy.snapshot", _snapshot_bytes),
    ("anchorlab.trainer", "train_step", "trainer.train_step", None),
    ("anchorlab.trainer", "sample_group", "trainer.sample_group", _group_use),
    ("anchorlab.trainer", "apply_token_batch", "trainer.apply_token_batch", _batch_tokens),
    ("anchorlab.trainer", "group_advantages", "objectives.group_advantages", None),
    ("anchorlab.trainer", "method_token_update", "objectives.method_token_update", None),
    ("anchorlab.trainer", "evaluate", "metrics.evaluate", None),
    ("anchorlab.metrics", "self_bleu", "metrics.self_bleu", None),
    ("anchorlab.cli", "run_experiment", "cli.cell", None),
    ("anchorlab.cli", "write_metrics_csv", "cli.io.metrics", lambda a, r: _written(a[1])),
    ("anchorlab.cli", "write_steps_jsonl", "cli.io.steps", lambda a, r: _written(a[1])),
    ("anchorlab.cli", "_write_summary", "cli.io.summary", lambda a, r: _written(r)),
)


class Tracer:
    """Installs span wrappers; :meth:`root` times the whole traced call."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, depth, name, t0, t1, thread)
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            func = getattr(module, attr, None)
            if func is None:
                self.absent.append(name)
                continue
            self._restore.append((module, attr, func))
            setattr(module, attr, self._wrap(func, name, hook))

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._restore):
            setattr(module, attr, func)
        self._restore.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # A pool thread's first span was caused by the root.
            stack = self._local.stack = [(0, 0)]
        return stack

    def _wrap(self, func, name, hook):
        clock = time.perf_counter_ns
        spans = self.spans

        def traced(*args, **kwargs):
            stack = self._stack()
            parent, depth = stack[-1]
            span_id = next(self._ids)
            stack.append((span_id, depth + 1))
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((span_id, parent, depth + 1, name, t0, t1, threading.get_ident()))
            if hook is not None:
                try:
                    counted = hook(args, result)
                except (IndexError, AttributeError, TypeError):
                    counted = {}  # signature changed: keep the span, drop the count
                self._count(counted)
            return result

        return traced

    def _count(self, values: dict) -> None:
        with self._lock:
            for key, value in values.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def root(self, func, *args):
        """Run ``func(*args)`` as the root span (id 0)."""
        self._local.stack = [(0, 0)]
        t0 = time.perf_counter_ns()
        try:
            return func(*args)
        finally:
            t1 = time.perf_counter_ns()
            self.spans.append((0, None, 0, "root", t0, t1, threading.get_ident()))


def self_times(spans) -> dict[int, float]:
    """Self time in seconds of every span, by span id (see module doc)."""
    events = []
    for span in spans:
        span_id, _, depth, _, t0, t1, _ = span
        events.append((t0, 1, depth, span))
        events.append((t1, 0, -depth, span))
    events.sort(key=lambda e: e[:3])
    open_spans: dict[int, list] = {}
    own = {span[0]: 0 for span in spans}
    prev = None
    for t, starting, _, span in events:
        if prev is not None and t > prev:
            running = [stack[-1] for stack in open_spans.values() if stack]
            if len(running) > 1:
                running = [s for s in running if s[0] != 0]
            share = (t - prev) / len(running)
            for s in running:
                own[s[0]] += share
        stack = open_spans.setdefault(span[6], [])
        if starting:
            stack.append(span)
        else:
            stack.remove(span)
        prev = t
    return {span_id: ns / 1e9 for span_id, ns in own.items()}


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-layer numbers from one traced run, keyed by metric name."""
    spans = tracer.spans
    own = self_times(spans)
    wall = next(s[5] - s[4] for s in spans if s[0] == 0) / 1e9

    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[3], []).append(span)

    def total(name):
        return sum(s[5] - s[4] for s in by_name.get(name, ())) / 1e9

    def calls(name):
        return len(by_name.get(name, ()))

    def own_of(name):
        return sum(own[s[0]] for s in by_name.get(name, ()))

    out = {}
    for name in ("env.generate_tree", "env.rollout.train", "env.rollout.eval",
                 "policy.snapshot", "trainer.apply_token_batch"):
        out[f"{name}.s"] = total(name)
        out[f"{name}.calls"] = calls(name)
    out["metrics.evaluate.calls"] = calls("metrics.evaluate")
    out["metrics.evaluate.self_s"] = own_of("metrics.evaluate")
    out["metrics.self_bleu.s"] = total("metrics.self_bleu")
    out["trainer.train_step.self_s"] = own_of("trainer.train_step")
    for key in ("policy.snapshot.bytes", "trainer.tokens", "cli.io.bytes"):
        out[key] = tracer.counts.get(key, 0)
    groups = tracer.counts.get("trainer.groups", 0)
    out["trainer.useful_group_frac"] = (
        tracer.counts.get("trainer.useful_groups", 0) / groups if groups else 0.0
    )
    cells = [(s[5] - s[4]) / 1e9 for s in by_name.get("cli.cell", ())]
    out["cli.cell.s_p50"] = statistics.median(cells) if cells else 0.0
    out["cli.cell.s_max"] = max(cells, default=0.0)
    out["cli.io.s"] = sum(total(n) for n in ("cli.io.metrics", "cli.io.steps", "cli.io.summary"))
    out["cli.pool_busy_frac"] = sum(cells) / (wall * jobs)

    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(own[s[0]] for s in spans if s[3].split(".", 1)[0] == layer)
    out["trace.unattributed_s"] = own[0]
    out["trace.wall_s"] = wall
    return out
