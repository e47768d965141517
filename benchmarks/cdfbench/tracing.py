"""In-memory span tracer for the benchmark's traced run.

The tracer records one span (name, layer, start, end, parent, operation id,
thread) around every call the benchmark makes into the package and around
the public functions one package module calls in another.  It reaches the
second kind by rebinding those imported names in the calling module for the
duration of the traced run; every wrapper returns the wrapped result
unchanged and re-raises what the wrapped call raised.  Nothing under the
package source is edited.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import threading
import time
from collections import defaultdict

#: the package modules, which are the layers the benchmark reports on
LAYERS = ("channel", "feedback", "specfun", "exact_rate", "asymptotics",
          "simulator", "planner", "cli")

#: (calling module, imported name, layer of the callee) rebound while tracing
BOUNDARIES = (
    ("planner", "min_feedback_exact", "planner"),
    ("planner", "min_feedback_asymptotic", "planner"),
    ("planner", "sum_rate_exact", "exact_rate"),
    ("planner", "sum_rate_asymptotic", "asymptotics"),
    ("exact_rate", "user_rate_exact", "exact_rate"),
    ("exact_rate", "sinr_cdf", "channel"),
    ("exact_rate", "sinr_pdf", "channel"),
    ("exact_rate", "xi2_vector", "feedback"),
    ("asymptotics", "normalizing_constants", "asymptotics"),
    ("asymptotics", "sinr_cdf_inv", "channel"),
    ("simulator", "sinr_cdf", "channel"),
    ("simulator", "build_link_profile", "channel"),
    ("cli", "sum_rate_exact", "exact_rate"),
    ("cli", "user_rate_asymptotic", "asymptotics"),
    ("cli", "normalizing_constants", "asymptotics"),
    ("cli", "plan_feedback", "planner"),
    ("cli", "simulate", "simulator"),
    ("cli", "build_link_profile", "channel"),
)

#: modules whose imported best-M polynomial class is swapped for a traced one
POLY_USERS = ("exact_rate", "asymptotics", "simulator")

QUAD = "specfun.adaptive_quad_halfline"


class Span:
    __slots__ = ("sid", "name", "layer", "start", "end", "parent", "op",
                 "thread", "error", "points")

    def __init__(self, sid, name, layer, start, parent, op, thread):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.thread = thread
        self.error = None
        self.points = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Collects spans; one operation is one call the benchmark makes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_names: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op = -1
        self._op_root = -1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        # a span opened on a worker thread hangs off the current operation
        parent = stack[-1] if stack else self._op_root
        with self._lock:
            span = Span(len(self.spans), name, layer, time.perf_counter(),
                        parent, self._op, threading.get_ident())
            self.spans.append(span)
        stack.append(span.sid)
        return span

    def close(self, span: Span, error: str | None = None) -> None:
        span.end = time.perf_counter()
        span.error = error
        stack = self._stack()
        stack.remove(span.sid)

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        """Record the block as a span; outside any operation (input
        generation between calls) record nothing."""
        if self._op_root < 0:
            yield None
            return
        span = self.open(name, layer)
        error = None
        try:
            yield span
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self.close(span, error)

    @contextlib.contextmanager
    def operation(self, name: str, layer: str):
        """Root span of one benchmark call; its spans carry its id."""
        self.op_names.append(name)
        self._op = len(self.op_names) - 1
        root = self.open(name, layer)
        self._op_root = root.sid
        error = None
        try:
            yield root
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._op_root = -1
            self.close(root, error)

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)
        return traced

    def wrap_quad(self, fn):
        """Trace the half-line quadrature and count integrand abscissae."""
        @functools.wraps(fn)
        def traced(f, config=None, vectorized=False):
            with self.span(QUAD, "specfun") as span:
                if span is None:
                    return fn(f, config, vectorized)

                def counted(xs):
                    span.points += len(xs) if vectorized else 1
                    return f(xs)
                return fn(counted, config, vectorized)
        return traced

    def traced_poly(self, base):
        tracer = self

        class TracedBestMPoly(base):
            def eval_in_f(self, F):
                with tracer.span("feedback.BestMPoly.eval_in_f", "feedback"):
                    return base.eval_in_f(self, F)

            def derivative_in_f(self, F):
                with tracer.span("feedback.BestMPoly.derivative_in_f",
                                 "feedback"):
                    return base.derivative_in_f(self, F)

        return TracedBestMPoly

    @contextlib.contextmanager
    def installed(self):
        """Rebind the cross-module names for the duration of the block."""
        import importlib

        saved = []

        def rebind(module, attr, value):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)

        try:
            for mod_name, attr, layer in BOUNDARIES:
                module = importlib.import_module(f"cdfsched.{mod_name}")
                fn = getattr(module, attr)
                rebind(module, attr,
                       self.wrap(fn, f"{layer}.{fn.__name__}", layer))
            exact_rate = importlib.import_module("cdfsched.exact_rate")
            rebind(exact_rate, "adaptive_quad_halfline",
                   self.wrap_quad(exact_rate.adaptive_quad_halfline))
            for mod_name in POLY_USERS:
                module = importlib.import_module(f"cdfsched.{mod_name}")
                rebind(module, "BestMPoly", self.traced_poly(module.BestMPoly))
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                row = span.as_dict()
                row["op_name"] = self.op_names[span.op] if span.op >= 0 else None
                fh.write(json.dumps(row) + "\n")


def self_times(spans) -> dict[str, float]:
    """Per-layer self time of one operation's spans.

    A span's self time is the part of its interval that none of its
    children covers.  Where spans on different threads overlap, each
    instant is shared equally between the innermost spans of the threads
    active at that instant, so the layer self times of an operation sum to
    the time during which any of its spans was open, never more.
    """
    events = []
    for s in spans:
        events.append((s.start, 1, s.sid, s))
        events.append((s.end, 0, s.sid, s))
    events.sort(key=lambda e: (e[0], e[1], -e[2] if e[1] == 0 else e[2]))
    stacks: dict[int, list[Span]] = defaultdict(list)
    out = dict.fromkeys(LAYERS, 0.0)
    last = None
    for t, is_start, _, span in events:
        active = [st[-1] for st in stacks.values() if st]
        if last is not None and active:
            share = (t - last) / len(active)
            for top in active:
                out[top.layer] = out.get(top.layer, 0.0) + share
        last = t
        if is_start:
            stacks[span.thread].append(span)
        else:
            stacks[span.thread].remove(span)
    return out


def by_operation(spans) -> dict[int, list[Span]]:
    ops: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        ops[s.op].append(s)
    return ops
