"""Benchmark-side tracing: timed wrappers around the public calls into each layer.

Nothing here touches the program's own code.  :class:`Tracer` patches
public methods and module functions with wrappers (``functools.wraps``,
so signature probes such as the agent's ``ingest_push`` check still see
the original parameters) and restores them on :meth:`Tracer.uninstall`.

Two wrapper kinds:

* **span** wrappers record one span per call (name, parent, start, end),
  all spans of a round sharing the round's id.  The parent is the
  caller's span, carried in a :class:`contextvars.ContextVar` so spans
  opened in the controller's fan-out worker threads (which copy the
  caller's context) parent correctly.  A thread without a context —
  the fleet server's handler answering a zone report — parents on the
  span of the call blocked waiting for it (``remote`` wrappers) or on
  the round.
* **hook** wrappers time the per-tick component hooks and resource
  arbitration.  There are ~10^5 such calls per round, so they are
  aggregated per round into (calls, seconds) per group instead of being
  recorded one by one; the enclosing ``Simulator.step`` span carries
  their total as child time.

A span's self time is its duration minus its children's durations, minus
a calibrated per-wrapper cost for every child call (the part of a
wrapper's cost that lands outside the child's span, in the parent) and
the part that lands inside its own span.  Spans stay in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

clock = time.perf_counter

#: Component phase hooks timed by hook wrappers.
HOOKS = ("begin_tick", "mid_tick", "process_tick", "end_tick")
#: Resource arbitration calls made by ``Simulator.step``.
ARBITRATION = ("aggregate_demand", "allocate", "finish_tick")

# A finished span: (round, span id, parent id, name, start, end,
# aggregated child seconds, aggregated child calls).
Record = Tuple[int, int, Optional[int], str, float, float, float, int]


class Tracer:
    """Round-scoped spans plus per-round hook aggregates."""

    def __init__(self) -> None:
        self.records: List[Record] = []
        #: The open round's number; 0 between rounds, where spans are
        #: still recorded but belong to no round.
        self.round_no = 0
        self._rounds = 0
        self.hook_rounds: Dict[int, Dict[str, List[float]]] = {}
        #: (round, span name) -> what the wrapper's ``count`` added up.
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._root: Optional[list] = None
        self._root_token = None
        self._remote: Optional[list] = None
        # [nesting depth, hook seconds, hook calls] shared by all hook
        # wrappers: an overriding hook that calls super() is timed once.
        self._hook_state = [0, 0.0, 0]
        self._hooks: Dict[str, List[float]] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- rounds ------------------------------------------------------------------

    def begin_round(self) -> None:
        self._rounds += 1
        self.round_no = self._rounds
        self._root = [next(self._ids), None, "round", clock(), 0.0, 0]
        self._root_token = self._current.set(self._root)

    def end_round(self) -> None:
        root = self._root
        t1 = clock()
        self._current.reset(self._root_token)
        self.records.append(
            (self.round_no, root[0], None, "round", root[3], t1, 0.0, 0)
        )
        self.hook_rounds[self.round_no] = self._hooks
        self._hooks = {}
        self._root = None
        self.round_no = 0

    # -- wrappers ----------------------------------------------------------------

    def span_wrapper(
        self,
        fn: Callable,
        name: str,
        count: Optional[Callable] = None,
        with_hooks: bool = False,
        remote: bool = False,
    ) -> Callable:
        """Wrap ``fn`` so every call records one span called ``name``.

        ``count(args, result)`` adds to :attr:`counts` under (round, ``name``)
        (rows applied, bytes encoded, ...).  ``with_hooks`` folds the hook
        aggregates timed during the call into the span's child time;
        ``remote`` makes the span the parent of context-less threads
        while it is open.
        """
        tracer = self
        current = self._current
        records = self.records
        ids = self._ids
        hook_state = self._hook_state
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = current.get()
            if parent is None:
                parent = tracer._remote or tracer._root
            span = [next(ids), parent[0] if parent is not None else None, name]
            token = current.set(span)
            if remote:
                saved, tracer._remote = tracer._remote, span
            if with_hooks:
                h_s, h_n = hook_state[1], hook_state[2]
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                current.reset(token)
                if remote:
                    tracer._remote = saved
                if with_hooks:
                    extra_s = hook_state[1] - h_s
                    extra_n = hook_state[2] - h_n
                else:
                    extra_s, extra_n = 0.0, 0
                records.append(
                    (tracer.round_no, span[0], span[1], name, t0, t1, extra_s, extra_n)
                )
            if count is not None:
                counts[tracer.round_no, name] += count(args, result)
            return result

        return wrapper

    def hook_wrapper(self, fn: Callable, group: str) -> Callable:
        """Wrap a per-tick ``fn(obj, sim)``; time aggregates into ``group``."""
        tracer = self
        state = self._hook_state

        @functools.wraps(fn)
        def wrapper(obj, sim):
            if state[0]:
                return fn(obj, sim)
            state[0] = 1
            t0 = clock()
            try:
                return fn(obj, sim)
            finally:
                d = clock() - t0
                state[0] = 0
                state[1] += d
                state[2] += 1
                acc = tracer._hooks.get(group)
                if acc is None:
                    acc = tracer._hooks[group] = [0, 0.0]
                acc[0] += 1
                acc[1] += d

        return wrapper

    # -- patching ----------------------------------------------------------------

    def patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_method(self, cls: type, attr: str, name: str, **kw) -> None:
        """Wrap ``cls.attr`` where it is defined (once per defining class)."""
        owner = defining_class(cls, attr)
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return
        self.patch(owner, attr, self.span_wrapper(owner.__dict__[attr], name, **kw))

    def patch_function(self, module, attr: str, name: str, **kw) -> None:
        """Wrap a module function, also where other modules imported it."""
        original = getattr(module, attr)
        wrapper = self.span_wrapper(original, name, **kw)
        for mod in list(sys.modules.values()):
            if getattr(mod, attr, None) is original and (
                mod is module or getattr(mod, "__name__", "").startswith("repro")
            ):
                self.patch(mod, attr, wrapper)

    def patch_hooks(
        self, base: type, names: Iterable[str], group_of: Callable, skip_base: bool
    ) -> None:
        """Hook-wrap ``names`` on ``base`` and every class below it.

        ``skip_base`` leaves ``base``'s own definitions alone (no-op hooks
        whose call cost belongs to the dispatching loop).
        """
        for cls in all_subclasses(base):
            for attr in names:
                owner = defining_class(cls, attr)
                if (skip_base and owner is base) or any(
                    o is owner and a == attr for o, a, _ in self._patches
                ):
                    continue
                fn = owner.__dict__[attr]
                self.patch(owner, attr, self.hook_wrapper(fn, group_of(owner)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every recorded span and hook aggregate as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps({
                    "round": rec[0], "id": rec[1], "parent": rec[2],
                    "name": rec[3], "start": rec[4], "end": rec[5],
                    "hook_s": rec[6], "hook_calls": rec[7],
                }) + "\n")
            for rnd, groups in sorted(self.hook_rounds.items()):
                fh.write(json.dumps({"round": rnd, "hooks": groups}) + "\n")


def defining_class(cls: type, attr: str) -> type:
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


def all_subclasses(base: type) -> List[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


# -- self time -------------------------------------------------------------------


def self_times(
    records: Iterable[Record],
    cost_in: float = 0.0,
    cost_out: float = 0.0,
    hook_cost_out: float = 0.0,
) -> Dict[int, float]:
    """Self seconds per span id.

    A span's self time is its duration minus the durations of its
    children (recorded spans whose parent it is, plus aggregated hook
    time), minus the calibrated wrapper cost: ``cost_in`` once for the
    part of its own wrapper inside the span, ``cost_out`` per recorded
    child call and ``hook_cost_out`` per aggregated hook call for the
    parts of the children's wrappers that fall outside the children.
    The round root has no wrapper of its own, so no ``cost_in``.
    """
    records = list(records)
    child_s: Dict[int, float] = defaultdict(float)
    child_n: Dict[int, int] = defaultdict(int)
    for rec in records:
        if rec[2] is not None:
            child_s[rec[2]] += rec[5] - rec[4]
            child_n[rec[2]] += 1
    out = {}
    for rnd, sid, parent, name, t0, t1, extra_s, extra_n in records:
        own_cost = cost_in if parent is not None else 0.0
        out[sid] = (
            (t1 - t0) - child_s[sid] - extra_s
            - cost_out * child_n[sid] - hook_cost_out * extra_n - own_cost
        )
    return out


def calibrate(repeats: int = 5, calls: int = 20000) -> Dict[str, float]:
    """Per-call wrapper costs (seconds), median of ``repeats`` trials.

    ``span_in``/``hook_in`` is what a wrapper adds inside the span it
    times (measured on a no-op); ``span_out``/``hook_out`` is the rest of
    its cost, which lands in the caller's self time.
    """

    class Probe:
        def noop(self, sim=None):
            return None

    trials: Dict[str, List[float]] = defaultdict(list)
    obj = Probe()
    for _ in range(repeats):
        plain = Probe.noop
        t0 = clock()
        for _ in range(calls):
            plain(obj, None)
        base = (clock() - t0) / calls

        tracer = Tracer()
        span = tracer.span_wrapper(Probe.noop, "probe")
        tracer.begin_round()
        t0 = clock()
        for _ in range(calls):
            span(obj, None)
        total = (clock() - t0) / calls
        tracer.end_round()
        inside = statistics.fmean(
            r[5] - r[4] for r in tracer.records if r[3] == "probe"
        )
        trials["span_in"].append(max(0.0, inside - base))
        trials["span_out"].append(max(0.0, total - inside))

        hook = tracer.hook_wrapper(Probe.noop, "probe")
        t0 = clock()
        for _ in range(calls):
            hook(obj, None)
        total = (clock() - t0) / calls
        inside = tracer._hooks["probe"][1] / tracer._hooks["probe"][0]
        trials["hook_in"].append(max(0.0, inside - base))
        trials["hook_out"].append(max(0.0, total - inside))
    return {k: statistics.median(v) for k, v in trials.items()}
