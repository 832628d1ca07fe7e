"""Span tracing of the program's layers, applied from outside.

`instrument` wraps public functions of bus, hook, store, mock_service,
service_api, webutil, clients, emma, decisions and orchestrator. Each
call records a span: id, parent span, name, start and end (perf_counter,
which is CLOCK_MONOTONIC on Linux and so comparable across processes),
whether it raised, and its thread. Spans go into per-thread arrays in
memory and are written out once, at the end, as one .npz file.

`Analysis` turns spans into per-layer numbers. A route handler or a
controller-side call has no parent in its own thread; it is attributed to
the client call that was outstanding when it started (at most one client
thread per kind of call runs in every workload). A span's self time is
its duration minus the time its children cover. Spans of one decision
step or one gateway request share a trace id: that of their outermost
span below the run itself.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array

import numpy as np

from common import Patches

# (module, owner, attribute, span name). Every layer the benchmark reports
# on appears here; `LAYERS` lists them for the self-check.
TARGETS = (
    ("casca.bus", "Broker", "publish", "bus.publish"),
    ("casca.hook", "TelemetryHook", "handle", "hook.handle"),
    ("casca.store", "TimeSeriesStore", "write", "store.write"),
    ("casca.store", "TimeSeriesStore", "query", "store.query"),
    ("casca.store", "TimeSeriesStore", "dump_jsonl", "store.dump"),
    ("casca.store", "TimeSeriesStore", "replay", "store.replay"),
    ("casca.mock_service", "Reporter", "tick", "mock_service.tick"),
    ("casca.mock_service", "MockService", "set", "mock_service.set"),
    ("casca.mock_service", "MockService", "get", "mock_service.get"),
    ("casca.service_api", "ServiceApi", "slo_value", "service_api.slo_value"),
    ("casca.service_api", "ServiceApi", "reconfigure", "service_api.reconfigure"),
    ("casca.service_api", "MockServiceControllerClient", "get", "service_api.controller"),
    ("casca.service_api", "MockServiceControllerClient", "set", "service_api.controller"),
    ("casca.clients", "_HttpClient", "_call", "clients.call"),
    ("casca.clients", "SloApiClient", "slo_value", "clients.slo_value"),
    ("casca.clients", "ControlApiClient", "get_value", "clients.get_value"),
    ("casca.clients", "ControlApiClient", "set_value", "clients.set_value"),
    ("casca.clients", "EmmaApiClient", "intensity", "clients.intensity"),
    ("casca.emma", "LocationIndex", "lookup", "emma.lookup"),
    ("casca.decisions.rds", "RdsSystem", "step", "decisions.step"),
    ("casca.decisions.rlds", "RldsSystem", "step", "decisions.step"),
    ("casca.decisions.policy", "CategoricalPolicy", "act", "decisions.policy_act"),
    ("casca.decisions.policy", "PpoTrainer", "update", "decisions.ppo_update"),
    ("casca.decisions.base", "DecisionSystem", "write_csv", "decisions.write_csv"),
    ("casca.orchestrator", None, "run_scenario", "orchestrator.run"),
    ("casca.orchestrator", None, "_simulate", "orchestrator.simulate"),
    ("casca.orchestrator", None, "compute_report", "orchestrator.report"),
)

LAYERS = ("bus", "hook", "store", "mock_service", "service_api", "webutil", "clients",
          "emma", "decisions", "orchestrator")

HANDLER = "webutil.handler"
# Server-side span -> the client-side span it answers.
ANSWERS = {HANDLER: "clients.call",
           "mock_service.set": "service_api.controller",
           "mock_service.get": "service_api.controller"}
# Spans that hold a whole run; the spans below them start their own traces.
SESSION = {"orchestrator.run", "orchestrator.simulate"}


class _Buffer:
    __slots__ = ("sid", "parent", "name", "t0", "t1", "ok", "stack", "thread")

    def __init__(self, thread: int):
        self.sid, self.parent = array("q"), array("q")
        self.name, self.ok = array("H"), array("b")
        self.t0, self.t1 = array("d"), array("d")
        self.stack: list[int] = []
        self.thread = thread


class Tracer:
    def __init__(self, id_base: int = 0):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(id_base + 1)
        self._patches = Patches()
        self.missing: list[str] = []

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(threading.get_ident())
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def spanning(self, fn, name: str):
        index = self.name_index(name)
        ids, local_buffer, clock = self._ids, self._buffer, time.perf_counter

        def wrapper(*args, **kwargs):
            buf = local_buffer()
            sid = next(ids)
            stack = buf.stack
            parent = stack[-1] if stack else 0
            stack.append(sid)
            ok = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = 1
                return result
            finally:
                t1 = clock()
                stack.pop()
                buf.sid.append(sid)
                buf.parent.append(parent)
                buf.name.append(index)
                buf.ok.append(ok)
                buf.t0.append(t0)
                buf.t1.append(t1)
        return wrapper

    def instrument(self) -> None:
        import importlib

        from casca import webutil

        for module_name, owner_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name, None)
            if owner is None or not hasattr(owner, attr):
                # A later version may have moved the function: report the
                # layer as unmeasured instead of failing the run.
                self.missing.append(f"{module_name}.{owner_name or ''}.{attr}")
                continue
            self._patches.replace(owner, attr, lambda fn, n=name: self.spanning(fn, n))
        # Route handlers are wrapped as they are registered.
        tracer = self

        def make_route(route):
            def wrapped_route(server, method, pattern, fn):
                return route(server, method, pattern, tracer.spanning(fn, HANDLER))
            return wrapped_route
        self._patches.replace(webutil.JsonHttpServer, "route", make_route)

    def uninstall(self) -> None:
        self._patches.undo()

    def columns(self) -> dict:
        with self._lock:
            buffers = list(self._buffers)
        cols = {k: [] for k in ("sid", "parent", "name", "ok", "t0", "t1", "thread")}
        for buf in buffers:
            n = min(len(buf.sid), len(buf.t1))
            for key in ("sid", "parent", "name", "ok", "t0", "t1"):
                # tobytes copies under the interpreter lock; a buffer view
                # would make a late append in another thread fail.
                col = getattr(buf, key)
                cols[key].append(np.frombuffer(col.tobytes(), dtype=col.typecode)[:n])
            cols["thread"].append(np.full(n, buf.thread, dtype=np.int64))
        out = {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()}
        out["names"] = np.array(self.names)
        return out


def save(cols: dict, path) -> None:
    np.savez_compressed(path, **cols)


def load(path) -> dict:
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def merge(*tables: dict) -> dict:
    """One table from several (e.g. from two processes); names re-indexed."""
    names: list[str] = []
    out = {k: [] for k in ("sid", "parent", "name", "ok", "t0", "t1", "thread")}
    for table in tables:
        remap = []
        for name in table["names"].tolist():
            if name not in names:
                names.append(name)
            remap.append(names.index(name))
        remap = np.array(remap, dtype=np.int64)
        for key in out:
            col = table[key]
            out[key].append(remap[col.astype(np.int64)] if key == "name" and col.size else col)
    merged = {k: np.concatenate(v) if v else np.zeros(0) for k, v in out.items()}
    merged["names"] = np.array(names)
    return merged


class Analysis:
    """Spans with parents resolved, self times and trace ids."""

    def __init__(self, table: dict):
        self.names = table["names"].tolist()
        self.sid = table["sid"].astype(np.int64)
        self.name = table["name"].astype(np.int64)
        self.ok = table["ok"].astype(bool)
        self.t0, self.t1 = table["t0"], table["t1"]
        self.dur = self.t1 - self.t0
        n = self.sid.size
        order = np.argsort(self.sid)
        self._sorted_sid = self.sid[order]
        self._order = order
        self.parent = self._index_of(table["parent"].astype(np.int64))
        self._attribute_server_spans()
        child_time = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(child_time, self.parent[has_parent], self.dur[has_parent])
        self.self_time = np.maximum(self.dur - child_time, 0.0)
        self.trace = self._trace_ids()

    def _index_of(self, sids: np.ndarray) -> np.ndarray:
        """Row index of each span id, -1 for 0 or an id not recorded."""
        pos = np.searchsorted(self._sorted_sid, sids)
        pos = np.clip(pos, 0, max(self._sorted_sid.size - 1, 0))
        found = (self._sorted_sid.size > 0) & (self._sorted_sid[pos] == sids) & (sids != 0)
        return np.where(found, self._order[pos], -1)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.sid.size, dtype=bool)
        return self.name == self.names.index(name)

    def _attribute_server_spans(self) -> None:
        for server, client in ANSWERS.items():
            roots = np.flatnonzero(self.mask(server) & (self.parent < 0))
            calls = np.flatnonzero(self.mask(client))
            if roots.size == 0 or calls.size == 0:
                continue
            calls = calls[np.argsort(self.t0[calls])]
            pos = np.searchsorted(self.t0[calls], self.t0[roots], side="right") - 1
            valid = pos >= 0
            cand = calls[np.clip(pos, 0, None)]
            valid &= self.t1[cand] >= self.t0[roots]
            self.parent[roots[valid]] = cand[valid]

    def _trace_ids(self) -> np.ndarray:
        session = np.zeros(len(self.names), dtype=bool)
        for i, name in enumerate(self.names):
            session[i] = name in SESSION
        up = self.parent.copy()
        stop = (up < 0) | session[self.name[np.clip(up, 0, None)]]
        up[stop] = np.flatnonzero(stop)
        for _ in range(64):
            nxt = up[up]
            if np.array_equal(nxt, up):
                break
            up = nxt
        return up

    # -- reductions ------------------------------------------------------

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def values(self, name: str, kind: str = "self") -> np.ndarray:
        m = self.mask(name)
        return (self.self_time if kind == "self" else self.dur)[m]

    def children_named(self, rows: np.ndarray, name: str) -> np.ndarray:
        """Rows of spans called `name` whose parent is one of `rows`."""
        m = self.mask(name) & np.isin(self.parent, rows)
        return np.flatnonzero(m)


# -- per-layer metrics ------------------------------------------------------

# name -> unit. Times are medians per call; "self" times exclude children.
LAYER_UNITS = {
    "clients.slo_value_us": "us", "clients.get_value_us": "us",
    "clients.set_value_us": "us", "clients.intensity_us": "us",
    "clients.calls": "count", "clients.errors": "count",
    "webutil.handler_us": "us", "webutil.overhead_us": "us",
    "service_api.slo_value_us": "us", "service_api.controller_rtt_us": "us",
    "service_api.reconfigure_ms": "ms", "service_api.overhead_ms": "ms",
    "emma.lookup_us": "us",
    "decisions.observe_ms": "ms", "decisions.act_ms": "ms", "decisions.decide_ms": "ms",
    "decisions.ppo_update_ms": "ms", "decisions.ppo_updates": "count",
    "decisions.policy_act_us": "us",
    "mock_service.tick_us": "us", "mock_service.set_us": "us",
    "bus.publish_us": "us", "bus.published": "count", "bus.delivered": "count",
    "hook.handle_us": "us", "hook.written": "count", "hook.dropped": "count",
    "store.write_us": "us", "store.points": "count", "store.series": "count",
    "store.query_us": "us", "store.queries": "count",
    "store.dump_s": "s", "store.replay_s": "s",
    "orchestrator.simulate_s": "s", "orchestrator.dump_s": "s", "orchestrator.report_s": "s",
    "gen.late_ms": "ms", "gen.backlog_max": "count",
}

_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}
_OBSERVE = ("clients.slo_value", "clients.get_value", "clients.intensity")


def _median(values, unit: str):
    """(median in `unit`, sample count); None when there are no samples."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return None, 0
    return float(np.median(values)) * _SCALE[unit], int(values.size)


def layer_metrics(a: Analysis, extra: dict) -> dict:
    """Every metric of LAYER_UNITS as name -> (value or None, sample count).

    `extra` supplies what spans do not hold: store.points, store.series,
    gen.late_ms, gen.backlog_max (each already a (value, n) pair).
    """
    out: dict = {}

    def med(name, span, kind="self"):
        out[name] = _median(a.values(span, kind), LAYER_UNITS[name])

    def cnt(name, value):
        out[name] = (int(value), int(value))

    for call in ("slo_value", "get_value", "set_value", "intensity"):
        med(f"clients.{call}_us", f"clients.{call}", "dur")
    calls = a.mask("clients.call")
    cnt("clients.calls", calls.sum())
    cnt("clients.errors", (calls & ~a.ok).sum())
    med("webutil.handler_us", HANDLER, "dur")
    med("webutil.overhead_us", "clients.call", "self")
    med("service_api.slo_value_us", "service_api.slo_value", "dur")
    med("service_api.controller_rtt_us", "service_api.controller", "dur")
    med("service_api.reconfigure_ms", "service_api.reconfigure", "dur")
    # The paper's overhead: a setting read through the gateway against the
    # same read sent straight to the controller (a controller call with no
    # handler above it).
    controller = a.mask("service_api.controller")
    direct = a.dur[controller & (a.parent < 0)]
    gateway = a.values("clients.get_value", "dur")
    if direct.size and gateway.size:
        out["service_api.overhead_ms"] = ((float(np.median(gateway)) - float(np.median(direct))) * 1e3,
                                          int(min(direct.size, gateway.size)))
    else:
        out["service_api.overhead_ms"] = (None, 0)
    med("emma.lookup_us", "emma.lookup")

    steps = np.flatnonzero(a.mask("decisions.step"))
    if steps.size:
        n = a.sid.size
        observe = np.zeros(n)
        act = np.zeros(n)
        for name in _OBSERVE:
            rows = np.flatnonzero(a.mask(name))
            np.add.at(observe, a.trace[rows], a.dur[rows])
        rows = np.flatnonzero(a.mask("clients.set_value"))
        np.add.at(act, a.trace[rows], a.dur[rows])
        out["decisions.observe_ms"] = _median(observe[steps], "ms")
        out["decisions.act_ms"] = _median(act[steps], "ms")
        out["decisions.decide_ms"] = _median(a.dur[steps] - observe[steps] - act[steps], "ms")
    else:
        for name in ("decisions.observe_ms", "decisions.act_ms", "decisions.decide_ms"):
            out[name] = (None, 0)
    med("decisions.ppo_update_ms", "decisions.ppo_update", "dur")
    cnt("decisions.ppo_updates", a.count("decisions.ppo_update"))
    med("decisions.policy_act_us", "decisions.policy_act", "dur")

    med("mock_service.tick_us", "mock_service.tick")
    med("mock_service.set_us", "mock_service.set")
    med("bus.publish_us", "bus.publish")
    cnt("bus.published", a.count("bus.publish"))
    handles = np.flatnonzero(a.mask("hook.handle"))
    written = a.children_named(handles, "store.write").size
    cnt("bus.delivered", handles.size)
    med("hook.handle_us", "hook.handle")
    cnt("hook.written", written)
    cnt("hook.dropped", handles.size - written)
    med("store.write_us", "store.write")
    med("store.query_us", "store.query")
    cnt("store.queries", a.count("store.query"))
    med("store.dump_s", "store.dump", "dur")
    med("store.replay_s", "store.replay", "dur")

    med("orchestrator.simulate_s", "orchestrator.simulate", "dur")
    runs = np.flatnonzero(a.mask("orchestrator.run"))
    if runs.size:
        dumps = np.concatenate([a.children_named(runs, "store.dump"),
                                a.children_named(runs, "decisions.write_csv")])
        out["orchestrator.dump_s"] = (float(a.dur[dumps].sum()) / runs.size, int(runs.size))
    else:
        out["orchestrator.dump_s"] = (None, 0)
    med("orchestrator.report_s", "orchestrator.report", "dur")

    for name in ("store.points", "store.series", "gen.late_ms", "gen.backlog_max"):
        out[name] = extra.get(name, (None, 0))
    return out


def layers_seen(a: Analysis) -> set[str]:
    """Layers with at least one span, by the prefix of the span name."""
    present = {a.names[i].split(".")[0] for i in np.unique(a.name)} if a.sid.size else set()
    return present & set(LAYERS)
