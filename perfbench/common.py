"""Shared pieces of the benchmark: paths, statistics, timers, stack cycles.

Every module of the benchmark imports this one first: it puts the
checkout's `src/` on `sys.path`, so the benchmark always measures the
program in the checkout it sits in, never an installed copy.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def use_checkout_sources() -> None:
    if not (SRC / "casca" / "__init__.py").is_file():
        raise MissingProgram(f"no program sources at {SRC / 'casca'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def clear_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# -- statistics ---------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- machine speed ------------------------------------------------------------

# The CPU this benchmark shares drifts in speed by a fifth or more between
# runs a minute apart, which no amount of work within one run averages
# out. Every run therefore times a fixed loop (Python arithmetic and the
# JSON encoding the program does all the time) at intervals beside the
# workload, and reports its timings scaled to the speed at which the loop
# takes CAL_REF_S (about its median on a 2-CPU x86 cloud VM). The raw
# values are printed as well.
CAL_LOOP = 4_000
CAL_REF_S = 0.5e-3


class Speed:
    """Slowness of the machine during a run, above 1 when it runs slow:
    loop time over CAL_REF_S, for the whole run (factor) or around one
    moment (local). Samples are taken from one thread, in time order."""

    def __init__(self):
        self.times: list[float] = []
        self.slices: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for k in range(CAL_LOOP):
            total += k
            if k % 100 == 0:
                total += len(json.loads(json.dumps({"t": "fps/c1", "p": {"fps": k}, "ts": k})))
        elapsed = time.perf_counter() - t0
        self.times.append(t0)
        self.slices.append(elapsed)
        return elapsed

    def factor(self) -> float:
        return median(self.slices) / CAL_REF_S if self.slices else 1.0

    def local(self, t: float) -> float:
        """Slowness from the (up to) four samples nearest to time t."""
        if not self.slices:
            return 1.0
        i = bisect.bisect_left(self.times, t)
        return median(self.slices[max(0, i - 2):i + 2]) / CAL_REF_S

    def scaled(self, samples) -> list[float]:
        """(start time, seconds) samples as seconds at the reference speed."""
        return [d / self.local(t) for t, d in samples]

    def scaled_span(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1 at the reference speed, each stretch between
        two samples at its own slowness, the sampling itself left out."""
        total, cursor = 0.0, t0
        i = bisect.bisect_left(self.times, t0)
        while cursor < t1:
            nxt = self.times[i] if i < len(self.times) and self.times[i] < t1 else t1
            total += (nxt - cursor) / self.local(cursor)
            if nxt >= t1:
                break
            cursor = min(self.times[i] + self.slices[i], t1)
            i += 1
        return total


# -- light timers -------------------------------------------------------------


class Patches:
    """Replaces attributes of classes or modules and puts them back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object, bool]] = []

    def replace(self, owner, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr)
        owned = attr in vars(owner)
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original, owned))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original, owned = self._undo.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def timing(sink: list):
    """Wrapper factory that appends (start, seconds, ok) of every call to
    `sink`. An exception is recorded with ok=False and re-raised."""
    def make(fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                sink.append((t0, time.perf_counter() - t0, ok))
        return wrapper
    return make


def timing_summary(name: str, samples, speed: Speed | None, scale: float = 1e3) -> dict:
    """p50, p95 and p99 of (start, seconds) samples, each metric as
    (raw, at reference speed, sample count) in units of 1/scale s. Without
    `speed` the samples are not CPU-bound and both values are the raw one."""
    out = {}
    raw = [d for _, d in samples]
    scaled = speed.scaled(samples) if speed is not None else raw
    for q in (50, 95, 99):
        if raw:
            out[f"{name}_p{q}"] = (percentile(raw, q / 100) * scale,
                                   percentile(scaled, q / 100) * scale, len(raw))
        else:
            out[f"{name}_p{q}"] = (None, None, 0)
    return out


# -- set-up and stop cycles ---------------------------------------------------


def stack_cycles(scenario, cycles: int, speed: Speed | None = None
                 ) -> tuple[list[float], list[float]]:
    """Boot and stop the scenario's stack `cycles` times.

    Between boot and stop each HTTP server answers one request, so every
    stop begins at the same point of the servers' life and the stop time
    is measured under the same conditions in every workload: right after
    a request, which is the longest wait on a server's 0.5 s poll. One
    untimed cycle first loads what the first request of a process loads.
    `speed`, when given, is sampled before every boot.
    """
    from casca.clients import EmmaApiClient, ServiceApiClient
    from casca.orchestrator import Stack

    boots, stops = [], []
    for _ in range(cycles + 1 if cycles else 0):
        stack = Stack(scenario)
        if speed is not None:
            speed.sample()
        t0 = time.perf_counter()
        stack.boot()
        boots.append(time.perf_counter() - t0)
        try:
            gateway = ServiceApiClient(stack.api.address)
            emma = EmmaApiClient(stack.emma.address)
            try:
                emma.sources()
                gateway.list_slos()
            finally:
                gateway.close()
                emma.close()
        finally:
            t0 = time.perf_counter()
            stack.stop()
            stops.append(time.perf_counter() - t0)
    return boots[1:], stops[1:]


def environment_record() -> dict:
    import platform

    record = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for module in ("numpy", "requests"):
        try:
            record[module] = __import__(module).__version__
        except ImportError:
            record[module] = None
    record["commit"] = git_commit()
    record["environ_vars"] = len(os.environ)
    record["environ_bytes"] = sum(len(k) + len(v) + 2 for k, v in os.environ.items())
    return record


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
