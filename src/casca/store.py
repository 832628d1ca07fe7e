"""In-memory time-series store with windowed aggregation queries.

Points are keyed by (measurement, tag set); a re-write of the same key at
the same timestamp replaces the earlier fields (last write wins). Queries
use a small text form:

    <agg>(<measurement>.<field>, <window>s) [where k=v[, k=v...]]

with agg one of last / mean / min / max / count, evaluated over the
half-open window (now - window, now]. An optional NDJSON journal makes the
contents recoverable across restarts; the same record shape (keys `m`,
`tg`, `f`, `ts`) is used by `dump_jsonl`.
"""

from __future__ import annotations

import bisect
import json
import threading
from dataclasses import dataclass, field

from . import linejson
from .errors import QueryParseError, ValidationError

AGGREGATIONS = ("last", "mean", "min", "max", "count")

_IDENT_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


@dataclass(frozen=True)
class TelemetryPoint:
    measurement: str
    tags: dict
    fields: dict
    ts: int

    def validate(self) -> "TelemetryPoint":
        if not self.measurement or not isinstance(self.measurement, str):
            raise ValidationError("measurement must be a non-empty string")
        if not isinstance(self.ts, int) or self.ts < 0:
            raise ValidationError(f"ts must be a non-negative integer, got {self.ts!r}")
        if not isinstance(self.fields, dict) or not self.fields:
            raise ValidationError("fields must be a non-empty mapping")
        for k, v in self.fields.items():
            if not isinstance(k, str):
                raise ValidationError("field names must be strings")
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValidationError(f"field {k!r} must be numeric, got {v!r}")
        for k, v in self.tags.items():
            if not isinstance(k, str) or not isinstance(v, str):
                raise ValidationError("tags must map strings to strings")
        return self


@dataclass(frozen=True)
class QuerySpec:
    agg: str
    measurement: str
    field_name: str
    window_s: int
    tags: tuple = field(default=())

    def tag_dict(self) -> dict:
        return dict(self.tags)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None) -> QueryParseError:
        at = self.pos if pos is None else pos
        return QueryParseError(f"{message} at position {at} in {self.text!r}", position=at)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def expect(self, ch: str) -> None:
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def ident(self, what: str) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CHARS:
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected {what}")
        return self.text[start:self.pos]

    def integer(self, what: str) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected {what}")
        return int(self.text[start:self.pos])

    def at_end(self) -> bool:
        return self.pos >= len(self.text)


def parse_query(text: str) -> QuerySpec:
    """Parse the query text form; raises QueryParseError with a position."""
    if not isinstance(text, str):
        raise QueryParseError("query must be a string", position=0)
    sc = _Scanner(text)
    sc.skip_ws()
    agg_start = sc.pos
    agg = sc.ident("aggregation name")
    if agg not in AGGREGATIONS:
        raise sc.error(f"unknown aggregation {agg!r}, expected one of {', '.join(AGGREGATIONS)}", agg_start)
    sc.skip_ws()
    sc.expect("(")
    sc.skip_ws()
    measurement = sc.ident("measurement name")
    sc.expect(".")
    field_name = sc.ident("field name")
    sc.skip_ws()
    sc.expect(",")
    sc.skip_ws()
    window_s = sc.integer("window length")
    sc.expect("s")
    sc.skip_ws()
    sc.expect(")")
    sc.skip_ws()
    tags: list[tuple[str, str]] = []
    if not sc.at_end():
        kw_start = sc.pos
        kw = sc.ident("'where'")
        if kw != "where":
            raise sc.error(f"expected 'where', got {kw!r}", kw_start)
        while True:
            sc.skip_ws()
            key = sc.ident("tag name")
            sc.skip_ws()
            sc.expect("=")
            sc.skip_ws()
            value = sc.ident("tag value")
            tags.append((key, value))
            sc.skip_ws()
            if sc.at_end():
                break
            sc.expect(",")
    if not sc.at_end():
        raise sc.error("unexpected trailing text")
    if window_s <= 0:
        raise QueryParseError(f"window must be positive, got {window_s}s", position=0)
    return QuerySpec(agg=agg, measurement=measurement, field_name=field_name,
                     window_s=window_s, tags=tuple(sorted(tags)))


def format_query(spec: QuerySpec) -> str:
    """Canonical text for a query spec (tags sorted by key)."""
    base = f"{spec.agg}({spec.measurement}.{spec.field_name}, {spec.window_s}s)"
    if spec.tags:
        base += " where " + ", ".join(f"{k}={v}" for k, v in sorted(spec.tags))
    return base


class _Series:
    """Points of one (measurement, tags) key, sorted by timestamp."""

    __slots__ = ("tags", "ts_list", "rows")

    def __init__(self, tags: dict):
        self.tags = tags
        self.ts_list: list[int] = []
        self.rows: list[tuple[int, dict]] = []  # (write_seq, fields), parallel to ts_list

    def upsert(self, ts: int, seq: int, fields: dict) -> None:
        i = bisect.bisect_left(self.ts_list, ts)
        if i < len(self.ts_list) and self.ts_list[i] == ts:
            self.rows[i] = (seq, dict(fields))
        else:
            self.ts_list.insert(i, ts)
            self.rows.insert(i, (seq, dict(fields)))


class TimeSeriesStore:
    """Thread-safe store; aggregation pools every series matching the filter."""

    def __init__(self, journal_path: str | None = None):
        self._lock = threading.RLock()
        self._series: dict[tuple, _Series] = {}
        self._seq = 0
        self._journal = None
        if journal_path is not None:
            self._journal = open(journal_path, "a", encoding="utf-8")

    def write(self, point: TelemetryPoint) -> None:
        point.validate()
        self._write(point, journal=True)

    def _write(self, point: TelemetryPoint, journal: bool) -> None:
        key = (point.measurement, tuple(sorted(point.tags.items())))
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _Series(dict(point.tags))
            self._seq += 1
            series.upsert(point.ts, self._seq, point.fields)
            if journal and self._journal is not None:
                self._journal.write(json.dumps(
                    {"m": point.measurement, "tg": point.tags, "f": point.fields, "ts": point.ts}) + "\n")
                self._journal.flush()

    def count(self) -> int:
        with self._lock:
            return sum(len(s.ts_list) for s in self._series.values())

    def query(self, spec: QuerySpec | str, now_ms: int) -> float | None:
        """Aggregate over (now - window, now]. None when no point carries the field."""
        if isinstance(spec, str):
            spec = parse_query(spec)
        lo = now_ms - spec.window_s * 1000
        want = spec.tag_dict()
        values: list[float] = []
        last_key = None
        last_value = None
        with self._lock:
            for (measurement, _), series in self._series.items():
                if measurement != spec.measurement:
                    continue
                if any(series.tags.get(k) != v for k, v in want.items()):
                    continue
                start = bisect.bisect_right(series.ts_list, lo)
                end = bisect.bisect_right(series.ts_list, now_ms)
                for i in range(start, end):
                    seq, fields = series.rows[i]
                    if spec.field_name not in fields:
                        continue
                    v = float(fields[spec.field_name])
                    values.append(v)
                    key = (series.ts_list[i], seq)
                    if last_key is None or key > last_key:
                        last_key = key
                        last_value = v
        if spec.agg == "count":
            return float(len(values))
        if not values:
            return None
        if spec.agg == "last":
            return last_value
        if spec.agg == "mean":
            return sum(values) / len(values)
        if spec.agg == "min":
            return min(values)
        return max(values)

    def points(self) -> list[TelemetryPoint]:
        """Every stored point ordered by (ts, write order)."""
        out = []
        with self._lock:
            for (measurement, _), series in self._series.items():
                for i, ts in enumerate(series.ts_list):
                    seq, fields = series.rows[i]
                    out.append((ts, seq, TelemetryPoint(measurement, dict(series.tags), dict(fields), ts)))
        out.sort(key=lambda row: (row[0], row[1]))
        return [p for (_, _, p) in out]

    def dump_jsonl(self, path: str) -> int:
        pts = self.points()
        with open(path, "w", encoding="utf-8") as fh:
            for p in pts:
                fh.write(json.dumps({"m": p.measurement, "tg": p.tags, "f": p.fields, "ts": p.ts}) + "\n")
        return len(pts)

    def replay(self, path: str) -> int:
        """Load journal/dump records; returns the number applied."""
        n = 0
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    point = TelemetryPoint(obj["m"], obj.get("tg", {}), obj["f"], obj["ts"]).validate()
                except (json.JSONDecodeError, KeyError, TypeError, ValidationError) as exc:
                    raise ValidationError(f"bad journal record on line {lineno}: {exc}") from exc
                self._write(point, journal=False)
                n += 1
        return n

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None


class StoreServer(linejson.Server):
    """Line-JSON TCP access to a store, for processes without the object.

    Requests: {"op":"write","m","tg","f","ts"}, {"op":"query","q","now"},
    {"op":"count"}. Responses: {"ok":true,...} or {"ok":false,"error"}.
    """

    def __init__(self, store: TimeSeriesStore, listen: str = "127.0.0.1:0"):
        self.store = store
        super().__init__(listen, linejson.answering(self._handle))

    def _handle(self, req) -> dict:
        op = req.get("op") if isinstance(req, dict) else None
        try:
            if op == "write":
                point = TelemetryPoint(req.get("m"), req.get("tg", {}), req.get("f"), req.get("ts"))
                self.store.write(point)
                return {"ok": True}
            if op == "query":
                value = self.store.query(req.get("q", ""), int(req.get("now")))
                return {"ok": True, "value": value}
            if op == "count":
                return {"ok": True, "count": self.store.count()}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except (ValidationError, TypeError, ValueError) as exc:
            return {"ok": False, "error": str(exc)}


class RemoteStore(linejson.Client):
    """Client for StoreServer with the TimeSeriesStore read/write surface."""

    peer = "store"
    unreachable = ValidationError

    def write(self, point: TelemetryPoint) -> None:
        self.request({"op": "write", "m": point.measurement, "tg": point.tags,
                      "f": point.fields, "ts": point.ts})

    def query(self, query: str | QuerySpec, now_ms: int) -> float | None:
        if isinstance(query, QuerySpec):
            query = format_query(query)
        return self.request({"op": "query", "q": query, "now": now_ms}).get("value")

    def count(self) -> int:
        return int(self.request({"op": "count"})["count"])
