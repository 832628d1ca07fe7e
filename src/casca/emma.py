"""Energy Mix Manager: carbon-intensity computation and lookup service.

Two data sets, both plain CSV so deployments can swap in their own:

* per-source intensities (`source,intensity_gco2eq_kwh`) used to compute
  the weighted carbon intensity of an energy mix;
* a per-location time series (`country,timestamp_ms,granularity,
  intensity_gco2eq_kwh`) answering "intensity at country X at time t"
  with nearest-earlier resolution.

Served over HTTP: GET /intensity, POST /intensity/mix, GET /sources.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import logging
import sys
import threading

from .errors import OutOfRangeError, UnknownEntityError, ValidationError
from .webutil import JsonHttpServer, require_int

log = logging.getLogger("casca.emma")

DEFAULT_LISTEN = "127.0.0.1:7813"

SOURCES = ("coal", "gas", "oil", "nuclear", "hydro", "wind", "solar", "biomass", "geothermal")
GRANULARITIES = ("hourly", "daily", "monthly", "yearly")

SHARE_SUM_TOLERANCE = 1e-6


def load_source_table(path: str) -> dict[str, float]:
    """Per-source gCO2eq/kWh table; requires every known source."""
    table: dict[str, float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["source", "intensity_gco2eq_kwh"]:
            raise ValidationError(f"bad header in {path!r}: {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValidationError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            source, raw = row
            if source not in SOURCES:
                raise ValidationError(f"{path}:{lineno}: unknown source {source!r}")
            try:
                intensity = float(raw)
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: intensity {raw!r} is not a number")
            if intensity < 0:
                raise ValidationError(f"{path}:{lineno}: negative intensity for {source}")
            table[source] = intensity
    missing = [s for s in SOURCES if s not in table]
    if missing:
        raise ValidationError(f"{path!r} is missing sources: {', '.join(missing)}")
    return table


def validate_mix(shares: dict) -> dict[str, float]:
    if not isinstance(shares, dict) or not shares:
        raise ValidationError("shares must be a non-empty object")
    out: dict[str, float] = {}
    total = 0.0
    for source, share in shares.items():
        if source not in SOURCES:
            raise ValidationError(f"unknown source {source!r} in mix")
        if isinstance(share, bool) or not isinstance(share, (int, float)):
            raise ValidationError(f"share for {source} must be numeric")
        share = float(share)
        if not 0.0 <= share <= 1.0:
            raise ValidationError(f"share for {source} must be in [0,1], got {share}")
        out[source] = share
        total += share
    if abs(total - 1.0) > SHARE_SUM_TOLERANCE:
        raise ValidationError(f"shares must sum to 1, got {total}")
    return out


def mix_intensity(shares: dict, table: dict[str, float]) -> float:
    """Weighted mean intensity of the mix, gCO2eq/kWh."""
    shares = validate_mix(shares)
    return sum(share * table[source] for source, share in shares.items())


class LocationIndex:
    """(country, granularity) -> parallel sorted lists of ts and intensity."""

    def __init__(self):
        self._data: dict[tuple[str, str], tuple[list[int], list[float]]] = {}

    def add(self, country: str, ts: int, granularity: str, intensity: float) -> None:
        key = (country, granularity)
        ts_list, vals = self._data.setdefault(key, ([], []))
        i = bisect.bisect_left(ts_list, ts)
        if i < len(ts_list) and ts_list[i] == ts:
            raise ValidationError(f"duplicate record for {country}/{granularity} at ts={ts}")
        ts_list.insert(i, ts)
        vals.insert(i, intensity)

    def lookup(self, country: str, ts: int, granularity: str) -> float:
        if granularity not in GRANULARITIES:
            raise ValidationError(f"granularity must be one of {GRANULARITIES}, got {granularity!r}")
        key = (country, granularity)
        if key not in self._data:
            raise UnknownEntityError(f"no {granularity} data for country {country!r}")
        ts_list, vals = self._data[key]
        i = bisect.bisect_right(ts_list, ts)
        if i == 0:
            raise OutOfRangeError(
                f"ts={ts} precedes earliest {granularity} record for {country} ({ts_list[0]})")
        return vals[i - 1]

    def countries(self) -> list[str]:
        return sorted({c for (c, _) in self._data})


def load_location_dataset(path: str) -> LocationIndex:
    index = LocationIndex()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["country", "timestamp_ms", "granularity", "intensity_gco2eq_kwh"]:
            raise ValidationError(f"bad header in {path!r}: {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ValidationError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            country, raw_ts, granularity, raw_intensity = row
            if len(country) != 2 or not country.isalpha() or not country.isupper():
                raise ValidationError(f"{path}:{lineno}: country {country!r} is not ISO-3166 alpha-2")
            if granularity not in GRANULARITIES:
                raise ValidationError(f"{path}:{lineno}: granularity {granularity!r} not in {GRANULARITIES}")
            try:
                ts = int(raw_ts)
                intensity = float(raw_intensity)
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: malformed numeric value")
            if intensity < 0:
                raise ValidationError(f"{path}:{lineno}: negative intensity")
            index.add(country, ts, granularity, intensity)
    return index


class EmmaService:
    """Loaded datasets plus the HTTP front-end, serving once constructed."""

    def __init__(self, sources_path: str, locations_path: str, listen: str = DEFAULT_LISTEN):
        self.sources = load_source_table(sources_path)
        self.locations = load_location_dataset(locations_path)
        self._http = JsonHttpServer(listen, "emma", [
            ("GET", r"/intensity", self._get_intensity),
            ("POST", r"/intensity/mix", self._post_mix),
            ("GET", r"/sources", self._get_sources),
        ])

    @property
    def address(self) -> str:
        return self._http.address

    def _get_intensity(self, req):
        country = req.query.get("country")
        if not country:
            raise ValidationError("missing query parameter 'country'")
        ts = require_int(req.query, "ts")
        granularity = req.query.get("granularity")
        if not granularity:
            raise ValidationError("missing query parameter 'granularity'")
        value = self.locations.lookup(country, ts, granularity)
        return {"country": country, "ts": ts, "granularity": granularity,
                "intensity_gco2eq_kwh": value}

    def _post_mix(self, req):
        if not isinstance(req.body, dict) or "shares" not in req.body:
            raise ValidationError("body must be a JSON object with a 'shares' key")
        return {"intensity_gco2eq_kwh": mix_intensity(req.body["shares"], self.sources)}

    def _get_sources(self, req):
        return {"sources": dict(sorted(self.sources.items()))}

    def stop(self) -> None:
        self._http.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="emma", description="Carbon-intensity HTTP service.")
    parser.add_argument("--sources", required=True, help="per-source intensity CSV")
    parser.add_argument("--locations", required=True, help="per-location intensity CSV")
    parser.add_argument("--listen", default=DEFAULT_LISTEN, help="host:port to bind")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        service = EmmaService(args.sources, args.locations, listen=args.listen)
    except (ValidationError, OSError) as exc:
        parser.error(str(exc))
    log.info("emma serving on %s (%d sources, countries: %s)",
             service.address, len(service.sources), ", ".join(service.locations.countries()))
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
