"""Tests for the carbon-intensity service: datasets, mix math, HTTP API."""

import random

import pytest
import requests

from casca.clients import EmmaApiClient
from casca.emma import (
    GRANULARITIES,
    SOURCES,
    EmmaService,
    LocationIndex,
    load_location_dataset,
    load_source_table,
    mix_intensity,
    validate_mix,
)
from casca.errors import OutOfRangeError, UnknownEntityError, ValidationError

SOURCE_ROWS = {
    "coal": 820.0, "gas": 490.0, "oil": 650.0, "nuclear": 12.0, "hydro": 24.0,
    "wind": 11.0, "solar": 41.0, "biomass": 230.0, "geothermal": 38.0,
}


def write_sources(tmp_path, rows=None, header="source,intensity_gco2eq_kwh"):
    rows = SOURCE_ROWS if rows is None else rows
    lines = [header] + [f"{s},{v}" for s, v in rows.items()]
    path = tmp_path / "sources.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_locations(tmp_path, rows, header="country,timestamp_ms,granularity,intensity_gco2eq_kwh"):
    lines = [header] + [f"{c},{ts},{g},{v}" for c, ts, g, v in rows]
    path = tmp_path / "locations.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestSourceTable:
    def test_load(self, tmp_path):
        table = load_source_table(write_sources(tmp_path))
        assert table == SOURCE_ROWS
        assert set(table) == set(SOURCES)

    def test_rejects_bad_header(self, tmp_path):
        with pytest.raises(ValidationError, match="header"):
            load_source_table(write_sources(tmp_path, header="src,value"))

    def test_rejects_unknown_source(self, tmp_path):
        rows = dict(SOURCE_ROWS, fusion=1.0)
        with pytest.raises(ValidationError, match="unknown source"):
            load_source_table(write_sources(tmp_path, rows))

    def test_rejects_missing_source(self, tmp_path):
        rows = {s: v for s, v in SOURCE_ROWS.items() if s != "wind"}
        with pytest.raises(ValidationError, match="missing sources: wind"):
            load_source_table(write_sources(tmp_path, rows))

    def test_rejects_non_numeric_with_line_number(self, tmp_path):
        rows = dict(SOURCE_ROWS, coal="dirty")
        with pytest.raises(ValidationError, match=":2:"):
            load_source_table(write_sources(tmp_path, rows))


class TestMix:
    def test_weighted_mean(self):
        shares = {"coal": 0.5, "wind": 0.5}
        assert mix_intensity(shares, SOURCE_ROWS) == pytest.approx(0.5 * 820 + 0.5 * 11)

    def test_single_source(self):
        assert mix_intensity({"nuclear": 1.0}, SOURCE_ROWS) == 12.0

    def test_linearity_randomized(self):
        rng = random.Random(2024)
        for _ in range(200):
            picked = rng.sample(SOURCES, rng.randint(1, len(SOURCES)))
            weights = [rng.random() for _ in picked]
            total = sum(weights)
            shares = {s: w / total for s, w in zip(picked, weights)}
            got = mix_intensity(shares, SOURCE_ROWS)
            expected = sum(shares[s] * SOURCE_ROWS[s] for s in picked)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_share_validation(self):
        with pytest.raises(ValidationError):
            validate_mix({})
        with pytest.raises(ValidationError):
            validate_mix({"coal": 0.5})  # sums to 0.5
        with pytest.raises(ValidationError):
            validate_mix({"coal": 1.2, "wind": -0.2})
        with pytest.raises(ValidationError):
            validate_mix({"plutonium": 1.0})
        with pytest.raises(ValidationError):
            validate_mix({"coal": True, "wind": 0.0})

    def test_share_sum_tolerance(self):
        # tiny float error is accepted, a visible gap is not
        validate_mix({"coal": 0.3, "gas": 0.3, "wind": 0.4 + 5e-7})
        with pytest.raises(ValidationError):
            validate_mix({"coal": 0.3, "gas": 0.3, "wind": 0.41})


class TestLocationIndex:
    def test_nearest_earlier(self):
        idx = LocationIndex()
        idx.add("AT", 1000, "hourly", 100.0)
        idx.add("AT", 2000, "hourly", 200.0)
        idx.add("AT", 3000, "hourly", 300.0)
        assert idx.lookup("AT", 1000, "hourly") == 100.0  # exact hit
        assert idx.lookup("AT", 1500, "hourly") == 100.0  # between records
        assert idx.lookup("AT", 2999, "hourly") == 200.0
        assert idx.lookup("AT", 99999, "hourly") == 300.0  # after last record

    def test_before_earliest_is_out_of_range(self):
        idx = LocationIndex()
        idx.add("AT", 1000, "hourly", 100.0)
        with pytest.raises(OutOfRangeError):
            idx.lookup("AT", 999, "hourly")

    def test_unknown_country_or_granularity(self):
        idx = LocationIndex()
        idx.add("AT", 1000, "hourly", 100.0)
        with pytest.raises(UnknownEntityError):
            idx.lookup("DE", 1000, "hourly")
        with pytest.raises(UnknownEntityError):
            idx.lookup("AT", 1000, "daily")  # granularities are separate series
        with pytest.raises(ValidationError):
            idx.lookup("AT", 1000, "weekly")

    def test_duplicate_ts_rejected(self):
        idx = LocationIndex()
        idx.add("AT", 1000, "hourly", 100.0)
        with pytest.raises(ValidationError, match="duplicate"):
            idx.add("AT", 1000, "hourly", 200.0)
        idx.add("AT", 1000, "daily", 200.0)  # other granularity is fine

    def test_randomized_against_linear_scan(self):
        """bisect lookup must agree with a linear scan for the nearest earlier record."""
        rng = random.Random(77)
        idx = LocationIndex()
        records = []
        used = set()
        for _ in range(500):
            ts = rng.randint(0, 100_000)
            if ts in used:
                continue
            used.add(ts)
            v = round(rng.uniform(10, 900), 2)
            idx.add("XX", ts, "hourly", v)
            records.append((ts, v))
        records.sort()
        for _ in range(500):
            q = rng.randint(-100, 110_000)
            earlier = [(ts, v) for ts, v in records if ts <= q]
            if not earlier:
                with pytest.raises(OutOfRangeError):
                    idx.lookup("XX", q, "hourly")
            else:
                assert idx.lookup("XX", q, "hourly") == earlier[-1][1]

    def test_countries_sorted(self):
        idx = LocationIndex()
        idx.add("DE", 1, "hourly", 1.0)
        idx.add("AT", 1, "hourly", 1.0)
        assert idx.countries() == ["AT", "DE"]


class TestLocationDataset:
    def test_load(self, tmp_path):
        path = write_locations(tmp_path, [("AT", 1000, "hourly", 120.5), ("DE", 1000, "hourly", 300.0)])
        idx = load_location_dataset(path)
        assert idx.lookup("AT", 1500, "hourly") == 120.5
        assert idx.countries() == ["AT", "DE"]

    def test_rejects_bad_country_code(self, tmp_path):
        for bad in ("AUT", "a1", "at"):
            path = write_locations(tmp_path, [(bad, 1000, "hourly", 100.0)])
            with pytest.raises(ValidationError, match="alpha-2"):
                load_location_dataset(path)

    def test_rejects_bad_granularity_with_line(self, tmp_path):
        path = write_locations(tmp_path, [("AT", 1000, "hourly", 1.0), ("AT", 2000, "minutely", 1.0)])
        with pytest.raises(ValidationError, match=":3:"):
            load_location_dataset(path)

    def test_rejects_bad_header(self, tmp_path):
        path = write_locations(tmp_path, [], header="a,b,c,d")
        with pytest.raises(ValidationError, match="header"):
            load_location_dataset(path)


@pytest.fixture()
def emma(tmp_path):
    service = EmmaService(
        write_sources(tmp_path),
        write_locations(tmp_path, [
            ("AT", 1000, "hourly", 100.0),
            ("AT", 2000, "hourly", 200.0),
            ("AT", 5000, "daily", 42.0),
        ]),
        listen="127.0.0.1:0",
    )
    yield service
    service.stop()


class TestHttpApi:
    def test_intensity(self, emma):
        r = requests.get(f"http://{emma.address}/intensity",
                         params={"country": "AT", "ts": 1500, "granularity": "hourly"})
        assert r.status_code == 200
        assert r.json() == {"country": "AT", "ts": 1500, "granularity": "hourly",
                            "intensity_gco2eq_kwh": 100.0}
        client = EmmaApiClient(f"http://{emma.address}")
        assert client.intensity("AT", 1500, "hourly") == 100.0

    def test_intensity_errors_mapped_to_status(self, emma):
        base = f"http://{emma.address}"
        r = requests.get(f"{base}/intensity", params={"country": "AT", "ts": 500, "granularity": "hourly"})
        assert r.status_code == 416
        r = requests.get(f"{base}/intensity", params={"country": "FR", "ts": 1500, "granularity": "hourly"})
        assert r.status_code == 404
        r = requests.get(f"{base}/intensity", params={"country": "AT", "ts": 1500, "granularity": "weekly"})
        assert r.status_code == 400
        r = requests.get(f"{base}/intensity", params={"country": "AT", "granularity": "hourly"})
        assert r.status_code == 400  # ts missing
        r = requests.get(f"{base}/intensity", params={"country": "AT", "ts": "noon", "granularity": "hourly"})
        assert r.status_code == 400
        assert "error" in r.json()

    def test_client_raises_typed_errors(self, emma):
        client = EmmaApiClient(f"http://{emma.address}")
        with pytest.raises(OutOfRangeError):
            client.intensity("AT", 500, "hourly")
        with pytest.raises(UnknownEntityError):
            client.intensity("FR", 1500, "hourly")

    def test_mix(self, emma):
        client = EmmaApiClient(f"http://{emma.address}")
        assert client.mix_intensity({"wind": 0.5, "solar": 0.5}) == pytest.approx(26.0)
        r = requests.post(f"http://{emma.address}/intensity/mix",
                          json={"shares": {"wind": 0.5, "solar": 0.5}})
        assert set(r.json()) == {"intensity_gco2eq_kwh"}

    def test_mix_rejects_bad_body(self, emma):
        base = f"http://{emma.address}"
        r = requests.post(f"{base}/intensity/mix", json={"wrong": 1})
        assert r.status_code == 400
        r = requests.post(f"{base}/intensity/mix", json={"shares": {"coal": 0.5}})
        assert r.status_code == 400
        r = requests.post(f"{base}/intensity/mix", data=b"not json",
                          headers={"Content-Type": "application/json"})
        assert r.status_code == 400

    def test_sources_sorted(self, emma):
        client = EmmaApiClient(f"http://{emma.address}")
        table = client.sources()
        assert list(table) == sorted(SOURCES)
        assert table["wind"] == 11.0

    def test_unknown_route_404(self, emma):
        r = requests.get(f"http://{emma.address}/nope")
        assert r.status_code == 404
