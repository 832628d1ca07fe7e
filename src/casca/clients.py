"""HTTP clients for the three service surfaces.

Decision systems observe and act exclusively through these: the SLO API,
the setting-control API (both served by the gateway) and the carbon API.
Each client keeps one HTTP/1.1 connection alive (stdlib `http.client`).
Server-side error statuses are raised as the matching domain exceptions.
An optional ResponseRecorder captures every response body, which lets
tests scan whole conversations for content that must never appear.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass, field
from urllib.parse import urlencode, urlsplit

from .errors import (CascaError, ControllerUnreachableError, OutOfRangeError,
                     UnknownEntityError, ValidationError)

TIMEOUT_S = 10.0

_ERROR_BY_STATUS = {
    400: ValidationError,
    404: UnknownEntityError,
    416: OutOfRangeError,
    502: ControllerUnreachableError,
}


@dataclass
class RecordedResponse:
    method: str
    path: str
    status: int
    body: str


@dataclass
class ResponseRecorder:
    responses: list = field(default_factory=list)

    def record(self, method: str, path: str, status: int, body: str) -> None:
        self.responses.append(RecordedResponse(method, path, status, body))


def normalize_base(endpoint: str) -> str:
    if endpoint.startswith("https://"):
        raise ValidationError(f"https endpoints are not supported: {endpoint!r}")
    if endpoint.startswith("http://"):
        return endpoint.rstrip("/")
    return "http://" + endpoint.rstrip("/")


class _HttpClient:
    def __init__(self, endpoint: str, recorder: ResponseRecorder | None = None):
        self.base = normalize_base(endpoint)
        self.recorder = recorder
        base = urlsplit(self.base)
        self._prefix = base.path
        self._conn = http.client.HTTPConnection(base.netloc, timeout=TIMEOUT_S)

    def _call(self, method: str, path: str, params=None, body=None):
        url = self.base + path
        target = self._prefix + path + ("?" + urlencode(params) if params else "")
        headers, payload = {}, None
        if body is not None:
            headers["Content-Type"] = "application/json"
            payload = json.dumps(body, allow_nan=False).encode("utf-8")
        while True:
            reused = self._conn.sock is not None
            try:
                self._conn.request(method, target, body=payload, headers=headers)
                resp = self._conn.getresponse()
                text = resp.read().decode("utf-8")
                break
            except (OSError, http.client.HTTPException) as exc:
                self._conn.close()
                # A kept-alive connection the server has closed is reopened once.
                if not (reused and isinstance(exc, ConnectionError)):
                    raise CascaError(f"request to {url} failed: {exc}") from exc
        if self.recorder is not None:
            self.recorder.record(method, path, resp.status, text)
        if resp.status == 204:
            return None
        if 200 <= resp.status < 300:
            return json.loads(text)
        error_cls = _ERROR_BY_STATUS.get(resp.status, CascaError)
        try:
            message = json.loads(text).get("error", text)
        except ValueError:
            message = text
        raise error_cls(f"{method} {path} -> {resp.status}: {message}")

    def close(self) -> None:
        self._conn.close()


class SloApiClient(_HttpClient):
    def list_slos(self) -> list[dict]:
        return self._call("GET", "/slos")

    def get_slo(self, slo_id: str) -> dict:
        return self._call("GET", f"/slos/{slo_id}")

    def slo_value(self, slo_id: str) -> dict | None:
        """{'value','fulfilled'} or None when the SLO has no data yet."""
        return self._call("GET", f"/slos/{slo_id}/value")


class ControlApiClient(_HttpClient):
    def list_settings(self) -> list[dict]:
        return self._call("GET", "/settings")

    def get_setting(self, setting_id: str) -> dict:
        return self._call("GET", f"/settings/{setting_id}")

    def get_value(self, setting_id: str):
        return self._call("GET", f"/settings/{setting_id}/value")["value"]

    def set_value(self, setting_id: str, value):
        return self._call("PUT", f"/settings/{setting_id}/value", body={"value": value})["value"]

    def reconfigure(self, path: str | None = None) -> dict:
        body = {"path": path} if path is not None else {}
        return self._call("POST", "/reconfigure", body=body)


class ServiceApiClient(SloApiClient, ControlApiClient):
    """Both halves of the gateway on one connection."""


class EmmaApiClient(_HttpClient):
    def intensity(self, country: str, ts: int, granularity: str) -> float:
        obj = self._call("GET", "/intensity",
                         params={"country": country, "ts": ts, "granularity": granularity})
        return float(obj["intensity_gco2eq_kwh"])

    def mix_intensity(self, shares: dict) -> float:
        obj = self._call("POST", "/intensity/mix", body={"shares": shares})
        return float(obj["intensity_gco2eq_kwh"])

    def sources(self) -> dict:
        return self._call("GET", "/sources")["sources"]
