"""HTTP clients for the three service surfaces.

Decision systems observe and act exclusively through these: the SLO API,
the setting-control API (both served by the gateway) and the carbon API.
Server-side error statuses are raised as the matching domain exceptions.
An optional ResponseRecorder captures every response body, which lets
tests scan whole conversations for content that must never appear.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import requests

from .errors import (CascaError, ControllerUnreachableError, OutOfRangeError,
                     UnknownEntityError, ValidationError)

log = logging.getLogger("casca.clients")

DEFAULT_TIMEOUT = 10.0

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
    if endpoint.startswith("http://") or endpoint.startswith("https://"):
        return endpoint.rstrip("/")
    return "http://" + endpoint.rstrip("/")


class _HttpClient:
    def __init__(self, endpoint: str, recorder: ResponseRecorder | None = None,
                 timeout: float = DEFAULT_TIMEOUT):
        self.base = normalize_base(endpoint)
        self.recorder = recorder
        self.timeout = timeout
        self._session = requests.Session()

    def _call(self, method: str, path: str, params=None, body=None):
        url = self.base + path
        try:
            resp = self._session.request(method, url, params=params, json=body,
                                         timeout=self.timeout)
        except requests.RequestException as exc:
            raise CascaError(f"request to {url} failed: {exc}") from exc
        if self.recorder is not None:
            self.recorder.record(method, path, resp.status_code, resp.text)
        if resp.status_code == 204:
            return None
        if 200 <= resp.status_code < 300:
            return resp.json()
        error_cls = _ERROR_BY_STATUS.get(resp.status_code, CascaError)
        try:
            message = resp.json().get("error", resp.text)
        except ValueError:
            message = resp.text
        raise error_cls(f"{method} {path} -> {resp.status_code}: {message}")

    def close(self) -> None:
        self._session.close()


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
    """Both halves of the gateway on one session."""


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
