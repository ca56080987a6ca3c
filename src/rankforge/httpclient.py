"""Completion client for an HTTP(S) JSON endpoint.

The client speaks the contract described in ``querygen``: it POSTs
``{model, prompt, temperature, max_tokens, stop}`` and reads
``{"choices": [{"text": ...}]}``. The API key, when needed, comes from the
``RANKFORGE_API_KEY`` environment variable. It is the standard library's
``http.client`` on kept-alive connections. ``querygen.make_client`` imports
this module only for an endpoint that is not ``mock:``, so no stage but
``generate`` against a real endpoint loads the HTTP stack.
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import threading
import time
from urllib.parse import unquote, urlsplit, urlunsplit
from urllib.request import getproxies_environment, proxy_bypass_environment

from .config import PipelineConfig
from .errors import AccessDeniedError, EndpointError

API_KEY_ENV = "RANKFORGE_API_KEY"
STOP = ("\n",)        # stop sequences of every request (a JSON list on the wire)
# seconds; the wait before retry i is BACKOFF_BASE * 2**i, capped at request_timeout
BACKOFF_BASE = 0.5


def _environment_proxy(scheme: str, host: str) -> tuple[str, int, dict[str, str]] | None:
    """(host, port, headers) of the environment's proxy for scheme, or None."""
    proxies = getproxies_environment()
    if scheme not in proxies or proxy_bypass_environment(host, proxies):
        return None
    raw = proxies[scheme]
    proxy = urlsplit(raw if "://" in raw else "http://" + raw)
    if proxy.scheme != "http" or not proxy.hostname:
        raise ValueError(f"{scheme} proxy {raw!r} is not an http:// URL")
    headers = {}
    if proxy.username is not None:
        credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
        headers["Proxy-Authorization"] = (
            "Basic " + base64.b64encode(credentials.encode("utf-8")).decode("ascii"))
    return proxy.hostname, proxy.port or http.client.HTTP_PORT, headers


class HttpCompletionClient:
    """Completion client for an HTTP(S) JSON endpoint, with retries and backoff.

    Connections are kept alive and pooled: a request takes an idle connection or
    opens one, so there is one per concurrent worker thread. ``close`` shuts the
    idle ones. Every request setting of cfg (endpoint, model, decoding,
    retries, timeout) and ``HTTP_PROXY``, ``HTTPS_PROXY`` and ``NO_PROXY`` are
    read here, once per client.
    """

    def __init__(self, cfg: PipelineConfig, api_key: str | None = None):
        endpoint = cfg.endpoint
        self.model = cfg.model
        self._max_retries = cfg.max_retries
        self._timeout = cfg.request_timeout
        # the request fields after the prompt, in the order they are sent
        self._decoding = {"temperature": cfg.decode_temperature,
                          "max_tokens": cfg.max_new_tokens, "stop": STOP}
        api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        try:
            url = urlsplit(endpoint)
            https = url.scheme == "https"
            port = url.port or (http.client.HTTPS_PORT if https else http.client.HTTP_PORT)
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ValueError("expected an http:// or https:// URL")
            proxy = _environment_proxy(url.scheme, f"{url.hostname}:{port}")
        except ValueError as exc:
            raise EndpointError(f"endpoint {endpoint!r}: {exc}") from None
        self._target = urlunsplit(("", "", url.path or "/", url.query, ""))
        self._connection_class = (
            http.client.HTTPSConnection if https else http.client.HTTPConnection)
        self._host, self._port = url.hostname, port      # where sockets connect to
        self._tunnel: tuple[str, int, dict[str, str]] | None = None
        if proxy is not None:
            self._host, self._port, proxy_headers = proxy
            if https:
                self._tunnel = (url.hostname, port, proxy_headers)
            else:
                self._target = urlunsplit((url.scheme, url.netloc, self._target, "", ""))
                self._headers.update(proxy_headers)
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        body = json.dumps({"model": self.model, "prompt": prompt, **self._decoding}).encode()
        last_error: Exception | None = None
        wait = BACKOFF_BASE     # doubled in float, so it ends at inf, never in an overflow
        for attempt in range(self._max_retries + 1):
            try:
                return self._post(body)
            except (OSError, http.client.HTTPException,
                    KeyError, IndexError, TypeError, ValueError) as exc:
                last_error = exc
            if attempt < self._max_retries:
                time.sleep(min(wait, self._timeout))
                wait *= 2.0
        raise EndpointError(
            f"request failed after {self._max_retries + 1} attempts: "
            f"{type(last_error).__name__}: {last_error}"
        )

    def close(self) -> None:
        """Close every idle connection; a later request opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _post(self, body: bytes) -> str:
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = self._connection_class(self._host, self._port, timeout=self._timeout)
            if self._tunnel is not None:
                conn.set_tunnel(*self._tunnel)
        try:
            status, reason, data = self._exchange(conn, body)
        finally:
            with self._lock:
                self._idle.append(conn)
        if not 200 <= status < 300:
            error = f"HTTP {status} {reason}".rstrip()
            if status in (408, 429) or status >= 500:
                raise http.client.HTTPException(error)      # retried
            if status in (401, 403):
                raise AccessDeniedError(f"request refused: {error}; check {API_KEY_ENV}")
            # any other 4xx (a wrong path, a malformed request) or a 3xx gives
            # every retry the same answer
            raise EndpointError(f"request failed: {error}")
        text = json.loads(data)["choices"][0]["text"]
        if not isinstance(text, str):       # a malformed reply, retried like a missing key
            raise TypeError(f"completion text is {type(text).__name__}, not a string")
        return text

    def _exchange(self, conn: http.client.HTTPConnection,
                  body: bytes) -> tuple[int, str, bytes]:
        """Send one request on conn and read its whole reply; on failure conn is closed."""
        reused = conn.sock is not None
        try:
            try:
                conn.request("POST", self._target, body, self._headers)
                resp = conn.getresponse()
            except ConnectionError:     # reset, broken pipe, RemoteDisconnected
                if not reused:
                    raise
                # the server dropped the kept-alive connection before replying:
                # resend at once on a fresh one, which does not count as a retry
                conn.close()
                conn.request("POST", self._target, body, self._headers)
                resp = conn.getresponse()
            return resp.status, resp.reason, resp.read()
        except BaseException:
            conn.close()
            raise
