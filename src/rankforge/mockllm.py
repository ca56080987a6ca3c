"""Deterministic mock completion server for offline runs and tests.

Implements the same JSON contract as a real endpoint: POST a
``{model, prompt, temperature, max_tokens, stop}`` body, get back
``{"choices": [{"text": ...}]}``. Completions come from
``querygen.deterministic_completion``, so repeated runs against this
server produce identical output.
"""

from __future__ import annotations

import argparse
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .querygen import deterministic_completion


class _Handler(BaseHTTPRequestHandler):
    # Keep-alive; without TCP_NODELAY the body, written after the headers,
    # waits for the client's delayed ACK (about 40 ms a reply).
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self):  # noqa: N802 (http.server API name)
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length < 0:
                raise ValueError(f"negative Content-Length {length}")
            body = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(body, dict):
                raise ValueError("body is not a JSON object")
            stops = body.get("stop")
            if stops is None:
                stops = []
            elif isinstance(stops, str):    # one stop sequence, not one per character
                stops = [stops]
            if not isinstance(stops, list) or not all(isinstance(s, str) and s for s in stops):
                raise ValueError("stop is not a string or a list of non-empty strings")
        except ValueError:
            self._reply(400, {"error": "invalid JSON body"})
            return
        text = deterministic_completion(str(body.get("prompt", "")))
        for stop in stops:
            text = text.split(stop)[0]
        self._reply(200, {"model": body.get("model", "mock"), "choices": [{"text": text}]})

    def _reply(self, status: int, obj: dict) -> None:
        payload = json.dumps(obj).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if status >= 400:
            # the request body may be unread, and would be taken for the next
            # request; this header also makes the handler close the connection
            self.send_header("Connection", "close")
        try:
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            # the client hung up, say after its timeout: no one is left to answer
            self.close_connection = True

    def log_message(self, fmt, *args):  # silence per-request stderr noise
        pass


class _Server(ThreadingHTTPServer):
    # A client may keep a connection open past shutdown; its handler thread is
    # a daemon, so do not wait for it.
    block_on_close = False


class MockLLMServer:
    """Context manager that serves the mock endpoint on a background thread.

    ``handler`` lets a test serve a variant of the mock's request handler.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 handler: type[BaseHTTPRequestHandler] = _Handler):
        self._server = _Server((host, port), handler)
        # a short poll interval lets __exit__ return without a half-second wait
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/completions"

    def __enter__(self) -> "MockLLMServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Serve a deterministic mock completion endpoint.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8631)
    args = parser.parse_args(argv)
    server = _Server((args.host, args.port), _Handler)
    host, port = server.server_address[:2]     # the bound port when --port is 0
    print(f"mock LLM listening on http://{host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
