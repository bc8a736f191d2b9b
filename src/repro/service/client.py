"""A blocking client for the verification service.

Deliberately synchronous: the CLI's ``stp-repro request`` and the CI
smoke gate's shell loops both want a plain call-and-wait interface.  The client speaks exactly one round of the
``stp-service/1`` protocol per call: send a request line, read response
lines until a terminal ``result`` / ``error`` arrives, surface progress
events through an optional callback.
"""

from __future__ import annotations

import socket
import time
from typing import Callable, Dict, Optional

from repro.service import protocol
from repro.service.protocol import MAX_LINE_BYTES, BadRequest, ServiceError

#: Response types that end a call.
_TERMINAL = ("result", "error", "pong", "stats", "shutdown_ack")


class ServiceClient:
    """One TCP connection to a verification service."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, timeout: float = 300.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None

    def connect(self) -> "ServiceClient":
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._file = self._sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- protocol rounds -----------------------------------------------

    def call(
        self,
        kind: str,
        params: Optional[Dict[str, object]] = None,
        request_id: Optional[str] = None,
        subscribe: bool = False,
        on_event: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> Dict[str, object]:
        """One request -> the terminal response message (as a dict).

        ``accepted`` and ``progress`` messages are passed to
        ``on_event`` (when given) and otherwise skipped.  An ``error``
        response is returned, not raised -- use :meth:`check` to raise.
        """
        if self._sock is None or self._file is None:
            raise RuntimeError("client is not connected")
        payload: Dict[str, object] = {
            "schema": protocol.SERVICE_SCHEMA,
            "kind": kind,
        }
        if request_id is not None:
            payload["id"] = request_id
        if params is not None:
            payload["params"] = params
        if subscribe:
            payload["subscribe"] = True
        self._sock.sendall(protocol.encode(payload))
        while True:
            line = self._file.readline(MAX_LINE_BYTES + 1)
            if not line:
                raise ServiceError("server closed the connection")
            message = protocol.decode(line)
            type_ = message.get("type")
            if type_ in _TERMINAL:
                return message
            if on_event is not None:
                on_event(message)

    def check(self, *args, **kwargs) -> Dict[str, object]:
        """:meth:`call`, but a typed ``error`` response raises."""
        message = self.call(*args, **kwargs)
        if message.get("type") == "error":
            raise protocol.error_from_message(message)
        return message

    # -- conveniences ---------------------------------------------------

    def ping(self) -> bool:
        return self.call("ping").get("type") == "pong"

    def stats(self) -> Dict[str, object]:
        return self.check("stats")

    def shutdown(self) -> bool:
        return self.call("shutdown").get("type") == "shutdown_ack"


def wait_until_ready(
    host: str, port: int, timeout: float = 15.0, interval: float = 0.1
) -> bool:
    """Poll until a service answers ping (server start-up race helper)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with ServiceClient(host, port, timeout=interval * 10) as client:
                if client.ping():
                    return True
        except (OSError, ServiceError, BadRequest):
            pass
        time.sleep(interval)
    return False
