"""Asyncio HTTP front end for :class:`~repro.service.RemosService`.

The front door (``repro serve``): a single-threaded
``asyncio.start_server`` event loop multiplexes every connection —
keep-alive HTTP/1.1, no thread or stack per idle socket — and answers
each parsed request itself: :func:`repro.service.app.handle_request` is
called on the loop thread, between the awaited parse and the awaited
write.  The handler is synchronous start to finish, so the thread-local
:class:`~repro.obs.context.TraceContext` binding, the SLO settlement and
the slow-query forensics need no loop awareness.

Why no thread per request: under the GIL a second thread buys a handler
no parallelism, only interpreter hand-offs (5.7 voluntary context
switches per small request, 0.07 without — ``docs/PERFORMANCE.md`` §10).
A slow-drip or slow-reading client still cannot hold the loop, because
parse and write are awaited; a handler's own CPU time can, and while it
runs the process answers nobody, ``/healthz`` included
(``docs/CONCURRENCY.md`` §6).  One request is the exception, chosen by
its path (:func:`repro.service.app.sleeps`, the router's own parse):
``/debug/profile`` sleeps by design and has to sample a loop that is
still serving, so it alone runs on the loop's default executor.
The ``--workers N`` multi-process mode (:mod:`repro.service.workers`)
stacks N of these servers on one shared listening socket.

Two entry points:

* :func:`serve_aio` — run the event loop on a background thread; returns
  an :class:`AioServer` handle with ``address`` and ``stop()``, for
  callers in synchronous code (the CLI, tests, benchmarks).
* :class:`AsyncHTTPServer` — the awaitable pieces, for callers that
  already own a loop (the worker processes do).
"""

from __future__ import annotations

import asyncio
import socket
import threading

from repro import obs
from repro.service.app import Request, Response, handle_request, sleeps

_log = obs.get_logger("repro.service.aio")

#: Maximum request-body size accepted (matches typical proxy defaults).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Per-header-line cap (asyncio's readline raises beyond its limit).
MAX_HEADER_BYTES = 64 * 1024

#: How long ``close()`` waits for open connections to end (a client that
#: never reads its answer keeps its transport, and so its task, alive).
CLOSE_GRACE_S = 1.0


class AsyncHTTPServer:
    """One asyncio server over one service, optionally on a shared socket."""

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 8080,
        sock: socket.socket | None = None,
    ):
        self._service = service
        self._host = host
        self._port = port
        self._sock = sock
        self._server: asyncio.AbstractServer | None = None
        self._open: dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def start(self) -> "AsyncHTTPServer":
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._client, sock=self._sock, limit=MAX_HEADER_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._client, self._host, self._port, limit=MAX_HEADER_BYTES
            )
        return self

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "call start() first"
        return self._server.sockets[0].getsockname()[:2]

    async def close(self) -> None:
        server, self._server = self._server, None
        if server is None:
            return
        server.close()  # stops accepting; the open connections are ours to end
        # End each rather than leave its task to be cancelled with the loop:
        # a _client parked in readline sees EOF and leaves through its own
        # finally, where a cancelled one dies with a traceback from its
        # stream's done-callback.
        for writer in self._open.values():
            writer.close()
        if self._open:
            await asyncio.wait(list(self._open), timeout=CLOSE_GRACE_S)
        await server.wait_closed()

    # -- connection handling ----------------------------------------------------

    async def _client(self, reader, writer) -> None:
        peer = writer.get_extra_info("peername")
        client = peer[0] if peer else ""
        task = asyncio.current_task()
        self._open[task] = writer
        try:
            while True:
                try:
                    parsed = await self._read_request(reader, writer, client)
                except _Refused as error:
                    refusal = Response.json(error.status, {"error": str(error)})
                    await self._write_response(writer, refusal, True)
                    break
                if parsed is None:
                    break
                request, close = parsed
                if sleeps(request):
                    # Samples a loop that has to keep serving meanwhile:
                    # the one request with a thread.
                    response = await asyncio.get_running_loop().run_in_executor(
                        None, handle_request, self._service, request
                    )
                else:
                    response = handle_request(self._service, request)
                await self._write_response(writer, response, close)
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            del self._open[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - racy teardown
                pass

    @staticmethod
    async def _read_request(reader, writer, client: str) -> tuple[Request, bool] | None:
        """Parse one request off the wire; None on clean connection end.

        Returns the request and whether the connection closes after its
        answer.  *writer* is for the one thing a parse may say before the
        answer: ``100 Continue``.
        """
        line = await _read_line(reader)
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _Refused(400, f"malformed request line: {line!r}")
        method, target, version = parts
        headers: dict[str, str] = {}
        while True:
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                return None  # connection closed mid-headers
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _Refused(400, f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            # Unread chunks would be parsed as the next request.
            raise _Refused(501, "Transfer-Encoding is not supported; send Content-Length")
        length_raw = headers.get("content-length", "0")
        try:
            length = int(length_raw)
        except ValueError:
            raise _Refused(400, f"bad Content-Length: {length_raw!r}") from None
        if not 0 <= length <= MAX_BODY_BYTES:
            raise _Refused(400, f"Content-Length out of range: {length}")
        old = version == "HTTP/1.0"
        connection = headers.get("connection", "").lower()
        # 1.0 closes after the answer unless the client asked otherwise.
        close = connection == "close" or (old and connection != "keep-alive")
        expect = headers.get("expect")
        if expect is not None and not old:  # RFC 7231 §5.1.1: 1.0 ignores it
            if expect.lower() != "100-continue":
                raise _Refused(417, f"unsupported Expect: {expect!r}")
            if length:
                # The client is holding the body back until told to send it.
                writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
                await writer.drain()
        body = await reader.readexactly(length) if length else b""
        request = Request(
            method=method, target=target, headers=headers, body=body, client=client
        )
        return request, close

    @staticmethod
    async def _write_response(writer, response: Response, close: bool) -> None:
        head = [
            f"HTTP/1.1 {response.status} {response.reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        if response.traceparent is not None:
            head.append(f"traceparent: {response.traceparent}")
        for name, value in response.headers.items():
            head.append(f"{name}: {value}")
        writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + response.body)
        await writer.drain()


class _Refused(Exception):
    """A request the HTTP parser refused: answered *status* once, then closed."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_line(reader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # what StreamReader makes of LimitOverrunError
        raise _Refused(431, f"request or header line over {MAX_HEADER_BYTES} bytes") from None


class AioServer:
    """A running asyncio front end on a background thread.

    For callers that manage the server from synchronous code: construct
    via :func:`serve_aio`, read :attr:`address`, call :meth:`stop`.
    """

    def __init__(self, server_factory):
        self._factory = server_factory
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._failure: BaseException | None = None
        self.address: tuple[str, int] | None = None
        self._thread = threading.Thread(
            target=self._run, name="remos-aio", daemon=True
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - loop teardown races
            if not self._started.is_set():
                self._failure = exc
                self._started.set()

    async def _main(self) -> None:
        server = self._factory()
        try:
            await server.start()
        except BaseException as exc:
            self._failure = exc
            self._started.set()
            return
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.address = server.address
        self._started.set()
        _log.info("aio_server_started", host=self.address[0], port=self.address[1])
        try:
            await self._stop.wait()
        finally:
            await server.close()

    def start(self) -> "AioServer":
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._failure is not None:
            raise self._failure
        if self.address is None:
            raise RuntimeError("asyncio server failed to start within 30s")
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the loop and join its thread (idempotent)."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        self._thread.join(timeout=timeout)


def serve_aio(
    service,
    host: str = "127.0.0.1",
    port: int = 8080,
    sock: socket.socket | None = None,
) -> AioServer:
    """Start the asyncio front end on a background thread (port 0 = any).

    Returns a running :class:`AioServer`; ``handle.address`` is the bound
    ``(host, port)`` and ``handle.stop()`` shuts it down.
    """
    return AioServer(
        lambda: AsyncHTTPServer(service, host=host, port=port, sock=sock)
    ).start()
