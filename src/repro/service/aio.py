"""Asyncio serving endpoint: one event loop multiplexing every client.

The thread-per-connection endpoint spends its tail latency in the scheduler
*and* in the transport: hundreds of handler threads contending for the GIL,
per-connection stacks, and a wake-up storm every time a batch resolves. This
endpoint serves the identical envelope protocol from a single event loop in
one dedicated thread:

* **multiplexed connections** — every client socket is a reader task on the
  same loop; no per-connection thread, no handler-thread wake-up storms.
* **strict per-connection ordering** — responses flow through a per-
  connection FIFO writer task, so a blocking one-op-at-a-time client sees
  exactly the thread endpoint's semantics, while a pipelining client gets
  replies in submission order.
* **bounded buffers and backpressure** — each connection caps decoded ops
  awaiting responses (:data:`MAX_PENDING_OPS`); past the cap the reader
  simply stops reading, letting TCP flow control push back on the client.
  Writes go through ``drain()`` against bounded transport write buffers
  (:data:`WRITE_BUFFER_BYTES`), so one slow consumer cannot balloon memory.
* **one protocol** — every envelope is answered by the connection's
  :class:`~repro.service.transport.ServingSession`, the same object the
  threaded endpoint drives; this module only moves bytes into its decoder
  and ``(codec, reply)`` items out through the FIFO.
* **cross-connection admission batching** — placements arriving on *any*
  connection within one loop tick are submitted together through the
  service's ``submit_batch`` (when it has one: the sharded fabric routes
  the whole batch in one vectorized screening pass), instead of one
  router/lock round per request.

Scheduling still happens in the service's own thread(s); the loop thread
only decodes, submits, and encodes. Ticket resolution crosses back onto the
loop via ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import logging
import operator
import threading

from repro.service.api import PlaceRequest
from repro.service.codec import SUPPORTED_CODECS, error_response
from repro.service.transport import DECISION_TIMEOUT, ServingSession, decision_reply
from repro.util.errors import TransportError

_log = logging.getLogger(__name__)

__all__ = ["AioServiceEndpoint"]

#: Per-connection cap on decoded-but-unanswered ops; past it the reader
#: stops consuming bytes and TCP backpressure reaches the client.
MAX_PENDING_OPS = 256

#: High-water mark for each connection's kernel-side write buffer.
WRITE_BUFFER_BYTES = 256 * 1024

_CLOSE = object()

#: What a session pulls envelopes with: whatever is already buffered while
#: the stream is open, the decoder's end-of-stream rule once it has ended.
_DECODED = operator.methodcaller("next_op")
_ENDED = operator.methodcaller("end")


class _Connection:
    """Per-connection state: session, response FIFO, backpressure gate."""

    def __init__(self, session: ServingSession, reader, writer) -> None:
        self.session = session
        self.reader = reader
        self.writer = writer
        self.responses: "asyncio.Queue" = asyncio.Queue()
        self.pending = 0
        self.room = asyncio.Event()
        self.room.set()

    def track(self) -> None:
        self.pending += 1
        if self.pending >= MAX_PENDING_OPS:
            self.room.clear()

    def untrack(self) -> None:
        self.pending -= 1
        if self.pending < MAX_PENDING_OPS:
            self.room.set()


class AioServiceEndpoint:
    """Asyncio front end for one placement service or sharded fabric.

    Drop-in for :class:`~repro.service.transport.ServiceEndpoint`: same
    constructor shape, same ``start``/``stop``/``address`` surface, same
    envelope protocol on the wire — any :class:`ServiceClient` (either
    codec) talks to it unchanged. Canonical construction is
    ``resolve_transport("aio").serve(service, ...)``.
    """

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        codecs: "tuple[str, ...]" = SUPPORTED_CODECS,
    ) -> None:
        self.service = service
        self.codecs = tuple(codecs)
        self._host = host
        self._port = port
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._server: "asyncio.AbstractServer | None" = None
        self._address: "tuple[str, int] | None" = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._batch: "list[tuple]" = []

    # ------------------------------------------------------------ lifecycle

    @property
    def address(self) -> "tuple[str, int]":
        if self._address is None:
            raise TransportError("endpoint is not started")
        return self._address

    def start(self) -> "AioServiceEndpoint":
        if self._thread is not None and self._thread.is_alive():
            return self
        self.service.start()
        self._loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.call_soon(started.set)
            self._loop.run_forever()

        self._thread = threading.Thread(
            target=run, name="placement-aio-loop", daemon=True
        )
        self._thread.start()
        started.wait(timeout=5.0)
        future = asyncio.run_coroutine_threadsafe(self._open_server(), self._loop)
        try:
            future.result(timeout=10.0)
        except Exception:
            self._stop_loop()
            raise
        return self

    async def _open_server(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        self._address = self._server.sockets[0].getsockname()[:2]

    def stop(self, *, drain: bool = True) -> None:
        if self._loop is not None and self._thread is not None and self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(self._close_server(), self._loop)
            try:
                future.result(timeout=10.0)
            except Exception:  # pragma: no cover - defensive teardown
                pass
            self._stop_loop()
        if drain:
            self.service.drain()
        else:
            self.service.stop()

    async def _close_server(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()

    def _stop_loop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._loop is not None:
            self._loop.close()
            self._loop = None

    def __enter__(self) -> "AioServiceEndpoint":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ----------------------------------------------------------- connection

    async def _handle_connection(self, reader, writer) -> None:
        try:
            writer.transport.set_write_buffer_limits(high=WRITE_BUFFER_BYTES)
        except (AttributeError, RuntimeError):  # pragma: no cover - exotic transports
            pass
        conn = _Connection(ServingSession(self.service, self.codecs), reader, writer)
        handler_task = asyncio.current_task()
        writer_task = asyncio.create_task(self._write_responses(conn))
        for task in (handler_task, writer_task):
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            await self._read_loop(conn)
        except asyncio.CancelledError:
            pass  # endpoint shutdown cancelled us; exit the handler cleanly
        except Exception:  # pragma: no cover - defensive: reader never escapes
            _log.exception("aio connection reader failed")
        finally:
            conn.responses.put_nowait(_CLOSE)
            try:
                await writer_task
            except asyncio.CancelledError:
                pass
            writer.close()

    async def _read_loop(self, conn: _Connection) -> None:
        session = conn.session
        pull = _DECODED
        while session.open:
            await conn.room.wait()
            data = await conn.reader.read(1 << 16)
            if data:
                session.decoder.feed(data)
            else:
                pull = _ENDED  # answer what is stuck mid-frame, then go
            while session.open:
                answer = session.next(pull)
                if answer is None:
                    break
                codec, reply = answer
                if isinstance(reply, PlaceRequest):
                    reply = self._enqueue_place(reply)
                conn.track()
                conn.responses.put_nowait((codec, reply))
            if not data:
                return

    # -------------------------------------------------------------- placing

    def _enqueue_place(self, message: PlaceRequest) -> "asyncio.Future":
        """Queue a placement into this loop tick's cross-connection batch.

        The returned response slot (an asyncio future) enters the
        connection's FIFO immediately, preserving reply order; the
        submission itself is deferred to :meth:`_flush_batch` so every
        placement that arrived in the same tick — across all connections —
        goes through one ``submit_batch`` routing pass.
        """
        slot = self._loop.create_future()
        if not self._batch:
            self._loop.call_soon(self._flush_batch)
        self._batch.append((message, slot))
        return slot

    def _flush_batch(self) -> None:
        batch, self._batch = self._batch, []
        submit = getattr(self.service, "submit_batch", None)
        groups = [batch]
        if submit is None or len(batch) == 1:
            groups = [[entry] for entry in batch]
            submit = lambda messages: [self.service.submit(messages[0])]  # noqa: E731
        for group in groups:
            # Every slot is resolved whatever is raised: this runs as a loop
            # callback for a batch shared across connections, so an escaping
            # exception would leave every client in the tick without a reply.
            try:
                tickets = submit([message for message, _ in group])
            except Exception as exc:
                for _, slot in group:
                    if not slot.done():
                        slot.set_result(error_response(exc))
                continue
            for (message, slot), ticket in zip(group, tickets):
                self._bridge_ticket(message, ticket, slot)

    def _bridge_ticket(self, message, ticket, slot) -> None:
        """Resolve *slot* with the ticket's decision, from any thread."""
        loop = self._loop
        timeout_handle = None

        def deliver(decision) -> None:
            if slot.done():
                return
            if timeout_handle is not None:
                timeout_handle.cancel()
            slot.set_result(decision_reply(decision))

        def on_decision(decision) -> None:
            try:
                loop.call_soon_threadsafe(deliver, decision)
            except RuntimeError:  # loop already closed at shutdown
                pass

        def on_timeout() -> None:
            if slot.done():
                return
            # Withdraw before giving up so an unobserved lease can never be
            # granted later; a cancel/placement race resolves the ticket
            # with the real decision and `deliver` wins.
            self.service.cancel(message.request_id)
            loop.call_later(1.0, give_up)

        def give_up() -> None:
            if not slot.done():
                slot.set_result(decision_reply(None))

        timeout_handle = loop.call_later(DECISION_TIMEOUT, on_timeout)
        ticket.add_done_callback(on_decision)

    # -------------------------------------------------------------- writing

    async def _write_responses(self, conn: _Connection) -> None:
        while True:
            item = await conn.responses.get()
            if item is _CLOSE:
                return
            codec, reply = item
            if not isinstance(reply, dict):
                reply = await reply  # a placement's slot
            try:
                conn.writer.write(codec.encode_op(reply))
                await conn.writer.drain()
            except (ConnectionError, OSError, TransportError):
                conn.session.open = False
                return
            finally:
                conn.untrack()
