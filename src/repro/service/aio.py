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
  awaiting responses (``max_pending_ops``); past the cap the reader simply
  stops reading, letting TCP flow control push back on the client. Writes
  go through ``drain()`` against bounded transport write buffers
  (``write_buffer_bytes``), so one slow consumer cannot balloon memory.
* **codec negotiation** — the same ``hello`` exchange as the threaded
  endpoint (see :mod:`repro.service.codec`); the reader switches its sans-IO
  decoder immediately, the writer after flushing the hello reply.
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
import threading

from repro.service.api import message_from_doc, message_to_doc
from repro.service.codec import (
    JsonLineCodec,
    SUPPORTED_CODECS,
    error_response,
    resolve_codec,
)
from repro.service.transport import (
    DECISION_TIMEOUT,
    dispatch_sync,
    hello_response,
    submit_place,
)
from repro.util.errors import TransportError, ValidationError

_log = logging.getLogger(__name__)

__all__ = ["AioServiceEndpoint"]

#: Per-connection cap on decoded-but-unanswered ops; past it the reader
#: stops consuming bytes and TCP backpressure reaches the client.
DEFAULT_MAX_PENDING_OPS = 256

#: High-water mark for each connection's kernel-side write buffer.
DEFAULT_WRITE_BUFFER_BYTES = 256 * 1024

_CLOSE = object()


class _Connection:
    """Per-connection state: decoder, response FIFO, backpressure gate."""

    def __init__(self, endpoint: "AioServiceEndpoint", reader, writer) -> None:
        self.endpoint = endpoint
        self.reader = reader
        self.writer = writer
        self.codec = JsonLineCodec()
        self.decoder = self.codec.decoder()
        self.responses: "asyncio.Queue" = asyncio.Queue()
        self.pending = 0
        self.room = asyncio.Event()
        self.room.set()
        self.closing = False

    def track(self) -> None:
        self.pending += 1
        if self.pending >= self.endpoint.max_pending_ops:
            self.room.clear()

    def untrack(self) -> None:
        self.pending -= 1
        if self.pending < self.endpoint.max_pending_ops:
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
        max_pending_ops: int = DEFAULT_MAX_PENDING_OPS,
        write_buffer_bytes: int = DEFAULT_WRITE_BUFFER_BYTES,
    ) -> None:
        if max_pending_ops < 1:
            raise ValidationError("max_pending_ops must be >= 1")
        self.service = service
        self.codecs = tuple(codecs)
        self.max_pending_ops = max_pending_ops
        self.write_buffer_bytes = write_buffer_bytes
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
            writer.transport.set_write_buffer_limits(high=self.write_buffer_bytes)
        except (AttributeError, RuntimeError):  # pragma: no cover - exotic transports
            pass
        conn = _Connection(self, reader, writer)
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
        while True:
            await conn.room.wait()
            data = await conn.reader.read(1 << 16)
            if not data:
                return  # EOF; bytes stuck mid-frame are owed no reply
            conn.decoder.feed(data)
            while True:
                try:
                    envelope = conn.decoder.next_op()
                except TransportError as exc:
                    conn.track()
                    await conn.responses.put({"ok": False, "error": str(exc)})
                    if conn.codec.resync_on_error:
                        continue  # line decoder re-synced at the newline
                    conn.closing = True
                    return
                if envelope is None:
                    break
                self._handle_envelope(conn, envelope)
                if conn.closing:
                    return

    def _handle_envelope(self, conn: _Connection, envelope: dict) -> None:
        conn.track()
        try:
            if "op" not in envelope:
                raise ValidationError("envelope must be an object with an 'op'")
            op = envelope["op"]
            if op == "hello":
                response, chosen = hello_response(envelope, self.codecs)
                if chosen != conn.codec.name:
                    # Reader switches now (subsequent bytes arrive in the new
                    # codec); the writer switches after flushing this reply.
                    residual = conn.decoder.take_buffered()
                    conn.codec = resolve_codec(chosen)
                    conn.decoder = conn.codec.decoder()
                    conn.decoder.feed(residual)
                    conn.responses.put_nowait(("switch", response, chosen))
                else:
                    conn.responses.put_nowait(response)
                return
            if op == "place":
                self._enqueue_place(conn, envelope)
                return
            conn.responses.put_nowait(dispatch_sync(self.service, envelope))
        except Exception as exc:  # never kill the connection
            conn.responses.put_nowait(error_response(exc))

    # -------------------------------------------------------------- placing

    def _enqueue_place(self, conn: _Connection, envelope: dict) -> None:
        """Queue a placement into this loop tick's cross-connection batch.

        The response slot (an asyncio future) enters the connection's FIFO
        immediately, preserving reply order; the submission itself is
        deferred to :meth:`_flush_batch` so every placement that arrived in
        the same tick — across all connections — goes through one
        ``submit_batch`` routing pass.
        """
        slot = self._loop.create_future()
        conn.responses.put_nowait(("place", slot))
        if not self._batch:
            self._loop.call_soon(self._flush_batch)
        self._batch.append((conn, envelope, slot))

    def _flush_batch(self) -> None:
        batch, self._batch = self._batch, []
        if not batch:
            return
        submit_batch = getattr(self.service, "submit_batch", None)
        if submit_batch is not None and len(batch) > 1:
            self._submit_many(batch, submit_batch)
        else:
            for conn, envelope, slot in batch:
                self._submit_one(conn, envelope, slot)

    def _submit_many(self, batch, submit_batch) -> None:
        # Every slot is resolved whatever is raised: this runs as a loop
        # callback for a batch shared across connections, so an escaping
        # exception would leave every client in the tick without a reply.
        decoded = []
        for conn, envelope, slot in batch:
            try:
                message = message_from_doc(envelope.get("message", {}), "place")
            except Exception as exc:
                self._resolve_slot(slot, error_response(exc))
                continue
            decoded.append((message, slot))
        if not decoded:
            return
        try:
            tickets = submit_batch([message for message, _ in decoded])
        except Exception as exc:
            for _, slot in decoded:
                self._resolve_slot(slot, error_response(exc))
            return
        for (message, slot), ticket in zip(decoded, tickets):
            self._bridge_ticket(message, ticket, slot)

    def _submit_one(self, conn: _Connection, envelope: dict, slot) -> None:
        try:
            message, ticket = submit_place(self.service, envelope)
        except Exception as exc:
            self._resolve_slot(slot, error_response(exc))
            return
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
            slot.set_result({"ok": True, "decision": message_to_doc(decision)})

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
                slot.set_result(
                    {"ok": False, "error": "placement decision timed out"}
                )

        timeout_handle = loop.call_later(DECISION_TIMEOUT, on_timeout)
        ticket.add_done_callback(on_decision)

    def _resolve_slot(self, slot, doc: dict) -> None:
        if not slot.done():
            slot.set_result(doc)

    # -------------------------------------------------------------- writing

    async def _write_responses(self, conn: _Connection) -> None:
        codec = conn.codec
        while True:
            item = await conn.responses.get()
            if item is _CLOSE:
                return
            switch_to = None
            if isinstance(item, tuple):
                if item[0] == "switch":
                    _, doc, switch_to = item
                else:  # ("place", future)
                    doc = await item[1]
            else:
                doc = item
            try:
                conn.writer.write(codec.encode_op(doc))
                await conn.writer.drain()
            except (ConnectionError, OSError, TransportError):
                conn.closing = True
                return
            finally:
                conn.untrack()
            if switch_to is not None:
                codec = resolve_codec(switch_to)
