"""Open-loop HTTP load generator.

One asyncio loop replays a schedule against ``repro serve``: each
request is dispatched at its due time, then waits for one of at most
``concurrency`` connection slots, and is timed from when it was *due*
to when its full reply arrived.  A stall in the server therefore shows
in every request queued behind it, as it would for independent users.

Two kinds of lateness are kept apart: ``slot_wait_s`` (queued for a
connection, part of the measured latency) and ``loop_late_s`` (the
generator's own loop dispatched the request after its due time, which
no server did).
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from collections.abc import Sequence
from dataclasses import dataclass

from schedule import QUERY, Item

#: a request not answered within this is counted failed
REQUEST_TIMEOUT_S = 30.0


@dataclass(slots=True)
class Outcome:
    """What happened to one scheduled request (perf_counter seconds)."""

    item: Item
    due: float
    dispatched: float
    sent: float = 0.0
    done: float = 0.0
    status: int = -1
    body: dict | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.body is not None

    @property
    def answered(self) -> bool:
        """A 200 whose body says ok: an update ack or a served query."""
        return self.ok and self.body.get("status") == "ok"

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def loop_late_s(self) -> float:
        return max(self.dispatched - self.due, 0.0)

    @property
    def slot_wait_s(self) -> float:
        return self.sent - self.dispatched


def request_bytes(item: Item, host: str) -> bytes:
    if item.kind == QUERY:
        return (
            f"GET /query?source={item.a} HTTP/1.1\r\nHost: {host}\r\n\r\n"
        ).encode()
    body = json.dumps({"u": item.a, "v": item.b, "kind": "toggle"}).encode()
    head = (
        f"POST /update HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode() + body


def parse_reply(data: bytes) -> tuple[int, dict | None]:
    """Status code and JSON body of a raw HTTP/1.1 reply."""
    head, sep, body = data.partition(b"\r\n\r\n")
    if not sep:
        raise ValueError("truncated reply")
    status = int(head.split(b" ", 2)[1])
    payload = json.loads(body) if body else None
    return status, payload if isinstance(payload, dict) else None


async def _exchange(host: str, port: int, raw: bytes) -> bytes:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(raw)
        await writer.drain()
        return await reader.read()  # the server closes after one reply
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


async def replay(
    host: str,
    port: int,
    items: Sequence[Item],
    concurrency: int,
    start: float | None = None,
) -> list[Outcome]:
    """Send ``items`` on schedule; return one outcome per item, in order.

    ``start`` is the ``time.perf_counter()`` instant that due time 0
    maps to (default: now).
    """
    slots = asyncio.Semaphore(concurrency)
    t0 = time.perf_counter() if start is None else start
    outcomes: list[Outcome] = []

    async def one(outcome: Outcome) -> None:
        async with slots:
            outcome.sent = time.perf_counter()
            try:
                data = await asyncio.wait_for(
                    _exchange(host, port, request_bytes(outcome.item, host)),
                    REQUEST_TIMEOUT_S,
                )
                outcome.done = time.perf_counter()
                outcome.status, outcome.body = parse_reply(data)
            except (OSError, ValueError, asyncio.TimeoutError) as exc:
                outcome.done = time.perf_counter()
                outcome.error = repr(exc)

    tasks = []
    for item in items:
        due = t0 + item.due_s
        delay = due - time.perf_counter()
        if delay > 0.0:
            await asyncio.sleep(delay)
        outcome = Outcome(item, due, time.perf_counter())
        outcomes.append(outcome)
        tasks.append(asyncio.create_task(one(outcome)))
    await asyncio.gather(*tasks)
    return outcomes


def run(
    host: str, port: int, items: Sequence[Item], concurrency: int
) -> list[Outcome]:
    """Blocking wrapper around :func:`replay`.

    The garbage collector is paused while the schedule plays: a full
    collection over the replies kept so far would stall the loop for
    milliseconds and show up as generator lateness.
    """
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(replay(host, port, items, concurrency))
    finally:
        gc.enable()
