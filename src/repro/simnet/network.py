"""A small event-driven network simulator.

Nodes register message handlers; ``send`` schedules a delivery after
the topology's latency plus serialization time; ``run_async`` drains the
event queue in timestamp order.  Per-link byte counters feed the
bandwidth figures, and the final clock value gives end-to-end latency
measurements for protocol runs that the in-process runner cannot
provide.

This is deliberately minimal — enough to run the full Prio verification
protocol with realistic message interleaving (the integration tests do
exactly that) without pulling in an external discrete-event framework.

``run_async`` drains the queue in latency windows.  The window-safety
rule: an event at time ``t`` can only cause deliveries at ``t`` plus a
link latency, so no queued event less than the smallest inter-site
latency past the window head can be caused by another event in the
same window.  The window's handlers therefore execute concurrently (per
destination node, in order), and their sends are buffered and flushed
in event order afterwards — sequence numbers, byte counters and clock
reads are those of a one-event-at-a-time drain.  That is what lets
cluster handlers ``await`` per-server worker pools and actually overlap
them.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from dataclasses import dataclass, field as dc_field
from typing import Any, Callable

from repro.simnet.regions import Topology


class SimError(RuntimeError):
    pass


@dataclass(order=True)
class _Event:
    time: float
    sequence: int
    dst: int = dc_field(compare=False)
    src: int = dc_field(compare=False)
    payload: Any = dc_field(compare=False)


Handler = Callable[["SimNetwork", int, Any], None]


class _DeferredView:
    """A per-event view of the network during a concurrent window.

    Handlers running concurrently must still observe the *serial*
    schedule: ``clock`` is frozen to the value the serial run would
    show while this event's handler runs, and ``send``/``broadcast``
    buffer instead of touching the shared queue — the window flushes
    every buffered send in serial event order after its barrier, so
    sequence numbers, byte counters, and delivery times come out as a
    one-event-at-a-time drain would produce them.
    """

    __slots__ = ("_net", "clock", "sends")

    def __init__(self, net: "SimNetwork", clock: float) -> None:
        self._net = net
        self.clock = clock
        #: buffered ``(src, dst, payload, size_bytes)`` tuples
        self.sends: list[tuple[int, int, Any, int]] = []

    @property
    def topology(self) -> Topology:
        return self._net.topology

    def send(self, src: int, dst: int, payload: Any, size_bytes: int) -> None:
        if dst not in self._net._handlers:
            raise SimError(f"node {dst} has no handler")
        self.sends.append((src, dst, payload, size_bytes))

    def broadcast(
        self, src: int, payload: Any, size_bytes: int, include_self: bool = False
    ) -> None:
        for dst in self._net._handlers:
            if dst == src and not include_self:
                continue
            self.send(src, dst, payload, size_bytes)


class SimNetwork:
    """Latency- and bandwidth-aware message passing between nodes."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.clock = 0.0
        self._queue: list[_Event] = []
        self._sequence = itertools.count()
        self._handlers: dict[int, Handler] = {}
        #: bytes sent, indexed [src][dst]
        self.bytes_sent = [
            [0] * topology.n_sites for _ in range(topology.n_sites)
        ]
        self.messages_sent = 0

    def register(self, node: int, handler: Handler) -> None:
        if not 0 <= node < self.topology.n_sites:
            raise SimError(f"no such node {node}")
        self._handlers[node] = handler

    def send(self, src: int, dst: int, payload: Any, size_bytes: int) -> None:
        """Schedule delivery: latency + size/bandwidth after now."""
        if dst not in self._handlers:
            raise SimError(f"node {dst} has no handler")
        transfer = size_bytes * 8 / self.topology.bandwidth_bps
        delay = self.topology.latency(src, dst) + transfer
        self.bytes_sent[src][dst] += size_bytes
        self.messages_sent += 1
        heapq.heappush(
            self._queue,
            _Event(
                time=self.clock + delay,
                sequence=next(self._sequence),
                dst=dst,
                src=src,
                payload=payload,
            ),
        )

    def broadcast(
        self, src: int, payload: Any, size_bytes: int, include_self: bool = False
    ) -> None:
        for dst in self._handlers:
            if dst == src and not include_self:
                continue
            self.send(src, dst, payload, size_bytes)

    def _min_link_latency(self) -> float:
        """Smallest one-way latency between *distinct* sites.

        The window-safety bound: an event at time ``t`` can only cause
        deliveries at ``t + latency + transfer >= t + min_latency``, so
        queued events within ``min_latency`` of the window head cannot
        depend on each other.  (Self-links are excluded — in-run
        traffic is always inter-node; ``run_async`` still verifies the
        bound per flushed send.)
        """
        n = self.topology.n_sites
        latencies = [
            self.topology.latency(a, b)
            for a in range(n)
            for b in range(n)
            if a != b
        ]
        return min(latencies, default=0.0)

    async def run_async(self, max_events: int = 1_000_000) -> float:
        """Drain the queue; returns the final clock (seconds).

        Events are popped in latency windows (every queued event less
        than the minimum inter-site latency past the window head).
        Within a window, events for the same destination node run
        sequentially in serial order — node handlers mutate per-node
        state — while distinct destinations run concurrently via
        ``asyncio.gather``, which is exactly where handlers awaiting
        per-server worker pools (``fanout.call``) overlap for real.
        Handlers may be plain functions or coroutine functions; each
        receives a :class:`_DeferredView` whose buffered sends are
        flushed in serial event order after the window's barrier.

        A degenerate topology (minimum latency 0) falls back to
        single-event windows — serial, but still async-capable.
        """
        min_latency = self._min_link_latency()
        events = 0
        while self._queue:
            window = [heapq.heappop(self._queue)]
            if min_latency > 0.0:
                horizon = window[0].time + min_latency
                while self._queue and self._queue[0].time < horizon:
                    window.append(heapq.heappop(self._queue))
            events += len(window)
            if events > max_events:
                raise SimError("event budget exhausted (livelock?)")
            # Freeze each event's serial clock (monotone across the
            # window, as a one-event-at-a-time drain would update it).
            views: list[_DeferredView] = []
            clock = self.clock
            for event in window:
                clock = max(clock, event.time)
                views.append(_DeferredView(self, clock))
            last_time = clock

            by_dst: dict[int, list[int]] = {}
            for i, event in enumerate(window):
                by_dst.setdefault(event.dst, []).append(i)

            async def drain(indices: list[int]) -> None:
                for i in indices:
                    event = window[i]
                    result = self._handlers[event.dst](
                        views[i], event.src, event.payload
                    )
                    if asyncio.iscoroutine(result):
                        await result

            if len(by_dst) == 1:
                await drain(next(iter(by_dst.values())))
            else:
                await asyncio.gather(
                    *(drain(indices) for indices in by_dst.values())
                )

            # Flush buffered sends in serial event order: sequence
            # numbers and delivery times are the serial drain's.
            for view in views:
                self.clock = view.clock
                for send in view.sends:
                    self.send(*send)
            if self._queue and self._queue[0].time < last_time:
                # A handler injected an event inside its own window
                # (sub-minimum delay) — the serial schedule would have
                # interleaved it; refuse rather than diverge silently.
                raise SimError(
                    "window-unsafe send: delivery scheduled before an "
                    "already-processed event"
                )
            self.clock = last_time
        return self.clock

    def total_bytes_from(self, src: int) -> int:
        return sum(self.bytes_sent[src])
