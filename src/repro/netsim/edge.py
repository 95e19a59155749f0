"""Edge traffic conditioner.

The edge conditioner is the only data-plane component the bandwidth
broker ever (re)configures. For each flow — or, under class-based
services, each **macroflow** — it:

* queues arriving packets FIFO;
* releases them into the network core no faster than the reserved
  rate ``r`` (consecutive releases spaced ``>= L^{k+1} / r``), which
  is the VTRS edge-conditioning contract;
* initializes the dynamic packet state (virtual time stamp = release
  time, delta from the :class:`~repro.vtrs.packet_state.EdgeStateStamper`
  recursion) before injecting the packet.

**Dynamic aggregation support** (Section 4): the broker can change the
reserved rate at any time via :meth:`EdgeConditioner.set_rate`; future
releases are re-spaced at the new rate (Theorem 4's premise). The
conditioner also exposes its current backlog and fires an optional
``on_empty`` callback when the queue drains — the *contingency
feedback* signal of Section 4.2.1 that lets the broker release
contingency bandwidth early.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Sequence

from repro.errors import ConfigurationError
from repro.netsim.engine import EventHandle, Simulator
from repro.netsim.packet import Packet
from repro.vtrs.packet_state import EdgeStateStamper

__all__ = ["EdgeConditioner"]


class EdgeConditioner:
    """Reserved-rate shaper + VTRS state stamper for one (macro)flow.

    :param sim: the discrete-event simulator.
    :param key: flow id (or macroflow id) this conditioner serves.
    :param rate: initial reserved rate ``r`` (bits/s).
    :param delay: delay parameter ``d`` stamped into packet state.
    :param rate_based_prefix: per-hop rate-based counts for the delta
        recursion (see :class:`EdgeStateStamper`); a plain hop count
        means "all hops rate-based".
    :param inject: callback receiving each released packet (typically
        the first core link's ``receive``).
    :param on_empty: invoked (with the current time) whenever the
        backlog drains to zero — the contingency feedback signal.
    """

    def __init__(
        self,
        sim: Simulator,
        key: str,
        *,
        rate: float,
        delay: float = 0.0,
        rate_based_prefix=1,
        inject: Optional[Callable[[Packet], None]] = None,
        on_empty: Optional[Callable[[float], None]] = None,
    ) -> None:
        if rate <= 0:
            raise ConfigurationError(f"reserved rate must be positive, got {rate}")
        self.sim = sim
        self.key = key
        self.inject = inject
        self.on_empty = on_empty
        self._stamper = EdgeStateStamper(key, rate, delay, rate_based_prefix)
        self._queue: deque = deque()
        self._bits = 0.0
        self._last_release = float("-inf")
        self._last_release_size = 0.0
        self._release_handle: Optional[EventHandle] = None
        # statistics
        self.packets_released = 0
        self.max_backlog_bits = 0.0

    # ------------------------------------------------------------------
    # broker-facing control
    # ------------------------------------------------------------------

    @property
    def rate(self) -> float:
        """Current reserved rate (bits/s)."""
        return self._stamper.rate

    @property
    def delay(self) -> float:
        """Current delay parameter (seconds)."""
        return self._stamper.delay

    def set_rate(self, rate: float) -> None:
        """Change the reserved rate; future releases use the new spacing."""
        if rate <= 0:
            raise ConfigurationError(f"reserved rate must be positive, got {rate}")
        self._stamper.reconfigure(rate=rate)
        self._reschedule_release()

    def backlog_bits(self) -> float:
        """Bits currently queued (the ``Q(t)`` of Theorems 2/3)."""
        return self._bits

    def backlog_packets(self) -> int:
        """Packets currently queued."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """A packet of the (macro)flow arrived from a source."""
        self._queue.append(packet)
        self._bits += packet.size
        self.max_backlog_bits = max(self.max_backlog_bits, self._bits)
        if self._release_handle is None:
            self._reschedule_release()

    def _next_release_time(self) -> Optional[float]:
        if not self._queue:
            return None
        head = self._queue[0]
        earliest = self._last_release + head.size / self.rate
        return max(self.sim.now, head.created_at, earliest)

    def _reschedule_release(self) -> None:
        if self._release_handle is not None:
            self._release_handle.cancel()
            self._release_handle = None
        release_at = self._next_release_time()
        if release_at is None:
            return
        self._release_handle = self.sim.schedule_at(release_at, self._release_head)

    def _release_head(self) -> None:
        self._release_handle = None
        if not self._queue:
            return
        packet = self._queue.popleft()
        self._bits -= packet.size
        now = self.sim.now
        packet.state = self._stamper.stamp(now, packet.size)
        packet.entered_core_at = now
        self._last_release = now
        self._last_release_size = packet.size
        self.packets_released += 1
        if self.inject is None:
            raise ConfigurationError(
                f"edge conditioner {self.key!r} has no injection target"
            )
        self.inject(packet)
        if self._queue:
            self._reschedule_release()
        elif self.on_empty is not None:
            self.on_empty(now)
