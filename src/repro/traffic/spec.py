"""Traffic and service specifications.

The paper characterizes every flow with the standard **dual-token-bucket
regulator** ``(sigma^j, rho^j, P^j, L^{j,max})`` where

* ``sigma`` — maximum burst size (bits), ``sigma >= L_max``;
* ``rho``   — sustained (mean) rate (bits/s);
* ``P``     — peak rate (bits/s), ``P >= rho``;
* ``L_max`` — maximum packet size (bits).

Two derived quantities appear throughout the admission-control math:

* the **on time** ``T_on = (sigma - L_max) / (P - rho)`` — how long a
  greedy source can transmit at peak rate before the sustained-rate
  bucket throttles it (eq. (3) of the paper); and
* the **edge delay bound** ``d_edge(r) = T_on (P - r)/r + L_max / r``
  for a flow shaped to reserved rate ``r`` at the network edge.

Aggregation (Section 4.1): when ``n`` microflows form a macroflow the
aggregate profile is the component-wise sum, including
``L_max = sum of component L_max`` — a maximum-size packet may arrive
from every microflow simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

from repro.errors import TrafficSpecError
from repro.units import feq

__all__ = ["TSpec", "ServiceSpec", "aggregate_tspec"]


@dataclass(frozen=True)
class TSpec:
    """Dual-token-bucket traffic specification ``(sigma, rho, P, L_max)``.

    Instances are immutable and hashable so they can be used as
    dictionary keys (e.g. for interning per-class profiles).

    :param sigma: maximum burst size in bits (``sigma >= L_max``).
    :param rho: sustained rate in bits per second.
    :param peak: peak rate ``P`` in bits per second (``peak >= rho``).
    :param max_packet: maximum packet size ``L_max`` in bits.
    """

    sigma: float
    rho: float
    peak: float
    max_packet: float

    def __post_init__(self) -> None:
        for name in ("sigma", "rho", "peak", "max_packet"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise TrafficSpecError(f"TSpec.{name} must be finite, got {value!r}")
        if self.max_packet <= 0:
            raise TrafficSpecError(f"L_max must be positive, got {self.max_packet}")
        if self.rho <= 0:
            raise TrafficSpecError(f"rho must be positive, got {self.rho}")
        if self.sigma + 1e-12 < self.max_packet:
            raise TrafficSpecError(
                f"sigma ({self.sigma}) must be >= L_max ({self.max_packet})"
            )
        if self.peak + 1e-12 < self.rho:
            raise TrafficSpecError(
                f"peak rate ({self.peak}) must be >= sustained rate ({self.rho})"
            )

    def to_dict(self) -> Dict[str, float]:
        """JSON-compatible form (journal records, checkpoints, frames)."""
        return {
            "sigma": self.sigma, "rho": self.rho,
            "peak": self.peak, "max_packet": self.max_packet,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "TSpec":
        """Inverse of :meth:`to_dict` (validation applies)."""
        return cls(
            sigma=data["sigma"], rho=data["rho"],
            peak=data["peak"], max_packet=data["max_packet"],
        )

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    @property
    def t_on(self) -> float:
        """On time ``T_on = (sigma - L_max) / (P - rho)``.

        For a flow with ``P == rho`` (pure CBR with a single-packet
        bucket) the on time is zero by convention: the source can never
        exceed the sustained rate.
        """
        if feq(self.peak, self.rho) or feq(self.sigma, self.max_packet):
            # Either the peak equals the mean (no "on" excursion is
            # possible) or the bucket holds a single packet.
            if feq(self.sigma, self.max_packet):
                return 0.0
            return math.inf
        return (self.sigma - self.max_packet) / (self.peak - self.rho)

    def edge_delay(self, reserved_rate: float) -> float:
        """Worst-case edge-conditioner delay ``d_edge`` for rate *r* (eq. (3)).

        ``d_edge = T_on (P - r)/r + L_max / r`` — valid for
        ``rho <= r <= P``. Rates above the peak are clamped to the
        peak (the formula's first term would otherwise go negative).
        """
        if reserved_rate <= 0:
            raise TrafficSpecError(
                f"reserved rate must be positive, got {reserved_rate}"
            )
        r = min(reserved_rate, self.peak)
        return self.t_on * (self.peak - r) / r + self.max_packet / r

    def min_rate_for_edge_delay(self, max_edge_delay: float) -> float:
        """Smallest reserved rate whose edge delay is at most *max_edge_delay*.

        Inverts :meth:`edge_delay`:
        ``d_edge(r) <= X  <=>  r >= (T_on * P + L_max) / (X + T_on)``.

        Returns ``math.inf`` when no rate up to the peak satisfies the
        bound (i.e. when even ``r = P`` yields too large a delay).
        """
        if max_edge_delay <= 0:
            return math.inf
        needed = (self.t_on * self.peak + self.max_packet) / (
            max_edge_delay + self.t_on
        )
        if needed > self.peak * (1 + 1e-12):
            return math.inf
        return max(needed, self.rho)

    def envelope(self, interval: float) -> float:
        """Arrival envelope ``E(t) = min(P t + L_max, rho t + sigma)``.

        The maximum number of bits the flow may emit in any window of
        length *interval* seconds (non-negative).
        """
        if interval < 0:
            raise TrafficSpecError(f"interval must be >= 0, got {interval}")
        return min(
            self.peak * interval + self.max_packet,
            self.rho * interval + self.sigma,
        )

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def __add__(self, other: "TSpec") -> "TSpec":
        """Aggregate two specifications component-wise (Section 4.1)."""
        if not isinstance(other, TSpec):
            return NotImplemented
        return TSpec(
            sigma=self.sigma + other.sigma,
            rho=self.rho + other.rho,
            peak=self.peak + other.peak,
            max_packet=self.max_packet + other.max_packet,
        )

    def __sub__(self, other: "TSpec") -> "TSpec":
        """Remove a microflow's contribution from an aggregate profile.

        Raises :class:`TrafficSpecError` when the result would not be a
        valid specification (i.e. *other* was never part of *self*).
        """
        if not isinstance(other, TSpec):
            return NotImplemented
        return TSpec(
            sigma=self.sigma - other.sigma,
            rho=self.rho - other.rho,
            peak=self.peak - other.peak,
            max_packet=self.max_packet - other.max_packet,
        )

    def scaled(self, factor: float) -> "TSpec":
        """Return the aggregate of *factor* identical copies of this spec."""
        if factor <= 0:
            raise TrafficSpecError(f"scale factor must be positive, got {factor}")
        return TSpec(
            sigma=self.sigma * factor,
            rho=self.rho * factor,
            peak=self.peak * factor,
            max_packet=self.max_packet * factor,
        )


def aggregate_tspec(specs: Iterable[TSpec]) -> TSpec:
    """Aggregate an iterable of specifications (Section 4.1).

    ``sigma = sum sigma_j``, ``rho = sum rho_j``, ``P = sum P_j`` and
    ``L_max = sum L_max_j`` (a maximum-size packet may arrive from each
    microflow at the same instant).

    :raises TrafficSpecError: when *specs* is empty.
    """
    specs = list(specs)
    if not specs:
        raise TrafficSpecError("cannot aggregate an empty collection of TSpecs")
    total = specs[0]
    for spec in specs[1:]:
        total = total + spec
    return total


@dataclass(frozen=True)
class ServiceSpec:
    """End-to-end service requirement of a flow.

    The paper's guaranteed service is parameterized by a single
    end-to-end delay requirement ``D_req`` (seconds). The optional
    *name* labels a service class (e.g. ``"gold"``) for class-based
    services.
    """

    delay_requirement: float
    name: str = ""

    def __post_init__(self) -> None:
        if not (
            isinstance(self.delay_requirement, (int, float))
            and math.isfinite(self.delay_requirement)
            and self.delay_requirement > 0
        ):
            raise TrafficSpecError(
                f"delay requirement must be a positive finite number, "
                f"got {self.delay_requirement!r}"
            )
