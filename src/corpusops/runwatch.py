"""Training telemetry monitoring: spike scoring, detection, rollback.

Two independent views of a loss stream:

* a robust local z-score per step (rolling median and windowed MAD, with
  an epsilon floor so locally constant loss cannot divide by zero), and
* a deterministic dual-threshold sliding-window detector: a window of
  width ``w`` triggers iff its minimum exceeds the sustained floor
  ``t_min`` (persistence) and its maximum exceeds the severity peak
  ``t_max``.  Single-step excursions never satisfy persistence.

The detector runs in two tiers.  The alert tier (narrow window, low
thresholds) emits level-one events; the restart tier (wider window,
stricter thresholds) emits level-two events carrying the rollback step
``floor(t / checkpoint_interval) * checkpoint_interval``.  Restart events
are edge-triggered: once fired, the tier re-arms only after its window
clears below the thresholds.  Events can be POSTed to a webhook; delivery
failures are logged and never block the stream.
"""

from __future__ import annotations

import json
import logging
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

logger = logging.getLogger(__name__)

__all__ = [
    "DetectorTier",
    "MetricPoint",
    "MonitorConfig",
    "MonitorEvent",
    "RollingMedianMad",
    "detect",
    "rollback_step",
    "rolling_median_mad",
    "run_monitor",
    "spike_score",
]

MAD_TO_SIGMA = 1.4826  # matches the standard deviation under normality
_MAD_FLOOR = 1e-8  # keeps a locally constant series from dividing by zero
_SPIKE_Z = 5.0  # spike_score flags a z-score above this


@dataclass(frozen=True)
class MetricPoint:
    step: int
    value: float


@dataclass(frozen=True)
class DetectorTier:
    """One sensitivity tier of the dual-threshold detector."""

    name: str
    window: int
    t_min: float
    t_max: float

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.t_max < self.t_min:
            raise ValueError("t_max must be >= t_min")


@dataclass(frozen=True)
class MonitorConfig:
    alert: DetectorTier
    restart: DetectorTier
    checkpoint_interval: int
    total_steps: int
    webhook: str | None = None
    z_window_fraction: float = 0.01
    mad_floor: float = _MAD_FLOOR

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")

    @property
    def z_window(self) -> int:
        """Spike-score window: a fraction of the declared total steps."""
        return max(1, round(self.z_window_fraction * self.total_steps))


class _SortedWindow:
    """Fixed-capacity trailing window with O(log w) median access."""

    def __init__(self, width: int):
        self.width = width
        self._fifo: deque[float] = deque()
        self._sorted: list[float] = []

    def push(self, value: float) -> None:
        self._fifo.append(value)
        insort(self._sorted, value)
        if len(self._fifo) > self.width:
            oldest = self._fifo.popleft()
            del self._sorted[bisect_left(self._sorted, oldest)]

    def __len__(self) -> int:
        return len(self._fifo)

    def median(self) -> float:
        values = self._sorted
        if not values:
            raise ValueError("median of an empty window")
        mid = len(values) // 2
        if len(values) % 2:
            return values[mid]
        return (values[mid - 1] + values[mid]) / 2


class RollingMedianMad:
    """Streaming rolling median plus windowed MAD of past deviations.

    For each pushed value y_t this tracks m_t (median of the trailing
    window of values) and mad_t (median over the same trailing window of
    |y_s - m_s|, where m_s is the rolling median as it was at step s).
    """

    def __init__(self, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._values = _SortedWindow(window)
        self._deviations = _SortedWindow(window)

    def push(self, value: float) -> tuple[float, float]:
        self._values.push(value)
        median = self._values.median()
        self._deviations.push(abs(value - median))
        return median, self._deviations.median()


def rolling_median_mad(series: Sequence[float], window: int) -> tuple[float, float]:
    """(m_t, mad_t) at the last point of ``series``.

    Raises ``ValueError`` on an empty series.
    """
    if not series:
        raise ValueError("empty window")
    tracker = RollingMedianMad(window)
    for value in series:
        median, mad = tracker.push(value)
    return median, mad


def spike_score(series: Sequence[float], window: int) -> tuple[float, bool]:
    """Robust local z-score of the last point and its spike flag.

    z_t = (y_t - m_t) / (1.4826 * max(mad_t, 1e-8)); the flag is
    ``z_t > 5``.  The floor removes the singularity on locally constant
    series.
    """
    median, mad = rolling_median_mad(series, window)
    z = (series[-1] - median) / (MAD_TO_SIGMA * max(mad, _MAD_FLOOR))
    return z, z > _SPIKE_Z


def detect(window_values: Sequence[float], tier: DetectorTier) -> bool:
    """Dual-threshold verdict over the trailing ``tier.window`` values.

    Triggered iff min(window) > t_min and max(window) > t_max.  Fewer than
    ``tier.window`` values is warm-up: never triggered.
    """
    if len(window_values) < tier.window:
        return False
    recent = window_values[-tier.window :]
    return min(recent) > tier.t_min and max(recent) > tier.t_max


def rollback_step(t_spike: int, checkpoint_interval: int) -> int:
    """Most recent fully committed checkpoint step at or before t_spike."""
    if t_spike < 0:
        raise ValueError(f"t_spike must be >= 0, got {t_spike}")
    if checkpoint_interval < 1:
        raise ValueError(
            f"checkpoint_interval must be >= 1, got {checkpoint_interval}"
        )
    return (t_spike // checkpoint_interval) * checkpoint_interval


@dataclass(frozen=True)
class MonitorEvent:
    tier: int  # 1 = alert, 2 = restart
    step: int
    window_min: float
    window_max: float
    z: float
    rollback_step: int | None = None

    def to_json(self) -> dict:
        payload = {
            "tier": self.tier,
            "step": self.step,
            "window_min": self.window_min,
            "window_max": self.window_max,
            "z": self.z,
        }
        if self.tier == 2:
            payload["rollback_step"] = self.rollback_step
        return payload


def _post_webhook(url: str, event: MonitorEvent, timeout: float = 2.0) -> None:
    # Imported here so a monitor that never posts does not load urllib
    # (and with it http.client and email).
    import urllib.error
    import urllib.request

    body = json.dumps(event.to_json()).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    try:
        urllib.request.urlopen(request, timeout=timeout).close()
    except (urllib.error.URLError, OSError, ValueError) as exc:
        logger.warning("webhook delivery failed for step %d: %s", event.step, exc)


def run_monitor(
    metrics: Iterable[MetricPoint], config: MonitorConfig
) -> Iterator[MonitorEvent]:
    """Evaluate both tiers over an ordered metric stream, yielding events.

    Steps must be strictly increasing.  Alert events (tier 1) are emitted
    for every step whose alert window satisfies both conditions; restart
    events (tier 2) are edge-triggered with hysteresis and carry the
    rollback step.
    """
    scorer = RollingMedianMad(config.z_window)
    alert_window: deque[float] = deque(maxlen=config.alert.window)
    restart_window: deque[float] = deque(maxlen=config.restart.window)
    restart_armed = True
    last_step: int | None = None

    for point in metrics:
        if last_step is not None and point.step <= last_step:
            raise ValueError(
                f"steps must be strictly increasing: {point.step} after {last_step}"
            )
        last_step = point.step

        median, mad = scorer.push(point.value)
        z = (point.value - median) / (
            MAD_TO_SIGMA * max(mad, config.mad_floor)
        )
        alert_window.append(point.value)
        restart_window.append(point.value)

        if detect(list(alert_window), config.alert):
            event = MonitorEvent(
                tier=1,
                step=point.step,
                window_min=min(alert_window),
                window_max=max(alert_window),
                z=z,
            )
            if config.webhook:
                _post_webhook(config.webhook, event)
            yield event

        restart_hit = detect(list(restart_window), config.restart)
        if restart_hit and restart_armed:
            event = MonitorEvent(
                tier=2,
                step=point.step,
                window_min=min(restart_window),
                window_max=max(restart_window),
                z=z,
                rollback_step=rollback_step(point.step, config.checkpoint_interval),
            )
            restart_armed = False
            if config.webhook:
                _post_webhook(config.webhook, event)
            yield event
        elif not restart_hit:
            restart_armed = True
