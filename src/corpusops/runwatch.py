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
clears below the thresholds.

:func:`run_monitor` reads any ``(step, value)`` pairs.  The library's
:class:`MetricPoint` is a named tuple, so a point compares equal to,
hashes, unpacks, indexes and orders like a plain ``(step, value)`` tuple.
The z-score is read only with an event, so :func:`run_monitor` appends
each value to the rolling scorer in O(1) and brings the rolling median
and MAD up to date only at a step where a tier fires (see
:class:`RollingMedianMad`); events are the same as with both updated at
every step.

Events can be POSTed to a webhook.  Delivery is asynchronous: one daemon
worker thread, started by the first event, posts them in order from a
queue of at most ``WEBHOOK_QUEUE_BOUND`` events, so a slow or dead
endpoint never blocks the stream.  A full queue drops its oldest event.
When the stream ends, :func:`run_monitor` waits for the queue to drain,
except that the first post to fail after the end drops whatever is still
queued, so a dead endpoint delays the end by at most one post timeout.
A failed post during the stream is logged; the dropped events are counted
in one warning at the end.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from itertools import islice
from math import isfinite
from typing import Iterable, Iterator, NamedTuple, Sequence

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


class MetricPoint(NamedTuple):
    """One metric reading; a tuple, so it behaves as ``(step, value)``."""

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


def _median(ordered: list[float]) -> float:
    if not ordered:
        raise ValueError("median of an empty window")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


class RollingMedianMad:
    """Streaming rolling median plus windowed MAD of past deviations.

    For each appended value y_t this tracks m_t (median of the trailing
    window of values) and mad_t (median over the same trailing window of
    |y_s - m_s|, where m_s is the rolling median as it was at step s).

    Both are lazy.  :meth:`append` only adds the value to a history of
    the last ``2 * window - 1`` values.  :meth:`median` and :meth:`mad`
    bring the two sorted windows up to date when they are called.  Of the
    ``p`` values appended since the last read, only the last
    ``min(p, window)`` have deviations still inside the MAD window.  The
    value window is first slid through at most ``window - 1`` of the
    values before those, without taking a median, and then through those
    last steps one by one, taking the median and sliding each deviation
    into the MAD window, as an update at every step would have done.  So
    a read costs fewer than three windows' worth of insertions, whatever
    the gap since the last read, and never more than two per value
    appended since then.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._history: deque[float] = deque(maxlen=2 * window - 1)
        self._pending = 0  # values appended since the windows were last updated
        # Each window is a deque, oldest first, beside a sorted list of
        # the same values.
        self._values: deque[float] = deque(maxlen=window)
        self._sorted_values: list[float] = []
        self._deviations: deque[float] = deque(maxlen=window)
        self._sorted_deviations: list[float] = []

    def append(self, value: float) -> None:
        """Add y_t; O(1), the windows catch up at the next read."""
        self._history.append(value)
        self._pending += 1

    def _catch_up(self) -> None:
        pending, window = self._pending, self.window
        self._pending = 0
        # The deviations of the last ``scored`` steps are in the MAD window;
        # the value window at the first of them holds it and ``stale``
        # values before it.
        scored = min(pending, window)
        stale = min(pending - scored, window - 1)
        values, ordered = self._values, self._sorted_values
        deviations, ordered_deviations = self._deviations, self._sorted_deviations
        recent = islice(self._history, len(self._history) - scored - stale, None)
        # Slide each value in (a full window first drops its oldest); from
        # the first scored step on, slide its deviation into the MAD window
        # too.  insort puts a value after its equals and bisect_left evicts
        # the first, so each sorted list is exactly sorted(window), down to
        # the sign of a zero.
        for index, value in enumerate(recent, -stale):
            if len(values) == window:
                del ordered[bisect_left(ordered, values[0])]
            values.append(value)  # drops values[0] when full
            insort(ordered, value)
            if index >= 0:
                deviation = abs(value - _median(ordered))
                if len(deviations) == window:
                    del ordered_deviations[bisect_left(ordered_deviations, deviations[0])]
                deviations.append(deviation)
                insort(ordered_deviations, deviation)

    def median(self) -> float:
        """m_t as of the last append; ``ValueError`` before the first."""
        if self._pending:
            self._catch_up()
        return _median(self._sorted_values)

    def mad(self) -> float:
        """mad_t as of the last append; ``ValueError`` before the first."""
        if self._pending:
            self._catch_up()
        return _median(self._sorted_deviations)

    def push_median(self, value: float) -> float:
        """Append ``value``; return the rolling median m_t."""
        self.append(value)
        return self.median()

    def push(self, value: float) -> tuple[float, float]:
        """Append ``value``; return ``(m_t, mad_t)``."""
        median = self.push_median(value)
        return median, self.mad()


def rolling_median_mad(series: Sequence[float], window: int) -> tuple[float, float]:
    """(m_t, mad_t) at the last point of ``series``.

    Every value is appended and the windows are read once at the end, so
    the work is O(window), not O(len(series)).  Raises ``ValueError`` on
    an empty series.
    """
    if not series:
        raise ValueError("empty window")
    tracker = RollingMedianMad(window)
    for value in series:
        tracker.append(value)
    return tracker.median(), tracker.mad()


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


#: Events waiting for the webhook worker; past this the oldest is dropped.
WEBHOOK_QUEUE_BOUND = 4096
_POST_TIMEOUT = 2.0  # seconds


def _warn(message: str, *args: object) -> None:
    # logging is imported only when there is something to report.
    import logging

    logging.getLogger(__name__).warning(message, *args)


def _post_webhook(url: str, event: MonitorEvent) -> None:
    # Imported here so a monitor that never posts does not load urllib
    # (and with it http.client and email).
    import urllib.request

    body = json.dumps(event.to_json()).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    urllib.request.urlopen(request, timeout=_POST_TIMEOUT).close()


class _WebhookWorker:
    """Posts events to one URL, in order, from a daemon thread.

    The thread starts with the first event.  :meth:`close` waits until
    the queue is drained, except that once the stream has ended the first
    failed post drops whatever is still queued.
    """

    def __init__(self, url: str):
        self.url = url
        self.queue: deque[MonitorEvent] = deque(maxlen=WEBHOOK_QUEUE_BOUND)
        self.ready = threading.Condition()
        self.thread: threading.Thread | None = None
        self.closed = False
        self.overflowed = 0  # oldest events pushed out of a full queue
        self.abandoned = 0  # events still queued when a post failed after the end
        self.final_failure: tuple[int, Exception] | None = None

    def put(self, event: MonitorEvent) -> None:
        if self.thread is None:
            # Loaded here rather than by the worker's first post, so the
            # module's objects land in this thread's malloc arena instead
            # of a new one (about 1 MB less peak RSS in monitor-replay).
            import urllib.request  # noqa: F401

            self.thread = threading.Thread(
                target=self._run, name="corpusops-webhook", daemon=True
            )
            self.thread.start()
        with self.ready:
            if len(self.queue) == self.queue.maxlen:
                self.overflowed += 1  # the append below drops the oldest
            self.queue.append(event)
            self.ready.notify()

    def _run(self) -> None:
        while True:
            with self.ready:
                while not self.queue and not self.closed:
                    self.ready.wait()
                if not self.queue:
                    return
                event = self.queue.popleft()
            try:
                _post_webhook(self.url, event)
            except Exception as exc:  # any failed post, never the stream
                with self.ready:
                    if self.closed:
                        self.final_failure = (event.step, exc)
                        self.abandoned = len(self.queue)
                        return
                _warn("webhook delivery failed for step %d: %s", event.step, exc)

    def close(self) -> None:
        if self.thread is None:
            return
        with self.ready:
            self.closed = True
            self.ready.notify()
        self.thread.join()
        reasons = []
        if self.overflowed:
            reasons.append(
                f"{self.overflowed} oldest past the queue bound of {self.queue.maxlen}"
            )
        if self.final_failure is not None:
            step, exc = self.final_failure
            reasons.append(
                f"{self.abandoned} still queued when the post for step {step} "
                f"failed after the stream ended: {exc}"
            )
        if reasons:
            _warn(
                "webhook delivery dropped %d events (%s)",
                self.overflowed + self.abandoned,
                "; ".join(reasons),
            )


def _window_event(
    tier: int, step: int, recent: deque[float], width: int, z: float,
    rollback: int | None = None,
) -> MonitorEvent:
    window = list(islice(recent, len(recent) - width, None))
    return MonitorEvent(tier, step, min(window), max(window), z, rollback)


def run_monitor(
    metrics: Iterable[tuple[int, float]], config: MonitorConfig
) -> Iterator[MonitorEvent]:
    """Evaluate both tiers over an ordered metric stream, yielding events.

    Each reading is any ``(step, value)`` pair: a plain tuple or a
    :class:`MetricPoint`.  Steps must be strictly increasing and values
    finite.  Alert events (tier 1) are emitted for every step whose alert
    window satisfies both conditions; restart events (tier 2) are
    edge-triggered with hysteresis and carry the rollback step.  With a webhook, each event is queued for
    the delivery worker before it is yielded, and the generator returns
    once the queue is drained.

    Each tier keeps O(1) state instead of scanning its window: the length
    of the trailing run of values above ``t_min`` and the index of the
    last value above ``t_max``.  A window of ``w`` values has its minimum
    above ``t_min`` iff that run is at least ``w`` long, and its maximum
    above ``t_max`` iff that index lies inside it, so the tier fires
    exactly when :func:`detect` does.  Every value is appended to the
    rolling scorer in O(1); the median and MAD behind ``z`` are brought up
    to date only at a step where a tier fires (see
    :class:`RollingMedianMad`), so a step costs O(1) whatever the z
    window.
    """
    alert_w, alert_lo, alert_hi = config.alert.window, config.alert.t_min, config.alert.t_max
    restart_w, restart_lo, restart_hi = (
        config.restart.window, config.restart.t_min, config.restart.t_max
    )
    scorer = RollingMedianMad(config.z_window)
    append, median, mad = scorer.append, scorer.median, scorer.mad
    mad_floor = config.mad_floor
    recent: deque[float] = deque(maxlen=max(alert_w, restart_w))
    alert_run = restart_run = 0  # trailing values above t_min
    alert_peak = restart_peak = -recent.maxlen  # index of the last value above t_max
    restart_armed = True
    last_step: int | None = None
    webhook = _WebhookWorker(config.webhook) if config.webhook else None

    try:
        for index, point in enumerate(metrics):
            step, value = point
            if last_step is not None and step <= last_step:
                raise ValueError(
                    f"steps must be strictly increasing: {step} after {last_step}"
                )
            if not isfinite(value):
                raise ValueError(f"metric value at step {step} is not finite: {value}")
            last_step = step

            append(value)
            recent.append(value)
            alert_run = alert_run + 1 if value > alert_lo else 0
            restart_run = restart_run + 1 if value > restart_lo else 0
            if value > alert_hi:
                alert_peak = index
            if value > restart_hi:
                restart_peak = index

            if alert_run >= alert_w and index - alert_peak < alert_w:
                z = (value - median()) / (MAD_TO_SIGMA * max(mad(), mad_floor))
                event = _window_event(1, step, recent, alert_w, z)
                if webhook is not None:
                    webhook.put(event)
                yield event

            if restart_run >= restart_w and index - restart_peak < restart_w:
                if restart_armed:
                    z = (value - median()) / (MAD_TO_SIGMA * max(mad(), mad_floor))
                    rollback = rollback_step(step, config.checkpoint_interval)
                    event = _window_event(2, step, recent, restart_w, z, rollback)
                    restart_armed = False
                    if webhook is not None:
                        webhook.put(event)
                    yield event
            else:
                restart_armed = True
    finally:
        if webhook is not None:
            webhook.close()
