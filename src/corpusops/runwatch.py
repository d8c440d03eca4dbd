"""Training telemetry monitoring: spike scoring, detection, rollback.

Two independent views of a loss stream:

* a robust local z-score per step (rolling median and windowed MAD over
  a fixed 1% of the declared total steps, with an epsilon floor so
  locally constant loss cannot divide by zero), and
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

A post is one HTTP/1.1 ``POST`` with ``Connection: close`` on a fresh
socket: TLS only for an ``https://`` URL, no proxy, no redirect.  Only the
status line of the reply is read, and any status but 2xx is a failure.
The URL is checked and parsed once, when the config is made.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
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
MAD_FLOOR = 1e-8  # keeps a locally constant series from dividing by zero
_SPIKE_Z = 5.0  # spike_score flags a z-score above this
Z_WINDOW_FRACTION = 0.01  # spike-score window, as a share of the declared total steps


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
    _endpoint: _Endpoint | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.webhook:
            # Parsed here, so a bad URL fails before any input is read.
            object.__setattr__(self, "_endpoint", _parse_webhook(self.webhook))

    @property
    def z_window(self) -> int:
        """Spike-score window: a fraction of the declared total steps."""
        return max(1, round(Z_WINDOW_FRACTION * self.total_steps))


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


def _robust_z(value: float, median: float, mad: float) -> float:
    return (value - median) / (MAD_TO_SIGMA * max(mad, MAD_FLOOR))


def spike_score(series: Sequence[float], window: int) -> tuple[float, bool]:
    """Robust local z-score of the last point and its spike flag.

    z_t = (y_t - m_t) / (1.4826 * max(mad_t, 1e-8)); the flag is
    ``z_t > 5``.  The floor removes the singularity on locally constant
    series.  Raises ``ValueError`` on an empty series.
    """
    if not series:
        raise ValueError("empty window")
    z = _robust_z(series[-1], *rolling_median_mad(series, window))
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


class _Endpoint(NamedTuple):
    """A webhook URL, parsed once; a post adds only the body and its length."""

    host: str
    port: int
    tls: bool
    head: bytes  # request line and headers, up to the Content-Length value


def _parse_webhook(url: str) -> _Endpoint:
    from urllib.parse import urlsplit

    if not url.isascii() or not url.isprintable() or " " in url:
        raise ValueError(f"webhook URL must be printable ASCII without spaces, got {url!r}")
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"webhook must be an http:// or https:// URL with a host, got {url!r}")
    tls = parts.scheme == "https"
    try:
        port = parts.port
    except ValueError as exc:
        raise ValueError(f"webhook URL {url!r}: {exc}") from None
    if port is None:
        port = 443 if tls else 80
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    head = (
        f"POST {target} HTTP/1.1\r\n"
        f"Host: {parts.netloc.rpartition('@')[2]}\r\n"
        "Content-Type: application/json\r\n"
        "Connection: close\r\n"
        "Content-Length: "
    )
    return _Endpoint(parts.hostname, port, tls, head.encode("ascii"))


_STATUS_LINE_LIMIT = 1024  # bytes of the reply read for its status line


def _post_webhook(endpoint: _Endpoint, event: MonitorEvent) -> None:
    # A bare socket: urllib.request would load http.client, email and ssl
    # (OpenSSL) for one small POST.  ssl is imported for https:// only.
    import socket

    body = json.dumps(event.to_json()).encode("utf-8")
    sock = socket.create_connection((endpoint.host, endpoint.port), timeout=_POST_TIMEOUT)
    try:
        if endpoint.tls:
            import ssl

            sock = ssl.create_default_context().wrap_socket(
                sock, server_hostname=endpoint.host
            )
        sock.sendall(b"%s%d\r\n\r\n%s" % (endpoint.head, len(body), body))
        reply = b""
        while b"\n" not in reply and len(reply) < _STATUS_LINE_LIMIT:
            chunk = sock.recv(_STATUS_LINE_LIMIT - len(reply))
            if not chunk:
                break
            reply += chunk
    finally:
        sock.close()
    version, _, rest = reply.partition(b"\n")[0].rstrip().partition(b" ")
    code, _, reason = rest.partition(b" ")
    if not version.startswith(b"HTTP/") or len(code) != 3 or not code.isdigit():
        raise OSError(f"no HTTP status line from the webhook: {reply[:80]!r}")
    if code[:1] != b"2":
        raise OSError(f"webhook replied {code.decode()} {reason.decode('latin-1')}".rstrip())


class _WebhookWorker:
    """Posts events to one URL, in order, from a daemon thread.

    The thread starts with the first event.  :meth:`close` waits until
    the queue is drained, except that once the stream has ended the first
    failed post drops whatever is still queued.
    """

    def __init__(self, endpoint: _Endpoint):
        self.endpoint = endpoint
        self.queue: deque[MonitorEvent] = deque(maxlen=WEBHOOK_QUEUE_BOUND)
        self.ready = threading.Condition()
        self.thread: threading.Thread | None = None
        self.closed = False
        self.overflowed = 0  # oldest events pushed out of a full queue
        self.final_failure: tuple[int, Exception] | None = None

    def put(self, event: MonitorEvent) -> None:
        if self.thread is None:
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
                _post_webhook(self.endpoint, event)
            except Exception as exc:  # any failed post, never the stream
                with self.ready:
                    if self.closed:
                        self.final_failure = (event.step, exc)
                        return
                _warn("webhook delivery failed for step %d: %s", event.step, exc)

    def close(self) -> None:
        if self.thread is None:
            return
        with self.ready:
            self.closed = True
            self.ready.notify()
        self.thread.join()
        abandoned = len(self.queue)  # still queued when a post failed after the end
        if self.final_failure is not None and not abandoned:
            _warn(
                "webhook delivery failed for step %d after the stream ended: %s",
                *self.final_failure,
            )
        reasons = []
        if self.overflowed:
            reasons.append(
                f"{self.overflowed} oldest past the queue bound of {self.queue.maxlen}"
            )
        if abandoned:
            step, exc = self.final_failure
            reasons.append(
                f"{abandoned} still queued when the post for step {step} "
                f"failed after the stream ended: {exc}"
            )
        if reasons:
            _warn(
                "webhook delivery dropped %d events (%s)",
                self.overflowed + abandoned,
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
    :class:`MetricPoint`.  Steps must be at least 0 and strictly increasing,
    and values finite; a reading that breaks this raises ``ValueError`` when
    it arrives.  Alert events (tier 1) are emitted for every step whose alert
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
    recent: deque[float] = deque(maxlen=max(alert_w, restart_w))
    alert_run = restart_run = 0  # trailing values above t_min
    alert_peak = restart_peak = -recent.maxlen  # index of the last value above t_max
    restart_armed = True
    last_step = -1  # so a negative step fails the order check below
    webhook = _WebhookWorker(config._endpoint) if config._endpoint else None

    try:
        for index, point in enumerate(metrics):
            step, value = point
            if step <= last_step:
                if step < 0:
                    raise ValueError(f"step must be >= 0, got {step}")
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
                z = _robust_z(value, median(), mad())
                event = _window_event(1, step, recent, alert_w, z)
                if webhook is not None:
                    webhook.put(event)
                yield event

            if restart_run >= restart_w and index - restart_peak < restart_w:
                if restart_armed:
                    z = _robust_z(value, median(), mad())
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
