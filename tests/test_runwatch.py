import http.server
import io
import json
import logging
import math
import random
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusops import runwatch
from corpusops.runwatch import (
    DetectorTier,
    MetricPoint,
    MonitorConfig,
    RollingMedianMad,
    detect,
    rollback_step,
    rolling_median_mad,
    run_monitor,
    spike_score,
)
from helpers import reference_monitor_events, reference_spike_scores

ALERT = DetectorTier(name="alert", window=3, t_min=2.0, t_max=3.0)
RESTART = DetectorTier(name="restart", window=5, t_min=2.5, t_max=4.0)


def config(**overrides):
    defaults = dict(
        alert=ALERT,
        restart=RESTART,
        checkpoint_interval=500,
        total_steps=1000,
        z_window_fraction=0.01,
    )
    defaults.update(overrides)
    return MonitorConfig(**defaults)


def stream(values, start=0):
    return [MetricPoint(step=start + i, value=v) for i, v in enumerate(values)]


class TestRollingMedianMad:
    def test_constant_series(self):
        median, mad = rolling_median_mad([3.0] * 10, window=4)
        assert median == 3.0
        assert mad == 0.0

    def test_median_resists_outlier(self):
        median, _ = rolling_median_mad([1.0, 1.0, 1.0, 1.0, 9.0], window=5)
        assert median == 1.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            rolling_median_mad([], window=3)

    @given(
        st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_quadratic_reference(self, series, window):
        reference = reference_spike_scores(series, window, mad_floor=1e-8)
        median, mad = rolling_median_mad(series, window)
        assert median == reference[-1][0]
        assert mad == reference[-1][1]


    @given(
        st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=80),
        st.integers(min_value=1, max_value=12),
        st.sets(st.integers(min_value=0, max_value=79)),
    )
    @example([0.0, 1.0, 5.0, 2.0, 2.0, 7.0, 1.0], 2, {1, 6})
    @example([0.0, 1.0, 5.0, 2.0, 2.0, 7.0, 1.0], 3, {2, 3, 6})
    @settings(max_examples=200, deadline=None)
    def test_lazy_mad_read_at_any_steps_matches_reference(self, series, window, reads):
        # A read replays the pushes since the last read, at most the last
        # `window` of them.
        reference = reference_spike_scores(series, window, mad_floor=1e-8)
        tracker = RollingMedianMad(window)
        for t, value in enumerate(series):
            assert tracker.push_median(value) == reference[t][0]
            if t in reads:
                assert tracker.mad() == reference[t][1]
        assert tracker.mad() == reference[-1][1]
        assert tracker.push(0.5) == reference_spike_scores(series + [0.5], window, 1e-8)[-1][:2]

    def test_mad_before_any_push_errors(self):
        with pytest.raises(ValueError, match="empty window"):
            RollingMedianMad(3).mad()

    def test_median_before_any_append_errors(self):
        with pytest.raises(ValueError, match="empty window"):
            RollingMedianMad(3).median()

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([-0.0, 0.0]),
                st.sampled_from([1.0, -1.0, 2.5]),
                st.floats(min_value=-100, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=90,
        ),
        st.integers(min_value=1, max_value=8),
        st.dictionaries(
            st.integers(min_value=0, max_value=89), st.sampled_from(["median", "mad", "both"])
        ),
    )
    # Gaps of more than 2 * window between reads, and a first read after one.
    @example([float(i % 5) for i in range(40)], 3, {2: "both", 30: "mad", 31: "median"})
    @example([0.0, -0.0] * 20, 4, {25: "median", 39: "both"})
    # The evicted 0.0 is the first of its equals: -0.0 is the median after.
    @example([0.0, -0.0, 0.0, 1.0], 3, {2: "median"})
    @settings(max_examples=300, deadline=None)
    def test_lazy_reads_match_reference_by_repr(self, series, window, reads):
        # Values only appended; median() and mad() read at arbitrary steps.
        # repr tells -0.0 from 0.0, so the sorted windows must keep equal
        # values in the order the reference's stable sort does.
        reference = reference_spike_scores(series, window, mad_floor=1e-8)
        tracker = RollingMedianMad(window)
        for t, value in enumerate(series):
            tracker.append(value)
            read = reads.get(t)
            if read in ("median", "both"):
                assert repr(tracker.median()) == repr(reference[t][0])
            if read in ("mad", "both"):
                assert repr(tracker.mad()) == repr(reference[t][1])
        assert repr((tracker.median(), tracker.mad())) == repr(reference[-1][:2])

    @given(
        st.lists(
            st.sampled_from([1.0, 1.0, 1.0, 1.0, 0.0, -0.0, 2.7, 3.5, 5.0]), max_size=120
        ),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_plain_pairs_metric_points_and_reference_agree(self, values, window):
        # Sparse firing with a small z window: reads come after gaps longer
        # than 2 * window.
        points = stream(values)
        cfg = config(total_steps=window, z_window_fraction=1.0)
        expected = [repr(e.to_json()) for e in reference_monitor_events(points, cfg)]
        plain = [(p.step, p.value) for p in points]
        assert [repr(e.to_json()) for e in run_monitor(plain, cfg)] == expected
        assert [repr(e.to_json()) for e in run_monitor(points, cfg)] == expected


class TestLazyMadWork:
    """How much sorting run_monitor asks of the rolling median and MAD.

    Work is counted as calls to ``insort`` in runwatch.  Updating both
    sorted windows at every step, as the eager scorer did, costs two
    insorts per step.  Calls to ``sorted`` are counted too: a sort per
    read would make a run that fires at every step pay a window's sort
    per step.
    """

    @pytest.fixture
    def work(self, monkeypatch):
        counts = {"sorts": 0, "insorts": 0}
        insort = runwatch.insort

        def counting_sorted(values):
            counts["sorts"] += 1
            return sorted(values)

        def counting_insort(ordered, value):
            counts["insorts"] += 1
            insort(ordered, value)

        monkeypatch.setattr(runwatch, "sorted", counting_sorted, raising=False)
        monkeypatch.setattr(runwatch, "insort", counting_insort)
        return counts

    @staticmethod
    def series_and_config(values, window):
        points = stream(values)
        cfg = config(total_steps=window, z_window_fraction=1.0)
        assert cfg.z_window == window
        return points, cfg

    @pytest.mark.parametrize("window", [1, 2, 3, 8, 51, 150, 400])
    def test_every_step_firing_costs_what_the_eager_update_did(self, window, work):
        # A diverged run: every value is far above both tiers, so the alert
        # tier fires at every step from its third on and mad() is read there.
        rng = random.Random(window)
        values = [7.0 + rng.gauss(0, 0.3) for _ in range(1200)]
        points, cfg = self.series_and_config(values, window)
        events = list(run_monitor(points, cfg))
        assert sum(e.tier == 1 for e in events) == len(values) - ALERT.window + 1
        eager = 2 * len(values)
        assert work["sorts"] == 0
        assert work["insorts"] <= eager
        assert [e.to_json() for e in events] == [
            e.to_json() for e in reference_monitor_events(points, cfg)
        ]

    @pytest.mark.parametrize("window", [1, 2, 7, 50, 51])
    def test_sparse_firing_replays_at_most_a_window_per_burst(self, window, work):
        rng = random.Random(100 + window)
        values = [1.0 + rng.gauss(0, 0.05) for _ in range(1500)]
        for start, level, width in [(10, 3.5, 6), (300, 4.5, 9), (302 + window, 3.5, 4),
                                    (900, 3.5, 7), (1494, 4.5, 6)]:
            values[start : start + width] = [level] * width
        points, cfg = self.series_and_config(values, window)
        events = list(run_monitor(points, cfg))
        steps = sorted({e.step for e in events})
        bursts = [s for s in steps if s - 1 not in steps]
        assert len(bursts) >= 4
        # mad() runs only where a tier fires: one insort per step for the
        # median, at most a window's replay at the start of a burst, and
        # one insort per firing step within it.
        assert work["sorts"] == 0
        assert work["insorts"] <= len(values) + len(bursts) * window + len(steps)
        assert [e.to_json() for e in events] == [
            e.to_json() for e in reference_monitor_events(points, cfg)
        ]

    def test_median_work_does_not_grow_with_stream_length(self, work):
        # Both windows catch up only where a tier fires: at most a window of
        # stale values plus two slides for each of the last window's steps
        # at the start of a burst, then two per firing step.  Nothing is
        # paid for the quiet steps in between.
        window = 50
        rng = random.Random(20_000)
        values = [1.0 + rng.gauss(0, 0.05) for _ in range(20_000)]
        for start, level, width in [(2_000, 3.5, 6), (9_000, 4.5, 9), (9_030, 3.5, 4),
                                    (15_500, 3.5, 7), (19_990, 4.5, 10)]:
            values[start : start + width] = [level] * width
        points, cfg = self.series_and_config(values, window)
        events = list(run_monitor(points, cfg))
        steps = sorted({e.step for e in events})
        bursts = [s for s in steps if s - 1 not in steps]
        assert len(bursts) >= 4
        assert work["sorts"] == 0
        assert work["insorts"] <= len(bursts) * 3 * window + 2 * len(steps)
        assert [e.to_json() for e in events] == [
            e.to_json() for e in reference_monitor_events(points, cfg)
        ]

    @pytest.mark.parametrize("window", [1, 7, 40])
    def test_rolling_median_mad_and_spike_score_read_once(self, window, work):
        rng = random.Random(window)
        series = [rng.choice([0.0, -0.0, 1.0, rng.gauss(2, 1)]) for _ in range(5_000)]
        # The last step's MAD reaches back 2 * window - 1 values at most.
        reference = reference_spike_scores(series[-3 * window :], window, 1e-8)[-1]
        assert repr(rolling_median_mad(series, window)) == repr(reference[:2])
        assert work["insorts"] <= 3 * window
        assert spike_score(series, window) == (reference[2], reference[2] > 5)
        assert work["insorts"] <= 6 * window
        assert work["sorts"] == 0

    def test_warm_up_only_reads_replay(self, work):
        # Fewer values than the window: every read replays what is pending.
        values = [1.0, 7.0, 7.5, 7.2, 7.9, 1.0, 1.0, 7.0, 7.0, 7.0]
        points, cfg = self.series_and_config(values, 40)
        events = list(run_monitor(points, cfg))
        assert events
        assert work["sorts"] == 0
        assert work["insorts"] <= 2 * len(values)
        assert [e.to_json() for e in events] == [
            e.to_json() for e in reference_monitor_events(points, cfg)
        ]


class TestMetricPoint:
    def test_is_an_immutable_tuple(self):
        point = MetricPoint(3, 2.5)
        assert point == MetricPoint(step=3, value=2.5) == (3, 2.5)
        assert (point.step, point.value) == (3, 2.5)
        with pytest.raises(AttributeError):
            point.step = 4

    def test_unpacks_indexes_orders_and_hashes_as_a_tuple(self):
        point = MetricPoint(3, 2.5)
        step, value = point
        assert (step, value) == (point[0], point[1]) == (3, 2.5)
        assert len(point) == 2 and hash(point) == hash((3, 2.5))
        assert MetricPoint(2, 9.0) < point < MetricPoint(3, 2.6)


class TestSpikeScore:
    def test_value_at_median_scores_zero(self):
        z, flagged = spike_score([1.0, 2.0, 3.0, 2.0], window=4)
        assert z == 0.0
        assert not flagged

    def test_jump_from_constant_history_is_flagged(self):
        z, flagged = spike_score([1.0] * 20 + [11.0], window=10)
        assert flagged
        assert z > 5

    def test_injected_10_sigma_jump_flagged_exactly_once(self):
        rng = random.Random(8)
        sigma = 0.05
        series = [2.0 + rng.gauss(0, sigma) for _ in range(300)]
        series[200] += 10 * sigma
        window = 30
        flagged_steps = []
        for t in range(window, len(series)):
            z, flagged = spike_score(series[: t + 1], window=window)
            reference = reference_spike_scores(series[: t + 1], window, 1e-8)
            assert z == reference[-1][2]
            if flagged:
                flagged_steps.append(t)
        assert flagged_steps == [200]


class TestDetect:
    def test_persistence_fails(self):
        assert not detect([1.0, 1.0, 1.0], ALERT)  # all <= t_min

    def test_severity_fails(self):
        assert not detect([2.5, 2.6, 2.7], ALERT)  # min > t_min, max <= t_max

    def test_both_conditions_trigger(self):
        assert detect([2.5, 2.6, 3.5], ALERT)

    def test_warmup_short_window_none(self):
        assert not detect([9.0, 9.0], ALERT)

    def test_narrow_excursion_never_triggers(self):
        # one huge value flanked by quiet ones: persistence fails
        assert not detect([1.0, 99.0, 1.0], ALERT)

    @given(
        st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), min_size=3, max_size=3),
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=0.1, max_value=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_window_values(self, values, index, bump):
        before = detect(values, ALERT)
        values = list(values)
        values[index] += bump
        if before:
            assert detect(values, ALERT)


class TestRollbackStep:
    @pytest.mark.parametrize(
        "t,interval,expected",
        [(1050, 500, 1000), (1000, 500, 1000), (499, 500, 0), (0, 1, 0)],
    )
    def test_formula(self, t, interval, expected):
        assert rollback_step(t, interval) == expected

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_multiple_of_interval_and_bounded(self, t, interval):
        r = rollback_step(t, interval)
        assert r <= t
        assert r % interval == 0
        assert rollback_step(interval * 7, interval) == interval * 7


class TestRunMonitor:
    def test_flat_series_no_events(self):
        events = list(run_monitor(stream([1.0] * 50), config()))
        assert events == []

    def test_alert_only_band(self):
        # Values sit between alert and restart thresholds long enough for
        # the alert tier only.
        values = [1.0] * 10 + [3.5] * 3 + [1.0] * 10
        events = list(run_monitor(stream(values), config()))
        assert events
        assert {e.tier for e in events} == {1}

    def test_wide_spike_emits_single_restart_with_rollback(self):
        values = [1.0] * 20 + [5.0] * 8 + [1.0] * 20
        events = list(run_monitor(stream(values, start=1030), config()))
        level_two = [e for e in events if e.tier == 2]
        assert len(level_two) == 1
        event = level_two[0]
        # Manual oracle: the restart window (w=5) first fills with values
        # > 2.5 at the 5th spike step; spike starts at step 1050.
        assert event.step == 1054
        assert event.rollback_step == (event.step // 500) * 500 == 1000
        assert event.window_min > RESTART.t_min
        assert event.window_max > RESTART.t_max

    def test_hysteresis_rearms_after_window_clears(self):
        spike = [5.0] * 6
        quiet = [1.0] * 10
        values = quiet + spike + quiet + spike + quiet
        events = list(run_monitor(stream(values), config()))
        assert len([e for e in events if e.tier == 2]) == 2

    def test_narrow_spike_never_restarts(self):
        values = [1.0] * 20 + [50.0] + [1.0] * 20
        events = list(run_monitor(stream(values), config()))
        assert [e for e in events if e.tier == 2] == []

    def test_out_of_order_steps_rejected(self):
        points = [MetricPoint(0, 1.0), MetricPoint(0, 1.0)]
        with pytest.raises(ValueError):
            list(run_monitor(points, config()))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, bad):
        # NaN used to break the rolling median's sort order (an IndexError
        # a few steps later); now it is refused at the step it arrives.
        values = [5.0, bad, 4.0, 2.0, 1.0, 4.0, 5.0, 0.0, 3.0, 1.0]
        with pytest.raises(ValueError, match="step 1 is not finite"):
            list(run_monitor(stream(values), config(total_steps=500)))

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([-0.0, 0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0]),
                st.floats(min_value=-10, max_value=10, allow_nan=False),
            ),
            max_size=80,
        ),
        st.lists(st.integers(min_value=1, max_value=700), min_size=80, max_size=80),
        st.tuples(
            st.integers(min_value=1, max_value=7),
            st.sampled_from([-1.0, 0.0, 1.0, 2.0, 2.5, 3.0]),
            st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        ),
        st.tuples(
            st.integers(min_value=1, max_value=7),
            st.sampled_from([-1.0, 0.0, 1.0, 2.0, 2.5, 3.0]),
            st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        ),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=1, max_value=1500),
    )
    @example(  # -0.0 before 0.0: window_min must keep the window's order
        [-0.0, 0.0, 3.0], [1] * 80, (3, -1.0, 2.0), (3, -1.0, 2.0), 1, 100
    )
    @settings(max_examples=300, deadline=None)
    def test_events_match_the_window_scan(self, values, gaps, alert, restart, interval, total):
        steps = [sum(gaps[: i + 1]) for i in range(len(values))]
        points = [MetricPoint(step, value) for step, value in zip(steps, values)]
        cfg = config(
            alert=DetectorTier("alert", alert[0], alert[1], alert[1] + alert[2]),
            restart=DetectorTier("restart", restart[0], restart[1], restart[1] + restart[2]),
            checkpoint_interval=interval,
            total_steps=total,
        )
        expected = reference_monitor_events(points, cfg)
        got = list(run_monitor(points, cfg))
        # JSON text, so 0.0 and -0.0 in window_min/window_max differ too
        assert [json.dumps(e.to_json()) for e in got] == [json.dumps(e.to_json()) for e in expected]


class _Capture(http.server.BaseHTTPRequestHandler):
    received: list[dict] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        type(self).received.append(json.loads(self.rfile.read(length)))
        self.send_response(200)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def webhook_server():
    _Capture.received = []
    server = http.server.HTTPServer(("127.0.0.1", 0), _Capture)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/hook", _Capture.received
    server.shutdown()
    server.server_close()


class TestWebhook:
    def test_events_posted(self, webhook_server):
        url, received = webhook_server
        values = [1.0] * 10 + [5.0] * 6 + [1.0] * 5
        events = list(run_monitor(stream(values), config(webhook=url)))
        assert len(received) == len(events)
        tier_two = [body for body in received if body["tier"] == 2]
        assert len(tier_two) == 1
        assert set(tier_two[0]) == {
            "tier", "step", "window_min", "window_max", "z", "rollback_step",
        }
        tier_one = [body for body in received if body["tier"] == 1]
        assert all("rollback_step" not in body for body in tier_one)

    def test_webhook_failure_never_blocks(self, caplog):
        # Unroutable port: delivery fails, the stream must still finish.
        values = [1.0] * 10 + [5.0] * 6
        events = list(
            run_monitor(
                stream(values), config(webhook="http://127.0.0.1:1/nope")
            )
        )
        assert [e for e in events if e.tier == 2]


URL = "http://hook.invalid/events"
QUIET = DetectorTier(name="restart", window=5, t_min=10.0, t_max=20.0)  # never fires


@pytest.fixture
def posted(monkeypatch):
    """Steps the webhook received, through a fake ``urlopen``."""
    steps = []

    def fake_urlopen(request, timeout):
        steps.append(json.loads(request.data)["step"])
        return io.BytesIO()

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    return steps


@pytest.fixture
def threads_started(monkeypatch):
    names = []

    class Recording(threading.Thread):
        def start(self):
            names.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recording)
    return names


def warnings_of(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]


class TestWebhookWorker:
    def test_every_event_is_posted_before_run_monitor_returns(self, posted, threads_started):
        values = [1.0] * 10 + [5.0] * 40 + [1.0] * 10 + [5.0] * 6
        events = list(run_monitor(stream(values), config(webhook=URL)))
        assert len(events) > 40
        assert posted == [e.step for e in events]
        assert threads_started == ["corpusops-webhook"]

    def test_stream_without_events_starts_no_thread(self, posted, threads_started):
        assert list(run_monitor(stream([1.0] * 50), config(webhook=URL))) == []
        assert threads_started == []
        assert posted == []

    def test_full_queue_drops_the_oldest_and_warns_with_the_count(self, monkeypatch, caplog):
        monkeypatch.setattr(runwatch, "WEBHOOK_QUEUE_BOUND", 2)
        first_post, release = threading.Event(), threading.Event()
        steps = []

        def held_urlopen(request, timeout):
            first_post.set()
            release.wait(10)
            steps.append(json.loads(request.data)["step"])
            return io.BytesIO()

        monkeypatch.setattr(urllib.request, "urlopen", held_urlopen)

        def points():
            # Alert events at steps 7-12; step 7's post holds the worker
            # while 8-12 arrive at a queue that keeps two.
            for point in stream([1.0] * 5 + [5.0] * 8):
                if point.step == 8:
                    assert first_post.wait(10)
                yield point
            release.set()

        events = list(run_monitor(points(), config(restart=QUIET, webhook=URL)))
        assert [e.step for e in events] == [7, 8, 9, 10, 11, 12]
        assert steps == [7, 11, 12]
        assert warnings_of(caplog) == [
            "webhook delivery dropped 3 events (3 oldest past the queue bound of 2)"
        ]

    def test_failed_post_after_the_stream_ends_delivery(self, monkeypatch, caplog):
        hang = 0.4  # stands in for the post timeout
        steps = []

        def dead_urlopen(request, timeout):
            steps.append(json.loads(request.data)["step"])
            time.sleep(hang)
            raise urllib.error.URLError("timed out")

        monkeypatch.setattr(urllib.request, "urlopen", dead_urlopen)
        start = time.perf_counter()
        events = list(run_monitor(stream([5.0] * 6), config(restart=QUIET, webhook=URL)))
        elapsed = time.perf_counter() - start
        assert [e.step for e in events] == [2, 3, 4, 5]
        # One timeout, not four: the first failure drops the three queued.
        assert hang <= elapsed < 2.5 * hang
        assert steps == [2]
        (warning,) = warnings_of(caplog)
        assert warning.startswith(
            "webhook delivery dropped 3 events (3 still queued when the post "
            "for step 2 failed after the stream ended: "
        )

    @pytest.mark.parametrize("bound", [4096, 3])
    def test_concurrent_monitors_lose_no_event_uncounted(self, bound, monkeypatch, caplog):
        # Three monitors, each with its own worker, on a two-core host with
        # a short switch interval: every event is either posted, in order,
        # or counted as dropped.
        monkeypatch.setattr(runwatch, "WEBHOOK_QUEUE_BOUND", bound)
        posted = {}

        def fake_urlopen(request, timeout):
            posted.setdefault(request.full_url, []).append(json.loads(request.data)["step"])
            return io.BytesIO()

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        values = ([1.0] * 7 + [5.0] * 60) * 12
        emitted = {}

        def monitor(url):
            emitted[url] = [e.step for e in run_monitor(stream(values), config(webhook=url))]

        urls = [f"{URL}/{i}" for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=monitor, args=(url,)) for url in urls]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        dropped = sum(
            int(message.split()[3]) for message in warnings_of(caplog)
            if message.startswith("webhook delivery dropped")
        )
        missing = 0
        for url in urls:
            steps, delivered = emitted[url], posted.get(url, [])
            assert len(steps) > 700
            remaining = iter(steps)
            assert all(step in remaining for step in delivered)  # in order
            assert delivered[-1] == steps[-1]
            missing += len(steps) - len(delivered)
        assert dropped == missing
        if bound > len(values):
            assert missing == 0
