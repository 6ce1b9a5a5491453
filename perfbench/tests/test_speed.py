"""The reference-speed clock: probe time is taken out, each probe counts at its speed."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from speed import MIN_PROBES, REFERENCE_S, ProbeClock  # noqa: E402


def test_span_is_scaled_by_the_probes_inside_it():
    clock = ProbeClock()
    # (end of probe, probe seconds): the machine runs at full, then half speed
    clock.samples = [(0.5, REFERENCE_S), (1.0, 2 * REFERENCE_S),
                     (1.5, 2 * REFERENCE_S), (2.5, REFERENCE_S)]
    probe_s, factor = clock.scale(0.2, 2.0)
    assert probe_s == pytest.approx(5 * REFERENCE_S)
    assert factor == pytest.approx((1 + 0.5 + 0.5) / 3)


def test_short_span_borrows_the_latest_probes():
    clock = ProbeClock()
    clock.samples = [(t, 2 * REFERENCE_S) for t in range(1, 6)]
    probe_s, factor = clock.scale(5.5, 5.6)
    assert probe_s == 0
    assert factor == pytest.approx(0.5)


def test_clock_times_a_call_and_stops_its_timer():
    with ProbeClock() as clock:
        raw, scaled, result = clock.time(sum, range(2_000_000))
    assert result == sum(range(2_000_000))
    assert raw > 0 and scaled > 0
    assert len(clock.samples) >= MIN_PROBES
    seen = len(clock.samples)
    sum(range(2_000_000))
    assert len(clock.samples) == seen
