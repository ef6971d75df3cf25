"""The reference-speed correction, on a synthetic probe record."""

import pytest

import speed
from speed import SpeedProbe


def record(tmp_path, samples):
    path = tmp_path / "speed.txt"
    path.write_text("".join(f"{t:.6f} {d:.9f}\n" for t, d in samples))
    return SpeedProbe(path)


def test_a_host_at_half_speed_halves_the_reported_time(tmp_path):
    ref = speed.REF_PASS_S
    quiet = [(100.0 + 0.1 * i, ref) for i in range(40)]          # t 100.0 .. 103.9
    slow = [(110.0 + 0.1 * i, 2.0 * ref) for i in range(40)]     # t 110.0 .. 113.9
    probe = record(tmp_path, quiet + slow)
    assert probe.slowness(101.0, 102.0) == pytest.approx(1.0)
    assert probe.slowness(111.0, 112.0) == pytest.approx(2.0)
    # The same work, measured twice as long on the slow host, reports
    # the same reference time.
    assert probe.seconds(4.0, 111.0, 112.0) == pytest.approx(2.0)
    assert probe.seconds(2.0, 101.0, 102.0) == pytest.approx(2.0)


def test_the_window_is_padded_and_uses_the_median(tmp_path):
    ref = speed.REF_PASS_S
    samples = [(200.0 + 0.1 * i, ref) for i in range(30)]
    samples[15] = (201.5, 50.0 * ref)  # one preempted probe pass
    probe = record(tmp_path, samples)
    # An interval shorter than one probe period still sees the probes
    # within PAD_S of it; the outlier does not move the median.
    assert probe.slowness(201.52, 201.53) == pytest.approx(1.0)


def test_too_few_probes_is_an_error(tmp_path):
    probe = record(tmp_path, [(300.0, speed.REF_PASS_S)])
    with pytest.raises(RuntimeError):
        probe.slowness(300.0, 300.5)
