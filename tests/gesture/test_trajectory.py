"""Tests for the gesture trajectory model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.gesture import GestureTrajectory, default_volunteers, sample_gesture


@pytest.fixture()
def trajectory():
    return sample_gesture(default_volunteers()[0], rng=11)


class TestTimeline:
    def test_total_includes_pause(self, trajectory):
        assert trajectory.total_s == pytest.approx(
            trajectory.pause_s + trajectory.active_s
        )

    def test_pause_is_nearly_still(self, trajectory):
        t = np.linspace(0.05, trajectory.pause_s - 0.1, 50)
        disp = trajectory.position(t)
        # Only the sub-millimetre tremor moves the hand before onset.
        assert np.abs(disp).max() < 1e-3

    def test_active_phase_moves_centimetres(self, trajectory):
        t = np.linspace(
            trajectory.pause_s + 0.5, trajectory.total_s - 0.1, 100
        )
        disp = trajectory.position(t)
        assert np.abs(disp).max() > 0.02


class TestKinematicConsistency:
    def test_velocity_is_position_derivative(self, trajectory):
        t = np.linspace(1.0, 2.5, 7)
        h = 1e-5
        numeric = (trajectory.position(t + h) - trajectory.position(t - h)) / (
            2 * h
        )
        np.testing.assert_allclose(
            trajectory.velocity(t), numeric, atol=1e-4
        )

    def test_acceleration_magnitude_plausible(self, trajectory):
        t = np.linspace(trajectory.pause_s + 0.3, trajectory.total_s - 0.2, 200)
        acc = trajectory.acceleration(t)
        # Hand gestures produce accelerations of a few m/s^2 up to ~50.
        assert 0.5 < np.abs(acc).max() < 100.0

    def test_orientation_is_rotation(self, trajectory):
        r = trajectory.orientation(1.7)
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-10)

    def test_angular_velocity_consistent_with_orientation(self, trajectory):
        # Integrate the reported omega and compare against orientation.
        t0, t1, n = 1.0, 1.5, 500
        dt = (t1 - t0) / n
        from repro.gesture import integrate_angular_velocity

        r = trajectory.orientation(t0)
        for i in range(n):
            omega = trajectory.angular_velocity_body(t0 + i * dt)
            r = integrate_angular_velocity(r, omega, dt)
        np.testing.assert_allclose(
            r, trajectory.orientation(t1), atol=5e-3
        )

    def test_vectorized_and_scalar_agree(self, trajectory):
        # Bit for bit, across the pause (zero rotation: the first-order
        # branch), the onset ramp and the active phase.
        pause, ramp = trajectory.pause_s, trajectory.ramp_s
        t = np.concatenate([
            np.linspace(0.0, pause, 9),
            np.linspace(pause, pause + ramp, 9),
            np.linspace(pause + ramp, trajectory.total_s, 9),
        ])
        assert np.array_equal(trajectory.orientation(0.1), np.eye(3))
        stacked = trajectory.orientations(t)
        omega = trajectory.angular_velocity_body(t)
        for i, ti in enumerate(t):
            assert np.array_equal(stacked[i], trajectory.orientation(ti))
            assert np.array_equal(
                omega[i], trajectory.angular_velocity_body(ti)
            )


class TestRandomness:
    def test_distinct_seeds_give_distinct_gestures(self):
        profile = default_volunteers()[0]
        a = sample_gesture(profile, rng=1)
        b = sample_gesture(profile, rng=2)
        t = np.linspace(1.0, 3.0, 50)
        assert np.abs(a.position(t) - b.position(t)).max() > 0.01

    def test_same_seed_reproduces(self):
        profile = default_volunteers()[0]
        a = sample_gesture(profile, rng=5)
        b = sample_gesture(profile, rng=5)
        t = np.linspace(0.0, 3.0, 50)
        np.testing.assert_array_equal(a.position(t), b.position(t))

    def test_frequencies_in_profile_band(self):
        profile = default_volunteers()[1]
        traj = sample_gesture(profile, rng=3)
        low, high = profile.freq_band_hz
        assert np.all(traj.pos_freq >= low * 0.999)
        assert np.all(traj.pos_freq <= high * 1.001)


class TestValidation:
    def test_inconsistent_components_raise(self):
        with pytest.raises(ConfigurationError):
            GestureTrajectory(
                position_amplitudes=np.ones((2, 3)),
                position_frequencies=np.ones(3),  # mismatch
                position_phases=np.zeros((2, 3)),
                rotation_amplitudes=np.ones((1, 3)),
                rotation_frequencies=np.ones(1),
                rotation_phases=np.zeros((1, 3)),
            )

    def test_component_introspection(self):
        traj = sample_gesture(default_volunteers()[0], rng=2)
        comps = traj.position_components()
        assert len(comps) == traj.pos_freq.size
        assert comps[0][0].frequency_hz == pytest.approx(traj.pos_freq[0])
