"""Batched acquisition kinematics against the per-sample code they replaced.

Verdicts are pinned per seed, and one last-bit change in the sensor data
can flip a quantisation bit, so the batched Rodrigues kernel must
reproduce the per-sample evaluation exactly rather than to a tolerance.
The oracle below is the per-sample implementation: one Rodrigues
evaluation per rotation vector, one orientation per timestamp, and a
gyro increment computed inside the calibration loop.  Comparing in
process holds on any BLAS, where stored golden digests could differ
from one CPU to the next.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.datasets.generation as generation
from repro.datasets import generate_sample
from repro.errors import SimulationError
from repro.gesture import (
    GestureTrajectory,
    default_volunteers,
    rotations_from_rotvecs,
    sample_gesture,
    triad,
)
from repro.gesture.trajectory import _FD_STEP
from repro.imu import CalibrationConfig, default_mobile_devices
from repro.imu.calibration import _interpolate_columns, detect_motion_onset
from repro.imu.sensors import GRAVITY_WORLD, MAGNETIC_FIELD_WORLD
from repro.rfid import ChannelGeometry, default_environments, default_tags
from repro.utils.rng import child_rng


# -- the per-sample oracle -----------------------------------------------------


def oracle_skew(v):
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def oracle_rotation(rotvec):
    angle = float(np.linalg.norm(rotvec))
    if angle < 1e-12:
        return np.eye(3) + oracle_skew(rotvec)
    axis = rotvec / angle
    k = oracle_skew(axis)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


class PerSampleTrajectory(GestureTrajectory):
    """The same gesture, with every rotation evaluated one timestamp at a
    time."""

    def __init__(self, trajectory):
        self.__dict__.update(vars(trajectory))

    def orientation(self, t):
        return oracle_rotation(self.rotation_vector(float(t)))

    def orientations(self, t):
        t = np.asarray(t, dtype=np.float64).ravel()
        return np.stack([self.orientation(ti) for ti in t])

    def angular_velocity_body(self, t):
        t = np.asarray(t, dtype=np.float64)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        h = _FD_STEP
        out = np.empty((t.size, 3))
        for i, ti in enumerate(t):
            r = self.orientation(ti)
            dr = (self.orientation(ti + h) - self.orientation(ti - h)) / (
                2.0 * h
            )
            w_skew = r.T @ dr
            out[i] = [w_skew[2, 1], w_skew[0, 2], w_skew[1, 0]]
        return out[0] if scalar else out


def calibrate_per_sample(record, config=CalibrationConfig(), offset_s=0.0):
    t_raw = record.timestamps_s
    rate = config.target_rate_hz
    n_grid = int(np.floor((t_raw[-1] - t_raw[0]) * rate))
    if n_grid < config.n_samples:
        raise SimulationError(
            f"record spans only {t_raw[-1] - t_raw[0]:.2f}s; need more than "
            f"{config.window_s}s"
        )
    t = t_raw[0] + np.arange(n_grid) / rate
    acc = _interpolate_columns(t, t_raw, record.accelerometer)
    gyro = _interpolate_columns(t, t_raw, record.gyroscope)
    mag = _interpolate_columns(t, t_raw, record.magnetometer)
    activity = np.linalg.norm(acc - acc.mean(axis=0), axis=1)
    onset = detect_motion_onset(
        activity,
        rate,
        window_s=config.onset_window_s,
        baseline_s=config.baseline_s,
        threshold=config.onset_threshold,
        min_std=config.min_onset_std,
    )
    pause_end = onset
    onset = onset + int(round(offset_s * rate))
    if onset + config.n_samples > n_grid:
        raise SimulationError(
            "gesture after onset is shorter than the 2 s analysis window"
        )
    pause = slice(0, max(2, pause_end))
    gyro_bias = gyro[pause].mean(axis=0)
    rotation = triad(
        acc[pause].mean(axis=0),
        mag[pause].mean(axis=0),
        -GRAVITY_WORLD,
        MAGNETIC_FIELD_WORLD,
    )
    dt = 1.0 / rate
    for i in range(pause_end, onset):
        rotation = rotation @ oracle_rotation((gyro[i] - gyro_bias) * dt)
    window = slice(onset, onset + config.n_samples)
    acc_win = acc[window]
    gyro_win = gyro[window] - gyro_bias
    linear = np.empty((config.n_samples, 3))
    for i in range(config.n_samples):
        linear[i] = rotation @ acc_win[i] + GRAVITY_WORLD
        rotation = rotation @ oracle_rotation(gyro_win[i] * dt)
    return linear


# -- the batched kernel against the oracle ---------------------------------------

_component = st.floats(-10.0, 10.0, allow_nan=False)
_direction = st.tuples(_component, _component, _component).filter(
    lambda d: np.linalg.norm(d) > 1e-3
)
_magnitude = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-12),                         # first-order branch
    st.floats(np.pi - 1e-6, np.pi + 1e-6),         # near pi
    st.floats(2 * np.pi, 60.0),                    # more than a full turn
    st.floats(1e-12, 10.0),
)
_rotvec = st.one_of(
    st.tuples(_component, _component, _component).map(np.array),
    st.builds(
        lambda d, m: np.asarray(d) / np.linalg.norm(d) * m,
        _direction,
        _magnitude,
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_rotvec, min_size=1, max_size=24))
def test_batched_kernel_equals_per_vector_rodrigues(rotvecs):
    batch = rotations_from_rotvecs(np.stack(rotvecs))
    for got, rotvec in zip(batch, rotvecs):
        assert np.array_equal(got, oracle_rotation(rotvec))


# -- whole acquisitions -----------------------------------------------------------

_DEVICES = default_mobile_devices()


# (seed, offset_s).  The seed also picks the device (whose sample rate
# sets the IMU timestamps) and the dynamic flag, so each block of eight
# seeds covers every device, static and dynamic; the offset alternates
# per block.  Three windows overrun the gesture, so their acquisitions
# raise: in RFID processing (46, 20) and in IMU calibration (16).
_CASES = [(seed, (0.0, 0.3)[(seed // 8) % 2]) for seed in range(56)] + [
    (16, 0.45),
    (20, 0.45),
]
_RAISING = {(46, 0.3), (16, 0.45), (20, 0.45)}


def _outcome(seed, offset_s, per_sample):
    """One backend-style acquisition: the two matrices or the error."""
    rng = child_rng(seed, "acquire")
    trajectory = sample_gesture(
        default_volunteers()[seed % 6], child_rng(rng, "gesture")
    )
    if per_sample:
        trajectory = PerSampleTrajectory(trajectory)
    try:
        sample = generate_sample(
            trajectory,
            _DEVICES[seed % len(_DEVICES)],
            default_tags()[seed % 6],
            default_environments()[seed % 4],
            dynamic=bool((seed // 4) % 2),
            geometry=ChannelGeometry(),
            offset_s=offset_s,
            rng=child_rng(rng, "sample"),
        )
    except SimulationError as exc:
        return str(exc)
    return sample.a_matrix, sample.r_matrix


@pytest.mark.parametrize("seed, offset_s", _CASES)
def test_acquisition_is_bit_identical_to_per_sample(
    seed, offset_s, monkeypatch
):
    batched = _outcome(seed, offset_s, per_sample=False)
    monkeypatch.setattr(
        generation, "calibrate_imu_record", calibrate_per_sample
    )
    expected = _outcome(seed, offset_s, per_sample=True)
    assert isinstance(expected, str) == ((seed, offset_s) in _RAISING)
    if isinstance(expected, str):
        assert batched == expected
        return
    assert not isinstance(batched, str), batched
    assert np.array_equal(batched[0], expected[0])
    assert np.array_equal(batched[1], expected[1])
