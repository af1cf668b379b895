"""IMU calibration pipeline (paper SIV-B.2).

Turns a raw :class:`repro.imu.device.IMURecord` into the 200x3 linear
acceleration matrix ``A`` the paper feeds to IMU-En:

1. align the three sensors on a uniform 100 Hz grid by interpolation;
2. detect the motion onset from the variance jump that follows the
   mandated pre-gesture pause (this is the paper's clock-synchronization
   trick — both the mobile device and the RFID server key off the same
   physical event);
3. estimate the initial pose with TRIAD from the pause-window
   accelerometer (gravity) and magnetometer (north) means;
4. propagate the pose through the gesture by integrating the gyroscope
   (whose bias is estimated from the pause window, where the device is
   known to be still);
5. rotate each specific-force sample to the world frame and remove
   gravity, yielding world-frame linear accelerations.

The pipeline is pure signal processing — it would run unchanged on real
phone logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.gesture.kinematics import rotations_from_rotvecs, triad
from repro.imu.device import IMURecord
from repro.imu.sensors import GRAVITY_WORLD, MAGNETIC_FIELD_WORLD
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class CalibrationConfig:
    """Tunables of the calibration pipeline.

    The defaults implement the paper's choices: 100 Hz interpolation,
    a 2 s gesture window (hence 200 output samples).
    """

    target_rate_hz: float = 100.0
    window_s: float = 2.0
    onset_window_s: float = 0.12
    onset_threshold: float = 5.0
    baseline_s: float = 0.45
    min_onset_std: float = 0.02  # accel floor (m/s^2) against dead-still data

    def __post_init__(self):
        check_positive("target_rate_hz", self.target_rate_hz)
        check_positive("window_s", self.window_s)
        check_positive("onset_window_s", self.onset_window_s)
        check_positive("onset_threshold", self.onset_threshold)
        check_positive("baseline_s", self.baseline_s)

    @property
    def n_samples(self) -> int:
        """Number of output samples (200 for the paper's defaults)."""
        return int(round(self.target_rate_hz * self.window_s))


def _interpolate_columns(
    t_out: np.ndarray, t_in: np.ndarray, values: np.ndarray
) -> np.ndarray:
    out = np.empty((t_out.size, values.shape[1]))
    for col in range(values.shape[1]):
        out[:, col] = np.interp(t_out, t_in, values[:, col])
    return out


def detect_motion_onset(
    signal: np.ndarray,
    rate_hz: float,
    window_s: float = 0.12,
    baseline_s: float = 0.45,
    threshold: float = 5.0,
    min_std: float = 0.0,
) -> int:
    """Index of the first sample where motion energy exceeds the baseline.

    ``signal`` is a 1-D activity series (we use the norm of the
    mean-removed accelerometer).  A rolling standard deviation is compared
    against the pause-window baseline; the onset is the first window
    whose deviation exceeds ``threshold`` times the baseline (with an
    absolute floor ``min_std`` so a perfectly quiet simulated pause does
    not trigger on numerical dust).
    """
    signal = np.asarray(signal, dtype=np.float64).ravel()
    win = max(2, int(round(window_s * rate_hz)))
    base = max(win, int(round(baseline_s * rate_hz)))
    if signal.size < base + win:
        raise SimulationError(
            f"signal too short for onset detection: {signal.size} samples"
        )
    baseline_std = max(float(np.std(signal[:base])), min_std)
    # Rolling std via cumulative sums (O(n)).
    c1 = np.cumsum(np.insert(signal, 0, 0.0))
    c2 = np.cumsum(np.insert(signal * signal, 0, 0.0))
    means = (c1[win:] - c1[:-win]) / win
    sq = (c2[win:] - c2[:-win]) / win
    stds = np.sqrt(np.maximum(sq - means * means, 0.0))
    above = np.nonzero(stds > threshold * baseline_std)[0]
    # Don't allow onsets inside the baseline region itself.
    above = above[above + win - 1 >= base]
    if above.size == 0:
        raise SimulationError(
            "no motion onset detected (did the user actually wave?)"
        )
    # stds[i] covers samples [i, i+win); motion starts near the window end.
    return int(above[0] + win - 1)


def calibrate_imu_record(
    record: IMURecord,
    config: CalibrationConfig = CalibrationConfig(),
    offset_s: float = 0.0,
) -> np.ndarray:
    """Run the full SIV-B.2 pipeline; returns ``A`` with shape (200, 3).

    ``offset_s`` shifts the analysis window to start that many seconds
    after the detected motion onset — the mechanism behind the paper's
    dataset procedure of cutting 20 (possibly overlapping) 2 s windows
    out of each long gesture (SIV-E.1).
    """
    if offset_s < 0:
        raise SimulationError("offset_s must be non-negative")
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

    # Pause-window statistics: gravity direction, magnetic direction, and
    # gyroscope bias (the device is known to be still before the onset).
    pause = slice(0, max(2, pause_end))
    acc_ref = acc[pause].mean(axis=0)
    mag_ref = mag[pause].mean(axis=0)
    gyro_bias = gyro[pause].mean(axis=0)

    rotation = triad(
        acc_ref, mag_ref, -GRAVITY_WORLD, MAGNETIC_FIELD_WORLD
    )

    # Every gyro increment exp([w dt]x) at once; only the pose chain
    # itself is sequential.  The TRIAD pose is valid at the end of the
    # pause, so propagate it through any window offset before recording
    # accelerations.
    steps = rotations_from_rotvecs(
        (gyro[pause_end:onset + config.n_samples] - gyro_bias) * (1.0 / rate)
    )
    for step in steps[:onset - pause_end]:
        rotation = rotation @ step

    acc_win = acc[onset:onset + config.n_samples]
    linear = np.empty((config.n_samples, 3))
    for i, step in enumerate(steps[onset - pause_end:]):
        # a_world = R @ f_body + g_world  (f is specific force).
        linear[i] = rotation @ acc_win[i] + GRAVITY_WORLD
        rotation = rotation @ step
    return linear
