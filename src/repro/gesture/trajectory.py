"""Continuous-time gesture trajectories.

A gesture is modelled as a band-limited random process: a sum of
sinusoid components per axis whose frequencies live in the human arm-motion
band (~0.4-5 Hz), gated by a smooth envelope that is zero during the
initial *pause* the paper requires for clock synchronization (SIV-B.1)
and ramps up when the wave begins.  A small physiological tremor rides on
top throughout so the pre-gesture data is quiet but not degenerate.

Device orientation is a second band-limited rotation-vector process.
Body-frame angular velocity is derived from the orientation by exact
finite differencing of the rotation (``[w]x = R^T dR/dt``), so gyroscope
samples are kinematically consistent with the poses the calibration
pipeline reconstructs.

Everything is evaluated lazily at arbitrary time arrays: the IMU samples
at ~100 Hz, the RFID reader at 200 Hz, a camera attack at its own frame
rate — all from one trajectory object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.gesture.kinematics import rotations_from_rotvecs
from repro.utils.validation import check_positive

_FD_STEP = 1e-4  # central-difference step for velocity/acceleration


@dataclass(frozen=True)
class SinusoidComponent:
    """One sinusoid of a trajectory axis: ``amp * sin(2 pi f t + phase)``."""

    amplitude: float
    frequency_hz: float
    phase: float


def _smoothstep(x: np.ndarray) -> np.ndarray:
    """C1 smooth ramp 0->1 on [0, 1] (quintic smootherstep)."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (x * (6.0 * x - 15.0) + 10.0)


class GestureTrajectory:
    """A random hand gesture: rigid-body motion of the held device+tag.

    Parameters
    ----------
    position_components:
        Array of shape ``(K, 3)`` of :class:`SinusoidComponent` parameters
        packed as ``(amplitude_m, frequency_hz, phase_rad)`` per axis —
        see :func:`from_components` for the structured constructor.
    rotation_components:
        Same layout for the rotation-vector process (amplitudes in rad).
    pause_s:
        Length of the initial stationary pause (paper: a short pause so
        both ends detect motion onset from a variance jump).
    active_s:
        Length of the active gesture after the pause.
    ramp_s:
        Envelope rise time from rest to full amplitude.
    tremor_amplitude_m / tremor_frequency_hz:
        Physiological tremor parameters (always on).
    """

    def __init__(
        self,
        position_amplitudes: np.ndarray,
        position_frequencies: np.ndarray,
        position_phases: np.ndarray,
        rotation_amplitudes: np.ndarray,
        rotation_frequencies: np.ndarray,
        rotation_phases: np.ndarray,
        pause_s: float = 0.8,
        active_s: float = 2.5,
        ramp_s: float = 0.25,
        tremor_amplitude_m: float = 2e-4,
        tremor_frequency_hz: float = 9.0,
        tremor_phases: Tuple[float, float, float] = (0.0, 2.1, 4.2),
    ):
        self.pos_amp = np.atleast_2d(np.asarray(position_amplitudes, float))
        self.pos_freq = np.asarray(position_frequencies, float).ravel()
        self.pos_phase = np.atleast_2d(np.asarray(position_phases, float))
        self.rot_amp = np.atleast_2d(np.asarray(rotation_amplitudes, float))
        self.rot_freq = np.asarray(rotation_frequencies, float).ravel()
        self.rot_phase = np.atleast_2d(np.asarray(rotation_phases, float))
        for name, amp, freq, phase in (
            ("position", self.pos_amp, self.pos_freq, self.pos_phase),
            ("rotation", self.rot_amp, self.rot_freq, self.rot_phase),
        ):
            if amp.shape != phase.shape or amp.shape[0] != freq.size:
                raise ConfigurationError(
                    f"{name} component arrays are inconsistent: "
                    f"amp {amp.shape}, freq {freq.shape}, phase {phase.shape}"
                )
            if amp.shape[1] != 3:
                raise ConfigurationError(
                    f"{name} amplitudes must have 3 columns, got {amp.shape}"
                )
        self.pause_s = check_positive("pause_s", pause_s, allow_zero=True)
        self.active_s = check_positive("active_s", active_s)
        self.ramp_s = check_positive("ramp_s", ramp_s)
        self.tremor_amplitude_m = check_positive(
            "tremor_amplitude_m", tremor_amplitude_m, allow_zero=True
        )
        self.tremor_frequency_hz = check_positive(
            "tremor_frequency_hz", tremor_frequency_hz
        )
        self.tremor_phases = np.asarray(tremor_phases, float)

    # -- time bounds ---------------------------------------------------------

    @property
    def total_s(self) -> float:
        """Total timeline length: pause + active gesture."""
        return self.pause_s + self.active_s

    @property
    def motion_onset_s(self) -> float:
        """Ground-truth time at which the active gesture begins."""
        return self.pause_s

    # -- kinematics ----------------------------------------------------------

    def _envelope(self, t: np.ndarray) -> np.ndarray:
        return _smoothstep((t - self.pause_s) / self.ramp_s)

    def position(self, t) -> np.ndarray:
        """Hand displacement (m) relative to the rest point; shape (..., 3)."""
        t = np.asarray(t, dtype=np.float64)
        tt = t[..., None]  # (..., 1) against (K,) component axes
        arg = (
            2.0 * np.pi * self.pos_freq * (tt - self.pause_s)
            + 0.0
        )
        # waves: (..., K, 3)
        waves = self.pos_amp * np.sin(arg[..., None] + self.pos_phase)
        gesture = waves.sum(axis=-2)
        gesture *= self._envelope(t)[..., None]
        tremor = self.tremor_amplitude_m * np.sin(
            2.0 * np.pi * self.tremor_frequency_hz * tt + self.tremor_phases
        )
        return gesture + tremor

    def velocity(self, t) -> np.ndarray:
        """Hand velocity (m/s) by central differencing; shape (..., 3)."""
        t = np.asarray(t, dtype=np.float64)
        h = _FD_STEP
        return (self.position(t + h) - self.position(t - h)) / (2.0 * h)

    def acceleration(self, t) -> np.ndarray:
        """Hand linear acceleration (m/s^2); shape (..., 3)."""
        t = np.asarray(t, dtype=np.float64)
        h = _FD_STEP
        return (
            self.position(t + h)
            - 2.0 * self.position(t)
            + self.position(t - h)
        ) / (h * h)

    def rotation_vector(self, t) -> np.ndarray:
        """Device rotation vector (rad) relative to the rest pose."""
        t = np.asarray(t, dtype=np.float64)
        tt = t[..., None]
        arg = 2.0 * np.pi * self.rot_freq * (tt - self.pause_s)
        waves = self.rot_amp * np.sin(arg[..., None] + self.rot_phase)
        rotvec = waves.sum(axis=-2)
        rotvec *= self._envelope(t)[..., None]
        return rotvec

    def orientation(self, t: float) -> np.ndarray:
        """Body->world rotation matrix at scalar time ``t``."""
        return self.orientations(float(t))[0]

    def orientations(self, t) -> np.ndarray:
        """Stack of body->world rotations for a time array; shape (N, 3, 3)."""
        t = np.asarray(t, dtype=np.float64).ravel()
        return rotations_from_rotvecs(self.rotation_vector(t))

    def angular_velocity_body(self, t) -> np.ndarray:
        """Body-frame angular velocity (rad/s), from ``[w]x = R^T dR/dt``."""
        t = np.asarray(t, dtype=np.float64)
        scalar = t.ndim == 0
        t = t.ravel()
        h = _FD_STEP
        r = self.orientations(t)
        dr = (self.orientations(t + h) - self.orientations(t - h)) / (2.0 * h)
        w_skew = np.matmul(np.swapaxes(r, -1, -2), dr)
        out = np.stack(
            [w_skew[:, 2, 1], w_skew[:, 0, 2], w_skew[:, 1, 0]], axis=-1
        )
        return out[0] if scalar else out

    # -- introspection ---------------------------------------------------------

    def position_components(self):
        """Structured view of the position sinusoids (per axis)."""
        comps = []
        for k in range(self.pos_freq.size):
            comps.append(
                tuple(
                    SinusoidComponent(
                        amplitude=float(self.pos_amp[k, axis]),
                        frequency_hz=float(self.pos_freq[k]),
                        phase=float(self.pos_phase[k, axis]),
                    )
                    for axis in range(3)
                )
            )
        return comps

    def __repr__(self) -> str:
        return (
            f"GestureTrajectory(K={self.pos_freq.size}, "
            f"pause={self.pause_s:.2f}s, active={self.active_s:.2f}s)"
        )
