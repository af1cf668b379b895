"""Hand-gesture simulation.

WaveKey's entropy source is a brief random hand-waving gesture performed
while the user holds the mobile device and the RFID tag in the same hand
(paper SIV-A/B).  Real volunteers are not available in this environment,
so this package provides a physically grounded generative model of such
gestures:

* :class:`GestureTrajectory` — a continuous-time rigid-body motion
  (3-D position + device orientation) built from band-limited random
  sinusoid mixtures, with the paper's mandated initial pause used for
  clock synchronization between the mobile device and the RFID reader.
* :class:`VolunteerProfile` — per-volunteer style statistics (preferred
  frequency band, amplitude, axis bias, tremor) so multi-volunteer
  experiments (mimicry, randomness per key-chain) are meaningful.
* :func:`mimic_trajectory` — a human-motor-control model of one person
  imitating another's gesture, used by the gesture-mimicking attack
  (paper SVI-E.1).
"""

from repro.gesture.kinematics import (
    integrate_angular_velocity,
    rotation_from_rotvec,
    rotations_from_rotvecs,
    rotvec_from_rotation,
    skew,
    triad,
)
from repro.gesture.trajectory import GestureTrajectory, SinusoidComponent
from repro.gesture.volunteers import (
    VolunteerProfile,
    default_volunteers,
    sample_gesture,
)
from repro.gesture.mimicry import MimicryModel, mimic_trajectory

__all__ = [
    "GestureTrajectory",
    "SinusoidComponent",
    "VolunteerProfile",
    "default_volunteers",
    "sample_gesture",
    "MimicryModel",
    "mimic_trajectory",
    "skew",
    "rotation_from_rotvec",
    "rotations_from_rotvecs",
    "rotvec_from_rotation",
    "integrate_angular_velocity",
    "triad",
]
