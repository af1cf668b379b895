"""Hyperparameter determination experiments (paper SVI-C).

Three procedures, each mirroring the paper's methodology:

* :func:`prune_latent_width` — start from ``l_f = 50``, repeatedly remove
  the lowest-variance latent unit (from both encoders and the decoder
  input, keeping the latent spaces aligned), retrain, and stop when the
  joint loss rises more than 5% in one round (SVI-C.1).
* :func:`calibrate_eta` / :func:`sweep_quantization_bins` — for each
  candidate ``N_b``, set the ECC rate ``eta`` just above the
  99th-percentile benign seed mismatch, then score the resulting
  random-guess success (Eq. 4) and gesture-mimicry success (SVI-C.2,
  Fig. 7).
* :func:`determine_tau` — time the preparation of the first OT message
  over dataset records and set the protocol deadline with headroom
  (SVI-C.3: every device finished within 100 ms, tau = 120 ms).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.core.models import WaveKeyModelBundle
from repro.core.pipeline import KeySeedPipeline
from repro.core.training import (
    JointTrainingConfig,
    JointTrainingResult,
    continue_training,
    evaluate_joint_loss,
    prepare_arrays,
    train_wavekey_models,
)
from repro.crypto.group import Group
from repro.crypto.numbers import WAVEKEY_GROUP_512
from repro.datasets.generation import WaveKeyDataset
from repro.errors import ConfigurationError
from repro.nn.layers import Reshape
from repro.nn.pruning import output_variances, prune_feature_unit
from repro.protocol.agreement import AgreementParty, KeyAgreementConfig
from repro.quantize import KeySeedQuantizer
from repro.utils.bits import BitSequence
from repro.utils.rng import child_rng, ensure_rng


def random_guess_success(seed_length: int, eta: float) -> float:
    """Eq. 4: probability a uniform guess lands within the ECC radius."""
    if seed_length < 1:
        raise ConfigurationError("seed_length must be >= 1")
    if not (0.0 <= eta < 1.0):
        raise ConfigurationError(f"eta must be in [0, 1), got {eta}")
    radius = int(math.floor(seed_length * eta))
    total = sum(math.comb(seed_length, i) for i in range(radius + 1))
    return total / (2.0 ** seed_length)


@dataclass
class EtaCalibration:
    """Result of calibrating the ECC rate against benign mismatch."""

    eta: float
    mismatch_rates: np.ndarray
    target_success_rate: float
    seed_length: int

    @property
    def expected_benign_success(self) -> float:
        """Fraction of calibration samples the chosen eta reconciles."""
        return float(np.mean(self.mismatch_rates <= self.eta))

    @property
    def random_guess_success(self) -> float:
        """Eq. 4 evaluated at the calibrated operating point."""
        return random_guess_success(self.seed_length, self.eta)


def calibrate_eta(
    pipeline: KeySeedPipeline,
    a_matrices: np.ndarray,
    r_matrices: np.ndarray,
    target_success_rate: float = 0.99,
    max_eta: float = 0.25,
) -> EtaCalibration:
    """Choose ``eta`` just above the target-percentile benign mismatch.

    The paper designs for a >= 99% key-establishment success rate and
    sets ``eta`` higher than the seed bit-mismatch rate of 99% of the
    dataset samples (SVI-C.2).  ``max_eta`` is a security ceiling: an
    ECC radius approaching 0.5 would reconcile substantially mismatched
    seeds (inflating every attack's success), so the calibration never
    exceeds it even when the benign tail is heavy — heavy-tail samples
    then surface as (rare) key-establishment failures instead.
    """
    if not (0.0 < target_success_rate < 1.0):
        raise ConfigurationError("target_success_rate must be in (0, 1)")
    if not (0.0 < max_eta < 0.5):
        raise ConfigurationError("max_eta must be in (0, 0.5)")
    rates = pipeline.seed_mismatch_rates(a_matrices, r_matrices)
    l_s = pipeline.seed_length
    percentile = float(np.quantile(rates, target_success_rate))
    # Round up to the next representable mismatch count so the chosen
    # rate actually covers the percentile sample; clamp to the security
    # ceiling (still representable).
    count = math.ceil(percentile * l_s)
    count = min(max(count, 1), int(math.floor(max_eta * l_s)))
    eta = count / l_s
    return EtaCalibration(
        eta=eta,
        mismatch_rates=rates,
        target_success_rate=target_success_rate,
        seed_length=l_s,
    )


@dataclass
class BinSweepPoint:
    """One N_b candidate in the Fig. 7 sweep."""

    n_bins: int
    seed_length: int
    eta: float
    guess_success: float
    mimicry_success: float
    benign_success: float


def sweep_quantization_bins(
    bundle: WaveKeyModelBundle,
    a_matrices: np.ndarray,
    r_matrices: np.ndarray,
    mimic_a_matrices: np.ndarray = None,
    victim_r_matrices: np.ndarray = None,
    n_bins_values: Sequence[int] = tuple(range(4, 16)),
    target_success_rate: float = 0.99,
) -> List[BinSweepPoint]:
    """Reproduce the Fig. 7 study across quantization bin counts.

    ``mimic_a_matrices``/``victim_r_matrices`` are matched rows: the
    attacker's IMU matrix while imitating the gesture whose RFID matrix
    the server observed.  A mimicry instance succeeds when the mimic's
    seed falls within the calibrated ECC radius of the victim's seed.
    """
    points: List[BinSweepPoint] = []
    for n_bins in n_bins_values:
        candidate = WaveKeyModelBundle(
            imu_encoder=bundle.imu_encoder,
            rf_encoder=bundle.rf_encoder,
            decoder=bundle.decoder,
            n_bins=int(n_bins),
            eta=bundle.eta,
        )
        pipeline = KeySeedPipeline(candidate)
        calibration = calibrate_eta(
            pipeline, a_matrices, r_matrices, target_success_rate
        )
        mimicry_success = 0.0
        if mimic_a_matrices is not None and len(mimic_a_matrices):
            mimic_rates = pipeline.seed_mismatch_rates(
                mimic_a_matrices, victim_r_matrices
            )
            mimicry_success = float(
                np.mean(mimic_rates <= calibration.eta)
            )
        points.append(
            BinSweepPoint(
                n_bins=int(n_bins),
                seed_length=pipeline.seed_length,
                eta=calibration.eta,
                guess_success=calibration.random_guess_success,
                mimicry_success=mimicry_success,
                benign_success=calibration.expected_benign_success,
            )
        )
    return points


def select_optimal_bins(points: Sequence[BinSweepPoint]) -> BinSweepPoint:
    """Pick the sweep point minimizing the worst attack success rate."""
    if not points:
        raise ConfigurationError("empty bin sweep")
    return min(points, key=lambda p: max(p.guess_success, p.mimicry_success))


# -- l_f pruning (SVI-C.1) -------------------------------------------------


def _prune_decoder_input(decoder, index: int) -> None:
    """Remove latent channel ``index`` from the decoder's input side."""
    reshape = decoder[0]
    deconv = decoder[1]
    if not isinstance(reshape, Reshape):
        raise ConfigurationError("decoder must start with a Reshape layer")
    deconv.weight.data = np.delete(deconv.weight.data, index, axis=0)
    deconv.weight.grad = np.zeros_like(deconv.weight.data)
    deconv.in_channels -= 1
    reshape.target_shape = (deconv.in_channels, 1)


@dataclass
class PruningStep:
    """One pruning round: width after pruning and retrained loss."""

    latent_width: int
    loss: float


@dataclass
class PruningResult:
    """Outcome of the l_f search."""

    bundle: WaveKeyModelBundle
    steps: List[PruningStep] = field(default_factory=list)

    @property
    def selected_width(self) -> int:
        return self.bundle.latent_width


def prune_latent_width(
    dataset: WaveKeyDataset,
    initial_width: int = 50,
    min_width: int = 2,
    loss_increase_tolerance: float = 0.05,
    training_config: JointTrainingConfig = None,
    retrain_epochs: int = 5,
    rng=None,
    verbose: bool = False,
) -> PruningResult:
    """SVI-C.1: derive ``l_f`` by variance-guided pruning.

    Both encoders prune the *same* latent index (the one with the lowest
    combined pre-batch-norm variance) so the element-wise alignment the
    joint loss established survives the surgery; the decoder drops the
    matching input channel.  After each removal the three networks are
    retrained briefly; pruning stops when the retrained loss exceeds the
    previous round's loss by more than ``loss_increase_tolerance``.
    """
    rng = ensure_rng(rng)
    base_config = training_config or JointTrainingConfig(
        latent_width=initial_width
    )
    if base_config.latent_width != initial_width:
        base_config = JointTrainingConfig(
            latent_width=initial_width,
            reconstruction_weight=base_config.reconstruction_weight,
            epochs=base_config.epochs,
            batch_size=base_config.batch_size,
            learning_rate=base_config.learning_rate,
            n_bins=base_config.n_bins,
        )
    result = train_wavekey_models(
        dataset, base_config, rng=child_rng(rng, "initial"), verbose=verbose
    )
    bundle = result.bundle
    x_imu, x_rfid, target = prepare_arrays(dataset)
    previous_loss = evaluate_joint_loss(
        bundle, x_imu, x_rfid, target, base_config.reconstruction_weight
    )
    steps = [PruningStep(bundle.latent_width, previous_loss)]

    retrain_config = JointTrainingConfig(
        latent_width=initial_width,
        reconstruction_weight=base_config.reconstruction_weight,
        epochs=retrain_epochs,
        batch_size=base_config.batch_size,
        learning_rate=base_config.learning_rate,
        n_bins=base_config.n_bins,
    )

    round_id = 0
    while bundle.latent_width > min_width:
        variances = output_variances(
            bundle.imu_encoder, x_imu
        ) + output_variances(bundle.rf_encoder, x_rfid)
        index = int(np.argmin(variances))
        prune_feature_unit(bundle.imu_encoder, index)
        prune_feature_unit(bundle.rf_encoder, index)
        _prune_decoder_input(bundle.decoder, index)

        continue_training(
            bundle.imu_encoder,
            bundle.rf_encoder,
            bundle.decoder,
            dataset,
            retrain_config,
            rng=child_rng(rng, "retrain", round_id),
        )
        loss = evaluate_joint_loss(
            bundle, x_imu, x_rfid, target, base_config.reconstruction_weight
        )
        steps.append(PruningStep(bundle.latent_width, loss))
        if verbose:
            print(
                f"[prune] width={bundle.latent_width} loss={loss:.4f} "
                f"(previous {previous_loss:.4f})"
            )
        if loss > previous_loss * (1.0 + loss_increase_tolerance):
            break
        previous_loss = loss
        round_id += 1
    return PruningResult(bundle=bundle, steps=steps)


# -- tau determination (SVI-C.3) ---------------------------------------------


@dataclass
class TauMeasurement:
    """Timing statistics for preparing the first OT message."""

    prep_times_s: np.ndarray
    tau_s: float

    @property
    def max_prep_s(self) -> float:
        return float(self.prep_times_s.max())


def determine_tau(
    seed_length: int,
    n_trials: int = 50,
    group: Group = WAVEKEY_GROUP_512,
    headroom: float = 1.2,
    rng=None,
) -> TauMeasurement:
    """Time :meth:`AgreementParty.craft_announce`, the ``M_A`` a device
    really sends over ``group``, and set ``tau`` with multiplicative
    headroom, mirroring SVI-C.3 (100 ms observed -> tau = 120 ms).

    The group's fixed-base path is warmed before the first trial (MODP's
    table built, the curve's OpenSSL loaded), as the client SDK and the
    pooled server warm it before any round.
    """
    if seed_length < 2 or n_trials < 1:
        raise ConfigurationError(
            "seed_length must be >= 2 and n_trials >= 1"
        )
    rng = ensure_rng(rng)
    config = KeyAgreementConfig(group=group)
    group.power(1)
    times = np.empty(n_trials)
    for trial in range(n_trials):
        party = AgreementParty(
            "mobile", BitSequence.random(seed_length, rng), config, rng
        )
        start = time.perf_counter()
        party.craft_announce()
        times[trial] = time.perf_counter() - start
    return TauMeasurement(
        prep_times_s=times, tau_s=float(times.max() * headroom)
    )
