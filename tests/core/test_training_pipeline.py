"""Tests for joint training and the key-seed pipeline."""

import numpy as np
import pytest

from repro.core import KeySeedPipeline
from repro.core.training import (
    JointTrainingConfig,
    continue_training,
    evaluate_joint_loss,
    prepare_arrays,
    train_wavekey_models,
)
from repro.errors import TrainingError


class TestJointTraining:
    def test_loss_decreases(self, mini_dataset):
        config = JointTrainingConfig(
            latent_width=6, epochs=10, batch_size=32, learning_rate=2e-3
        )
        result = train_wavekey_models(mini_dataset, config, rng=1)
        assert result.loss_history[-1] < result.loss_history[0]
        assert len(result.loss_history) == 10

    def test_alignment_term_decreases(self, mini_dataset):
        config = JointTrainingConfig(
            latent_width=6, epochs=10, batch_size=32, learning_rate=2e-3
        )
        result = train_wavekey_models(mini_dataset, config, rng=2)
        assert result.alignment_history[-1] < result.alignment_history[0]

    def test_continue_training_resumes(self, mini_dataset):
        config = JointTrainingConfig(latent_width=6, epochs=4, batch_size=32)
        result = train_wavekey_models(mini_dataset, config, rng=3)
        bundle = result.bundle
        more = continue_training(
            bundle.imu_encoder, bundle.rf_encoder, bundle.decoder,
            mini_dataset, config, rng=4,
        )
        assert len(more.loss_history) == 4

    def test_config_validation(self):
        with pytest.raises(TrainingError):
            JointTrainingConfig(latent_width=0)
        with pytest.raises(TrainingError):
            JointTrainingConfig(epochs=0)
        with pytest.raises(TrainingError):
            JointTrainingConfig(reconstruction_weight=-1.0)

    def test_prepare_arrays_shapes(self, mini_dataset):
        x_imu, x_rfid, target = prepare_arrays(mini_dataset)
        n = len(mini_dataset)
        assert x_imu.shape == (n, 3, 200)
        assert x_rfid.shape == (n, 2, 400)
        assert target.shape == (n, 400)

    def test_evaluate_joint_loss_finite(self, mini_bundle, mini_dataset):
        x_imu, x_rfid, target = prepare_arrays(mini_dataset)
        loss = evaluate_joint_loss(mini_bundle, x_imu, x_rfid, target)
        assert np.isfinite(loss) and loss > 0


class TestKeySeedPipeline:
    def test_seed_lengths(self, mini_bundle):
        pipeline = KeySeedPipeline(mini_bundle)
        assert pipeline.seed_length == mini_bundle.seed_length

    def test_seeds_from_matrices(self, mini_bundle, mini_dataset):
        pipeline = KeySeedPipeline(mini_bundle)
        sample = mini_dataset[0]
        s_m = pipeline.imu_keyseed(sample.a_matrix)
        s_r = pipeline.rfid_keyseed(sample.r_matrix)
        assert len(s_m) == len(s_r) == pipeline.seed_length

    def test_features_standardized(self, mini_bundle, mini_dataset):
        pipeline = KeySeedPipeline(mini_bundle)
        f = np.stack([
            pipeline.imu_features(s.a_matrix) for s in mini_dataset
        ])
        # Batch-norm keeps latent elements near N(0, 1) over the
        # training distribution.
        assert np.abs(f.mean(axis=0)).max() < 0.7
        assert f.std(axis=0).max() < 2.0

    def test_batch_matches_single(self, mini_bundle, mini_dataset):
        pipeline = KeySeedPipeline(mini_bundle)
        a = mini_dataset.a_matrices()[:3]
        r = mini_dataset.r_matrices()[:3]
        pairs = pipeline.batch_seed_pairs(a, r)
        for i, (s_m, s_r) in enumerate(pairs):
            assert s_m == pipeline.imu_keyseed(a[i])
            assert s_r == pipeline.rfid_keyseed(r[i])

    def test_mismatch_rates_in_unit_interval(self, mini_bundle,
                                             mini_dataset):
        pipeline = KeySeedPipeline(mini_bundle)
        rates = pipeline.seed_mismatch_rates(
            mini_dataset.a_matrices(), mini_dataset.r_matrices()
        )
        assert rates.shape == (len(mini_dataset),)
        assert np.all((0 <= rates) & (rates <= 1))

    def test_benign_beats_cross_pair(self, mini_bundle, mini_dataset):
        """Even a briefly trained model aligns true pairs better than
        shuffled pairs — the cross-modal signal is real."""
        pipeline = KeySeedPipeline(mini_bundle)
        a = mini_dataset.a_matrices()
        r = mini_dataset.r_matrices()
        benign = pipeline.seed_mismatch_rates(a, r).mean()
        perm = np.random.default_rng(0).permutation(len(a))
        crossed = pipeline.seed_mismatch_rates(a, r[perm]).mean()
        assert benign < crossed


@pytest.fixture(scope="module")
def pipeline(default_bundle):
    return KeySeedPipeline(default_bundle)


def _windows(n, rng):
    """Synthetic but shape/range-valid sensor windows."""
    pairs = []
    for _ in range(n):
        a_matrix = rng.normal(size=(200, 3))
        r_matrix = np.stack(
            [
                rng.uniform(-np.pi, np.pi, 400),
                np.abs(rng.normal(size=400)) + 0.5,
            ],
            axis=1,
        )
        pairs.append((a_matrix, r_matrix))
    return pairs


def test_batched_results_match_per_request(pipeline):
    """Batched inference is the same computation, not an approximation."""
    rng = np.random.default_rng(31_002)
    pairs = _windows(8, rng)
    for single, batched in zip(
        [pipeline.imu_keyseed(a) for a, _ in pairs],
        pipeline.imu_keyseeds([a for a, _ in pairs]),
    ):
        # Identical up to float reduction order; quantization makes any
        # residual difference visible as seed bit flips.
        assert single.mismatch_rate(batched) <= 0.05
    for single, batched in zip(
        [pipeline.rfid_keyseed(r) for _, r in pairs],
        pipeline.rfid_keyseeds([r for _, r in pairs]),
    ):
        assert single.mismatch_rate(batched) <= 0.05
