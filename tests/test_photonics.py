import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherentrx.photonics import NoiseModel, detected_mean, outcome_probs, sample_draws

finite = st.floats(-3.0, 3.0, allow_nan=False)


def scalar_mean(b, u, nm, phase=0.0, scale=1.0):
    return float(detected_mean(b, (scale * np.exp(1j * phase)) * np.complex128(u), nm))


class TestDetectedMean:
    def test_perfect_nulling(self):
        assert scalar_mean(1.0, 1.0, NoiseModel()) == 0.0

    def test_visibility_residual(self):
        n = scalar_mean(1.0, 1.0, NoiseModel(visibility=0.9975))
        assert abs(n - 0.005) < 1e-12

    def test_efficiency_and_dark(self):
        n = scalar_mean(1.0, 0.0, NoiseModel(efficiency=0.85, dark_counts=0.001))
        assert abs(n - 0.851) < 1e-12

    def test_unit_visibility_is_distance(self):
        nm = NoiseModel(efficiency=0.7, dark_counts=0.02)
        b, u = 0.8 + 0.3j, -0.1 + 0.5j
        assert abs(scalar_mean(b, u, nm) - (0.7 * abs(b - u) ** 2 + 0.02)) < 1e-12

    def test_draw_applies_phase_and_scale(self):
        b, u = 1.2, 0.9 + 0.1j
        expected = abs(b - 1.1 * np.exp(1j * 0.3) * u) ** 2
        assert abs(scalar_mean(b, u, NoiseModel(), 0.3, 1.1) - expected) < 1e-12

    @given(br=finite, bi=finite, ur=finite, ui=finite, vis=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_for_any_visibility(self, br, bi, ur, ui, vis):
        n = scalar_mean(complex(br, bi), complex(ur, ui), NoiseModel(visibility=vis))
        assert n >= 0.0

    @given(br=finite, bi=finite, ur=finite, ui=finite, phi=st.floats(-math.pi, math.pi))
    @settings(max_examples=200, deadline=None)
    def test_common_rotation_invariance(self, br, bi, ur, ui, phi):
        nm = NoiseModel(visibility=0.93, efficiency=0.8, dark_counts=0.01)
        b, u = complex(br, bi), complex(ur, ui)
        rot = np.exp(1j * phi)
        n0 = scalar_mean(b, u, nm)
        n1 = scalar_mean(b * rot, u * rot, nm)
        assert abs(n0 - n1) < 1e-10

    def test_broadcasting(self):
        nm = NoiseModel()
        out = detected_mean(np.array([[1.0], [2.0]]), np.array([[0.5, 1.0, 1.5]]), nm)
        assert out.shape == (2, 3)
        assert abs(out[0, 1]) < 1e-15


class TestOutcomeProbs:
    def test_dark_port(self):
        np.testing.assert_array_equal(outcome_probs(0.0, 2), [1.0, 0.0])

    def test_half_click(self):
        np.testing.assert_allclose(outcome_probs(math.log(2), 2), [0.5, 0.5], atol=1e-15)

    def test_ternary_poisson(self):
        p = outcome_probs(1.0, 3)
        e = math.exp(-1)
        np.testing.assert_allclose(p, [e, e, 1 - 2 * e], atol=1e-15)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            outcome_probs(-0.1, 2)

    def test_arity_below_two_rejected(self):
        with pytest.raises(ValueError):
            outcome_probs(0.3, 1)

    @given(n=st.floats(0.0, 40.0), arity=st.integers(2, 6))
    @settings(max_examples=300, deadline=None)
    def test_normalized_probability_vector(self, n, arity):
        p = outcome_probs(n, arity)
        assert p.shape == (arity,)
        assert np.all(p >= 0) and np.all(p <= 1)
        assert abs(p.sum() - 1.0) < 1e-12

    @given(n=st.floats(0.0, 20.0), arity=st.integers(3, 6))
    @settings(max_examples=200, deadline=None)
    def test_binning_consistency_across_arity(self, n, arity):
        # merging the top two bins of arity M reproduces arity M-1
        full = outcome_probs(n, arity)
        merged = np.concatenate([full[:-2], [full[-2] + full[-1]]])
        np.testing.assert_allclose(merged, outcome_probs(n, arity - 1), atol=1e-12)

    def test_ideal_nulling_is_point_mass(self):
        n = scalar_mean(0.7 + 0.2j, 0.7 + 0.2j, NoiseModel())
        np.testing.assert_array_equal(outcome_probs(n, 3), [1.0, 0.0, 0.0])


class TestSampling:
    def test_no_jitter_is_ideal_draw(self):
        phase, scale = sample_draws(NoiseModel(), 1, 0)
        assert phase.tolist() == [0.0] and scale.tolist() == [1.0]

    @pytest.mark.parametrize("batch", [7, 64, 2**62])
    def test_no_jitter_batch_is_one_ideal_draw(self, batch):
        # every draw would be ideal: the batch collapses for any size
        nm = NoiseModel(visibility=0.99, efficiency=0.8, dark_counts=1e-3)
        phase, scale = sample_draws(nm, batch, 5)
        assert phase.tolist() == [0.0] and scale.tolist() == [1.0]

    @pytest.mark.parametrize("nm", [NoiseModel(), NoiseModel(phase_jitter=0.02)], ids=["ideal", "jitter"])
    def test_batch_size_must_be_an_integer(self, nm):
        # the jitter-free batch once took 2.5 and gave the ideal draw
        with pytest.raises(ValueError, match=r"^batch_size must be an integer, got 2\.5$"):
            sample_draws(nm, 2.5, 0)

    def test_phase_jitter_mean(self):
        nm = NoiseModel(phase_jitter=0.1)
        phases, _ = sample_draws(nm, 100_000, 123)
        assert abs(phases.mean()) < 3 * 0.1 / math.sqrt(100_000)
        assert abs(phases.std() - 0.1) < 0.003

    def test_fixed_seed_reproduces_sequence(self):
        nm = NoiseModel(phase_jitter=0.05, amplitude_jitter=0.02)
        a = sample_draws(nm, 50, 42)
        b = sample_draws(nm, 50, 42)
        assert np.array(a).tobytes() == np.array(b).tobytes()

    def test_amplitude_scale_positive(self):
        nm = NoiseModel(amplitude_jitter=0.9)
        _, scale = sample_draws(nm, 2000, 7)
        assert (scale > 0).all()

    def test_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(visibility=1.2)
        with pytest.raises(ValueError):
            NoiseModel(efficiency=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(dark_counts=-1e-9)

    def test_round_trip_dict(self):
        nm = NoiseModel(0.99, 0.8, 1e-3, 0.02, 0.005)
        assert NoiseModel.from_dict(nm.to_dict()) == nm

    @pytest.mark.parametrize(
        "field", ["visibility", "efficiency", "dark_counts", "phase_jitter", "amplitude_jitter"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(**{field: value})

    def test_unknown_dict_key_rejected(self):
        with pytest.raises(ValueError, match="unknown noise model keys"):
            NoiseModel.from_dict({"visibility": 1.0, "gain": 2.0})


def no_draws(*args, **kwargs):
    raise AssertionError("a draw was made before the draw arrays were allocated")


def reference_draws(nm, batch_size, seed):
    """One standard-normal call of every draw's values, de-interleaved into
    phases and scales; then each non-positive scale, in draw order, drawn
    again after the batch, and those still non-positive again."""
    rng = np.random.default_rng(seed)
    per_draw = int(nm.phase_jitter > 0) + int(nm.amplitude_jitter > 0)
    z = rng.standard_normal(batch_size * per_draw).tolist()
    phase, scale = [0.0] * batch_size, [1.0] * batch_size
    if nm.phase_jitter > 0:
        phase = [0.0 + nm.phase_jitter * v for v in z[0::per_draw]]
    if nm.amplitude_jitter > 0:
        scale = [1.0 + nm.amplitude_jitter * v for v in z[per_draw - 1 :: per_draw]]
    pending = [b for b in range(batch_size) if scale[b] <= 0.0]
    while pending:
        for b in pending:
            scale[b] = float(rng.normal(1.0, nm.amplitude_jitter))
        pending = [b for b in pending if scale[b] <= 0.0]
    return np.array(phase), np.array(scale)


class TestJitterArrays:
    MODELS = {
        "phase_only": NoiseModel(phase_jitter=0.02),
        "amplitude_only": NoiseModel(amplitude_jitter=0.005),
        "both": NoiseModel(visibility=0.99, phase_jitter=0.05, amplitude_jitter=0.3),
        # about 18% of these scales come out non-positive and are redrawn
        "amplitude_above_one": NoiseModel(phase_jitter=0.1, amplitude_jitter=1.1),
    }

    @pytest.mark.parametrize("batch", [1, 16, 200])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_arrays_equal_the_batch_then_redraw_rule_bit_for_bit(self, model, batch):
        nm = self.MODELS[model]
        redraws = 0
        for seed in range(50):
            want_phase, want_scale = reference_draws(nm, batch, seed)
            phase, scale = sample_draws(nm, batch, seed)
            assert phase.tobytes() == want_phase.tobytes()
            assert scale.tobytes() == want_scale.tobytes()
            # the single standard-normal call drew a non-positive scale
            z = np.random.default_rng(seed).standard_normal(2 * batch)
            redraws += bool((1.0 + nm.amplitude_jitter * z[1::2] <= 0).any())
        if model == "amplitude_above_one" and batch > 1:
            assert redraws > 0
        if model in ("phase_only", "amplitude_only"):
            assert redraws == 0

    def test_seed_sequences_and_generators_are_drawn_where_they_stand(self):
        nm = self.MODELS["amplitude_above_one"]
        for seed in range(5):
            seq = np.random.SeedSequence(seed).spawn(3)[2]
            want = np.array(reference_draws(nm, 40, seq))
            assert np.array(sample_draws(nm, 40, seq)).tobytes() == want.tobytes()
            # a generator as the seed is drawn from where it stands
            gen = np.random.default_rng(seed)
            gen.standard_normal(3)
            ref = np.random.default_rng(seed)
            ref.standard_normal(3)
            want = np.array(reference_draws(nm, 40, ref))
            assert np.array(sample_draws(nm, 40, gen)).tobytes() == want.tobytes()

    def test_no_jitter_is_one_ideal_draw(self):
        phase, scale = sample_draws(NoiseModel(dark_counts=1e-3), 16, 3)
        assert phase.tolist() == [0.0] and scale.tolist() == [1.0]

    @pytest.mark.parametrize("batch", [2**62, 2**63 - 1])
    @pytest.mark.parametrize("model, per_draw", [("phase_only", 24), ("amplitude_only", 24), ("both", 32)])
    def test_batch_beyond_memory_is_refused_before_any_draw(self, monkeypatch, batch, model, per_draw):
        # a phase and a scale a draw, and one standard normal per jitter
        # source (8 bytes each); the generator is never made
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match=f"cannot hold {batch} draws: it keeps {per_draw} bytes a draw"):
            sample_draws(self.MODELS[model], batch, 0)

    def test_failed_allocation_is_refused_before_any_draw(self, monkeypatch):
        # a batch numpy does not refuse by arithmetic: its allocation fails
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "empty", no_memory)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match=f"cannot hold {10**12} draws: it keeps 32 bytes a draw"):
            sample_draws(self.MODELS["both"], 10**12, 0)

    @pytest.mark.parametrize("field", ["phase_jitter", "amplitude_jitter"])
    def test_jitter_sigma_is_bounded(self, field):
        assert getattr(NoiseModel(**{field: 100.0}), field) == 100.0
        for value in (100.5, 1e10, 1e308):
            with pytest.raises(ValueError, match="jitter sigmas must be at most 100"):
                NoiseModel(**{field: value})
