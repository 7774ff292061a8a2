import math
import re
import warnings

import numpy as np
import pytest

from coherentrx.constellation import Constellation, _count, bpsk, custom, mean_energy, qam6


class TestBpsk:
    def test_zero_energy_degenerate(self):
        c = bpsk(0.0)
        np.testing.assert_array_equal(c.amplitudes, [0j, 0j])
        np.testing.assert_array_equal(c.priors, [0.5, 0.5])

    def test_amplitudes_are_sqrt_energy(self):
        c = bpsk(1.2)
        np.testing.assert_allclose(c.amplitudes.real, [1.0954451150103321, -1.0954451150103321], rtol=0, atol=1e-15)
        assert abs(abs(c.amplitudes[0]) ** 2 - 1.2) < 1e-12

    def test_0p75(self):
        c = bpsk(0.75)
        np.testing.assert_allclose(np.abs(c.amplitudes), 0.8660254037844386, atol=1e-15)

    def test_antipodal_exact(self):
        c = bpsk(0.37)
        assert c.amplitudes[0] == -c.amplitudes[1]

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            bpsk(-0.1)


class TestQam6:
    def test_zero_energy(self):
        c = qam6(0.0)
        np.testing.assert_array_equal(c.amplitudes, np.zeros(6, dtype=complex))

    def test_grid_scale_at_7p8(self):
        # average of |beta|^2 over the 2x3 grid is 11 d^2 / 12
        c = qam6(7.8)
        d = math.sqrt(12 * 7.8 / 11)
        assert abs(d - 2.9170346088263863) < 1e-12
        assert abs(mean_energy(c) - 7.8) < 1e-12
        xs = sorted(set(round(a.real, 12) for a in c.amplitudes))
        ys = sorted(set(round(a.imag, 12) for a in c.amplitudes))
        np.testing.assert_allclose(xs, [-d, 0.0, d], atol=1e-12)
        np.testing.assert_allclose(ys, [-d / 2, d / 2], atol=1e-12)

    def test_unit_grid_inversion(self):
        c = qam6(11.0 / 12.0)
        d = max(abs(a.real) for a in c.amplitudes)
        assert abs(d - 1.0) < 1e-12

    def test_quadrant_symmetry(self):
        # the point set maps to itself under negation of either quadrature
        c = qam6(2.5)
        pts = set((round(a.real, 12), round(a.imag, 12)) for a in c.amplitudes)
        assert pts == set((-x, y) for x, y in pts)
        assert pts == set((x, -y) for x, y in pts)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            qam6(-1.0)


class TestMeanEnergy:
    def test_bpsk_round_trip(self):
        assert abs(mean_energy(bpsk(1.2)) - 1.2) < 1e-12

    def test_qam_round_trip(self):
        assert abs(mean_energy(qam6(7.8)) - 7.8) < 1e-12

    def test_custom_two_point(self):
        c = custom(np.array([0.0, 2.0]), np.array([0.5, 0.5]))
        assert abs(mean_energy(c) - 2.0) < 1e-12

    @pytest.mark.parametrize("builder", [bpsk, qam6])
    def test_energy_round_trip_log_grid(self, builder):
        for x in np.geomspace(1e-3, 20, 25):
            assert abs(mean_energy(builder(x)) - x) < 1e-12


class TestSlices:
    def test_slices_are_every_spelling_of_the_round_slice_to_the_bit(self):
        # the spellings the modules once wrote out: a Python or a numpy root,
        # and a column of the slices
        rng = np.random.default_rng(30)
        for _ in range(200):
            rounds = int(rng.integers(1, 17))
            c = custom(rng.normal(size=6) * 10.0 ** rng.uniform(-3, 3, size=6)
                       + 1j * rng.normal(size=6) * 10.0 ** rng.uniform(-3, 3, size=6))
            slices = c.slices(rounds)
            assert slices.tobytes() == (c.amplitudes / math.sqrt(rounds)).tobytes()
            assert slices.tobytes() == (c.amplitudes / np.sqrt(rounds)).tobytes()
            assert slices[:, None].tobytes() == (c.amplitudes[:, None] / np.sqrt(rounds)).tobytes()


class TestCount:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_python_and_numpy_integers_are_counts(self, value):
        count = _count(value, "n")
        assert count == 3 and type(count) is int

    @pytest.mark.parametrize(
        "value, least, message",
        [
            (2.0, 1, "n must be an integer, got 2.0"),
            (True, 1, "n must be an integer, got True"),
            ("3", 1, "n must be an integer, got '3'"),
            (None, 1, "n must be an integer, got None"),
            (0, 1, "n must be at least 1, got 0"),
            (1, 2, "n must be at least 2, got 1"),
        ],
    )
    def test_refusals_are_value_errors_in_one_of_two_words(self, value, least, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _count(value, "n", least=least)


class TestValidation:
    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Constellation(np.array([1.0, -1.0]), np.array([0.6, 0.6]))

    def test_priors_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Constellation(np.array([1.0, -1.0]), np.array([1.5, -0.5]))

    @pytest.mark.parametrize("prior", [np.nan, 1.0 + 1e-9, 1e308])
    def test_priors_must_lie_in_the_unit_interval(self, prior):
        with pytest.raises(ValueError, match=r"priors must lie in \[0, 1\]"):
            Constellation(np.array([1.0, -1.0, 0.5]), np.array([prior, prior, 0.5]))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: bpsk(1e301),
            lambda: qam6(1e300),
            lambda: custom(np.array([1e151, 0.0])),
            lambda: custom(np.array([0.0, 8e149 + 8e149j])),
            lambda: custom(np.array([np.nan, 0.0])),
            lambda: Constellation.from_records([{"label": 0, "re": 1e200, "im": 0.0, "prior": 0.5},
                                                {"label": 1, "re": 0.0, "im": 0.0, "prior": 0.5}]),
        ],
        ids=["bpsk", "qam6", "custom", "custom_complex", "custom_nan", "from_records"],
    )
    def test_amplitudes_beyond_1e150_are_refused(self, build):
        # 1e150 is 1e300 photons, the largest detected mean a receiver spec may hold
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^codeword amplitudes must be finite and at most 1e\+150 "):
                build()

    def test_bpsk_at_1e300_photons_is_taken(self):
        assert np.abs(bpsk(1e300).amplitudes).max() == 1e150

    def test_needs_two_codewords(self):
        with pytest.raises(ValueError):
            Constellation(np.array([1.0]), np.array([1.0]))

    def test_default_uniform_priors(self):
        c = custom(np.array([1j, -1j, 0.5]))
        np.testing.assert_allclose(c.priors, 1 / 3)

    def test_records_round_trip(self):
        c = qam6(3.3)
        back = Constellation.from_records(c.to_records(), name=c.name)
        np.testing.assert_array_equal(back.amplitudes, c.amplitudes)
        np.testing.assert_array_equal(back.priors, c.priors)

    def test_records_reject_gapped_labels(self):
        recs = bpsk(1.0).to_records()
        recs[1]["label"] = 5
        with pytest.raises(ValueError):
            Constellation.from_records(recs)
