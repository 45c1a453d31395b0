import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlczsim.errors import ConfigError, ParameterError
from dlczsim.fitters import Samples, fit_exponential, fit_linear_origin, fit_sinusoid
from dlczsim.streams import substream


class TestSamples:
    def test_requires_equal_lengths_and_positive_weights(self):
        with pytest.raises(ParameterError):
            Samples(np.arange(3.0), np.arange(4.0), np.ones(3))
        with pytest.raises(ParameterError):
            Samples(np.arange(3.0), np.arange(3.0), np.array([1.0, 0.0, 1.0]))

    def test_default_weights_are_poisson_inverse_variance(self):
        s = Samples.from_xy([0.0, 1.0], [4.0, 0.5])
        assert s.weight[0] == pytest.approx(0.25)
        assert s.weight[1] == pytest.approx(1.0)  # clamped at y = 1

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y,weight\n0.0,1.0,2.0\n1.0,0.5,4.0\n")
        s = Samples.from_csv(path)
        assert s.x.tolist() == [0.0, 1.0]
        assert s.weight.tolist() == [2.0, 4.0]

    def test_csv_rejects_bad_header_and_values(self, tmp_path):
        bad_header = tmp_path / "h.csv"
        bad_header.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            Samples.from_csv(bad_header)
        bad_value = tmp_path / "v.csv"
        bad_value.write_text("x,y\n1,two\n")
        with pytest.raises(ConfigError):
            Samples.from_csv(bad_value)
        ragged = tmp_path / "r.csv"
        ragged.write_text("x,y\n1,2\n3\n")
        with pytest.raises(ConfigError):
            Samples.from_csv(ragged)
        extra_column = tmp_path / "four.csv"
        extra_column.write_text("x,y,weight,junk\n1,2,1,9\n2,3,1,9\n")
        with pytest.raises(ConfigError, match="expected header"):
            Samples.from_csv(extra_column)
        long_row = tmp_path / "ragged.csv"
        long_row.write_text("x,y\n1,2,3\n")
        with pytest.raises(ConfigError) as exc:
            Samples.from_csv(long_row)
        assert str(exc.value) == f"{long_row}:2: expected 2 fields, got 3"
        commented = tmp_path / "c.csv"
        commented.write_text("# run 7\nx,y\n# gain 2\n1,2\n\n2,abc\n")
        with pytest.raises(ConfigError, match=r"c\.csv:6: malformed CSV value"):
            Samples.from_csv(commented)
        for name, body in (("latin.csv", b"x,y\n1,\xff\n"),
                           ("big.csv", b"x,y\n1," + b"2" * 200_000 + b"\n")):
            unparsable = tmp_path / name
            unparsable.write_bytes(body)
            with pytest.raises(ConfigError):
                Samples.from_csv(unparsable)


class TestFitExponential:
    def test_noiseless_recovery_to_six_digits(self):
        t = np.array([0.0, 1e-4, 2e-4, 3e-4])
        y = 0.707 * np.exp(-t / 3e-4)
        fit = fit_exponential(Samples.from_xy(t, y))
        assert fit.converged
        assert fit.params["r0"] == pytest.approx(0.707, rel=1e-6)
        assert fit.params["tau0"] == pytest.approx(3e-4, rel=1e-6)
        assert fit.rss < 1e-20

    def test_constant_data_is_rank_deficient(self):
        t = np.linspace(0.0, 1.0, 8)
        with pytest.raises(ParameterError, match="data are constant in x"):
            fit_exponential(Samples.from_xy(t, np.full(8, 0.3)))

    def test_degenerate_x_is_rank_deficient(self):
        with pytest.raises(ParameterError, match="all x values are equal"):
            fit_exponential(Samples.from_xy([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            fit_exponential(Samples.from_xy([0.0, 1.0], [1.0, 0.5]))
        with pytest.raises(ParameterError):
            fit_exponential(Samples.from_xy([0.0, 1.0, 2.0], [1.0, -0.5, 0.2]))
        with pytest.raises(ParameterError):
            fit_exponential(Samples.from_xy([-1.0, 1.0, 2.0], [1.0, 0.5, 0.2]))

    def test_replicate_bias_and_coverage(self):
        # 500 synthetic replicates with 5% relative Gaussian noise: parameter
        # bias stays under 2% and the 1-sigma intervals cover ~68%
        rng = substream(2024, 0)
        t = np.linspace(0.0, 1e-3, 20)
        truth_r0, truth_tau = 0.707, 3e-4
        clean = truth_r0 * np.exp(-t / truth_tau)
        estimates = []
        covered_r0 = covered_tau = 0
        for _ in range(500):
            y = clean * (1.0 + 0.05 * rng.standard_normal(t.size))
            weights = 1.0 / (0.05 * clean) ** 2
            fit = fit_exponential(Samples(t, y, weights))
            assert fit.converged
            estimates.append((fit.params["r0"], fit.params["tau0"]))
            if abs(fit.params["r0"] - truth_r0) <= fit.stderr["r0"]:
                covered_r0 += 1
            if abs(fit.params["tau0"] - truth_tau) <= fit.stderr["tau0"]:
                covered_tau += 1
        means = np.mean(estimates, axis=0)
        assert abs(means[0] - truth_r0) / truth_r0 < 0.02
        assert abs(means[1] - truth_tau) / truth_tau < 0.02
        assert abs(covered_r0 / 500 - 0.68) < 0.05
        assert abs(covered_tau / 500 - 0.68) < 0.05


class TestFitLinearOrigin:
    def test_exact_slope_on_proportional_data(self):
        n = np.arange(1.0, 13.0)
        fit = fit_linear_origin(Samples.from_xy(n, 2.5e-3 * n))
        assert fit.params["slope"] == pytest.approx(2.5e-3, rel=1e-12)
        assert fit.rss == pytest.approx(0.0, abs=1e-24)

    def test_two_points_give_exact_slope(self):
        fit = fit_linear_origin(Samples.from_xy([1.0, 2.0], [0.4, 0.8]))
        assert fit.params["slope"] == pytest.approx(0.4, rel=1e-12)

    def test_all_zero_x_is_rank_deficient(self):
        with pytest.raises(ParameterError, match="the slope is unidentifiable"):
            fit_linear_origin(Samples.from_xy([0.0, 0.0], [1.0, 2.0]))

    def test_weighted_residual_orthogonality(self):
        rng = substream(5, 0)
        x = np.linspace(1.0, 10.0, 25)
        y = 0.7 * x + rng.normal(0, 0.3, x.size)
        w = rng.uniform(0.5, 2.0, x.size)
        fit = fit_linear_origin(Samples(x, y, w))
        residual = y - fit.params["slope"] * x
        assert abs(float(w @ (x * residual))) < 1e-10


class TestFitSinusoid:
    def test_noiseless_recovery_to_six_digits(self):
        theta = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
        y = 500.0 * (1.0 + 0.795 * np.cos(theta))
        fit = fit_sinusoid(Samples.from_xy(theta, y))
        assert fit.converged
        assert fit.params["amplitude"] == pytest.approx(500.0, rel=1e-9)
        assert fit.params["visibility"] == pytest.approx(0.795, rel=1e-9)
        assert abs(fit.params["theta0"]) < 1e-9

    def test_flat_data_fit_zero_visibility(self):
        theta = np.linspace(0.0, 2 * np.pi, 10, endpoint=False)
        y = np.full(10, 42.0)
        fit = fit_sinusoid(Samples.from_xy(theta, y))
        assert fit.params["visibility"] == pytest.approx(0.0, abs=1e-12)
        assert fit.params["amplitude"] == pytest.approx(42.0, rel=1e-12)

    def test_all_zero_counts_keep_an_infinite_visibility_error(self):
        # a fringe scan with fringe_shots = 0 counts nothing: there is no
        # visibility to measure, which the bootstrap reads as an infinite error
        theta = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
        fit = fit_sinusoid(Samples.from_xy(theta, np.zeros(12)))
        assert (fit.params["amplitude"], fit.params["visibility"]) == (0.0, 0.0)
        assert fit.stderr["visibility"] == math.inf

    def test_poisson_noise_recovery_within_three_stderr(self):
        rng = substream(6, 0)
        theta = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
        expected = 1000.0 * (1.0 + 0.6 * np.cos(theta + 0.4))
        y = rng.poisson(expected).astype(float)
        fit = fit_sinusoid(Samples.from_xy(theta, y))
        assert abs(fit.params["visibility"] - 0.6) < 3 * fit.stderr["visibility"]
        assert abs(fit.params["theta0"] - 0.4) < 3 * fit.stderr["theta0"]

    def test_visibility_is_clamped_to_one(self):
        theta = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
        y = np.maximum(10.0 * (1.0 + 1.2 * np.cos(theta)), 0.0)
        fit = fit_sinusoid(Samples.from_xy(theta, y))
        assert fit.params["visibility"] == 1.0

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            fit_sinusoid(Samples.from_xy([0.0, 1.0, 2.0], [1.0, 2.0, 1.0]))
        narrow = np.linspace(0.0, 2.0, 8)  # spans under half a period
        with pytest.raises(ParameterError, match="half a period"):
            fit_sinusoid(Samples.from_xy(narrow, np.cos(narrow)))


class TestScalingInvariance:
    @given(scale=st.floats(1e-3, 1e3))
    @settings(max_examples=60, deadline=None)
    def test_amplitudes_scale_shapes_do_not(self, scale):
        t = np.linspace(0.0, 1e-3, 12)
        y = 0.7 * np.exp(-t / 2e-4)
        base = fit_exponential(Samples(t, y, np.ones_like(t)))
        scaled = fit_exponential(Samples(t, scale * y, np.ones_like(t)))
        assert scaled.params["r0"] == pytest.approx(scale * base.params["r0"], rel=1e-6)
        assert scaled.params["tau0"] == pytest.approx(base.params["tau0"], rel=1e-6)

        theta = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
        fringe = 100.0 * (1.0 + 0.5 * np.cos(theta + 0.2))
        fit_a = fit_sinusoid(Samples(theta, fringe, np.ones_like(theta)))
        fit_b = fit_sinusoid(Samples(theta, scale * fringe, np.ones_like(theta)))
        assert fit_b.params["amplitude"] == pytest.approx(
            scale * fit_a.params["amplitude"], rel=1e-9)
        assert fit_b.params["visibility"] == pytest.approx(
            fit_a.params["visibility"], rel=1e-9)
        assert fit_b.params["theta0"] == pytest.approx(fit_a.params["theta0"], abs=1e-9)
