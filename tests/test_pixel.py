import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctia_ipc.errors import FitError, ValidationError
from ctia_ipc.pixel import PixelParams, fit_transfer, fit_transfer_model, integrate


class TestParams:
    def test_defaults_valid(self):
        p = PixelParams()
        assert p.v_rst == 0.8 and p.c_f == 10e-15

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"v_rst": 0.0},
            {"c_f": -1e-15},
            {"i_max": 0.0},
            {"headroom": 0.0},
            {"headroom": 0.9},  # exceeds v_rst
            {"c_f": float("nan")},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            PixelParams(**kwargs)


class TestIntegrate:
    def test_zero_photocurrent(self, pixel):
        assert integrate(pixel, 0.0, 123e-6) == 0.0

    def test_zero_exposure(self, pixel):
        assert integrate(pixel, 1e-9, 0.0) == 0.0

    def test_clamped_example(self):
        # i=1 nA, t=10 us, c_f=10 fF -> I*t/C = 1.0 V, clamped to 0.8 V.
        p = PixelParams(v_rst=0.8, c_f=10e-15, i_max=50e-12, headroom=0.8)
        assert integrate(p, 1e-9, 10e-6) == pytest.approx(0.8, abs=0.0)
        unclamped = 1e-9 * 10e-6 / 10e-15
        assert unclamped == pytest.approx(1.0)

    def test_rejects_bad_inputs(self, pixel):
        with pytest.raises(ValidationError):
            integrate(pixel, float("inf"), 1e-6)
        with pytest.raises(ValidationError):
            integrate(pixel, -1e-12, 1e-6)
        with pytest.raises(ValidationError):
            integrate(pixel, 1e-12, -1e-6)

    def test_vectorized(self, pixel):
        i = np.array([0.0, 1e-12, 2e-12])
        out = integrate(pixel, i, 1e-6)
        assert out.shape == (3,)
        assert out[0] == 0.0 and out[2] == pytest.approx(2 * out[1])

    @given(
        i=st.floats(1e-15, 1e-10),
        t=st.floats(1e-9, 1e-4),
        a=st.floats(0.0, 10.0),
    )
    @settings(max_examples=200)
    def test_linearity_when_unclamped(self, i, t, a):
        # Huge headroom disengages the clamp entirely.
        p = PixelParams(v_rst=1e6, c_f=10e-15, i_max=50e-12, headroom=1e6)
        base = integrate(p, i, t)
        assert integrate(p, a * i, t) == pytest.approx(a * base, rel=1e-12)
        assert integrate(p, i, a * t) == pytest.approx(a * base, rel=1e-12)

    @given(
        i1=st.floats(0, 1e-10),
        i2=st.floats(0, 1e-10),
        t=st.floats(0, 1e-3),
    )
    @settings(max_examples=200)
    def test_monotone_in_photocurrent(self, i1, i2, t):
        p = PixelParams()
        lo, hi = sorted((i1, i2))
        assert integrate(p, lo, t) <= integrate(p, hi, t)

    @given(i=st.floats(0, 1e-8), t=st.floats(0, 1.0))
    @settings(max_examples=200)
    def test_clamp_ceiling(self, i, t):
        p = PixelParams()
        assert integrate(p, i, t) <= p.headroom


class TestTransfer:
    def test_polynomial_roundtrip_against_integrate(self, pixel, wtc_cfg):
        # Samples from the nominal device land within residual_rms of the
        # fitted polynomial model.
        samples = []
        t_full = 15 * wtc_cfg.t_step
        for mag in range(16):
            for x in np.linspace(0.0, 1.0, 11):
                v = integrate(pixel, pixel.i_max * x, (mag / 15) * t_full)
                samples.append((mag / 15, x, v))
        doc = fit_transfer_model(samples, degree=2)
        assert doc["kind"] == "fitted-polynomial"
        fit = fit_transfer(samples)
        for w, x, v in samples[:: 7]:
            model_v = max(np.polyval(doc["coeffs"], w * x), doc["clamp_lo"])
            assert abs(model_v - v) <= max(3 * fit.residual_rms, 1e-12)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_document_fields(self, degree):
        samples = [
            (w, x, 0.3 * w * x - 0.05 * (w * x) ** 2 - 0.01)
            for w in (0.0, 0.5, 1.0)
            for x in (0.2, 0.6, 0.9)
        ]
        doc = fit_transfer_model(samples, degree=degree)
        fit = fit_transfer(samples)
        assert doc["fit"] == {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "residual_rms": fit.residual_rms,
        }
        if degree == 1:
            assert doc["kind"] == "ideal-linear" and doc["coeffs"] == []
            assert (doc["slope"], doc["intercept"]) == (fit.slope, fit.intercept)
        else:
            assert doc["kind"] == "fitted-polynomial" and len(doc["coeffs"]) == degree + 1
            assert (doc["slope"], doc["intercept"]) == tuple(doc["coeffs"][-2:])
        assert doc["clamp_lo"] == min(0.0, doc["intercept"]) and doc["clamp_hi"] is None

    def test_too_few_samples_for_degree(self):
        with pytest.raises(FitError, match="degree-3"):
            fit_transfer_model([(0.0, 1.0, 0.0), (0.5, 1.0, 1.0), (1.0, 1.0, 2.0)], degree=3)


class TestFitTransfer:
    def test_exact_line(self):
        samples = [(w, x, 2.0 * w * x + 0.1) for w in (0.0, 0.5, 1.0) for x in (0.2, 0.9)]
        fit = fit_transfer(samples)
        assert fit.slope == pytest.approx(2.0, rel=1e-9)
        assert fit.intercept == pytest.approx(0.1, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_integrate_samples_unclamped(self, pixel, wtc_cfg):
        t_full = 15 * wtc_cfg.t_step
        samples = [
            (mag / 15, x, integrate(pixel, pixel.i_max * x, (mag / 15) * t_full))
            for mag in range(16)
            for x in np.linspace(0.0, 1.0, 9)
        ]
        assert fit_transfer(samples).r_squared >= 0.999

    def test_degenerate(self):
        with pytest.raises(FitError):
            fit_transfer([(0.5, 0.5, 0.1), (0.5, 0.5, 0.2), (0.5, 0.5, 0.3)])

    def test_too_few_samples(self):
        with pytest.raises(FitError):
            fit_transfer([(0.5, 0.5, 0.1)])

    @given(
        # A |slope| below ~1e-6 of the intercept leaves the line's variation
        # beneath double-precision resolution of the samples themselves.
        slope=st.one_of(st.just(0.0), st.floats(1e-6, 5), st.floats(-5, -1e-6)),
        intercept=st.floats(-1, 1),
    )
    @settings(max_examples=100)
    def test_affine_recovery(self, slope, intercept):
        xs = np.linspace(0.05, 1.0, 12)
        samples = [(x, 1.0, slope * x + intercept) for x in xs]
        fit = fit_transfer(samples)
        assert fit.slope == pytest.approx(slope, rel=1e-9, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, rel=1e-9, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
