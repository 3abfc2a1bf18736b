"""Compressor cost rate: shaft power, running cost and their partials."""

import numpy as np
import pytest

from gaspower import compressor
from gaspower.model import KAPPA_DEFAULT, CompressorCostModel

MODEL = CompressorCostModel(d0=0.0, d1=1.0, d2=0.01)
# cost rate = shaft power in MW
LINEAR = CompressorCostModel(d0=0.0, d1=1.0, d2=0.0)
AREA = 0.2827


def rate(p_in, p_out, q, model=MODEL):
    return compressor.cost_rate(p_in, p_out, q, AREA, model, KAPPA_DEFAULT)


def power_mw(p_in, p_out, q):
    return rate(p_in, p_out, q, LINEAR)[0]


def assert_partials_match_central_differences(model):
    args = np.array([45e5, 52e5, 220.0])
    partials = rate(*args, model=model)[1:]
    for i, d in enumerate(partials):
        h = 1e-4 * args[i]
        up, down = args.copy(), args.copy()
        up[i] += h
        down[i] -= h
        fd = (rate(*up, model=model)[0] - rate(*down, model=model)[0]) / (2 * h)
        assert d == pytest.approx(fd, rel=1e-7)


class TestShaftPower:
    def test_zero_lift(self):
        assert power_mw(41e5, 41e5, 277.64) == 0.0

    def test_idle(self):
        assert power_mw(41e5, 45e5, 0.0) == 0.0

    def test_direct_value(self):
        # q A c^2 ln(p_out/p_in) at the reference operating point
        assert power_mw(41e5, 45e5, 277.64) == pytest.approx(
            0.8446381284373621, rel=1e-12)

    def test_continuous_towards_zero_lift(self):
        # one pascal of lift: power shrinks to q A c^2 * dp/p, watts-scale
        assert power_mw(50e5, 50e5 + 1.0, 200.0) == pytest.approx(
            200.0 * AREA * 340.0**2 / 50e5 / 1e6, rel=1e-6)

    def test_derivatives_match_fd(self):
        assert_partials_match_central_differences(LINEAR)


class TestCostIntegrand:
    def test_zero_when_idle(self):
        assert rate(50e5, 50e5, 200.0)[0] == 0.0

    def test_direct_value(self):
        assert rate(41e5, 45e5, 277.64)[0] == pytest.approx(
            0.8517722641174639, rel=1e-12)

    def test_partials_match_central_differences(self):
        assert_partials_match_central_differences(MODEL)

    def test_monotone_in_pressure_ratio(self):
        assert rate(41e5, 45e5, 277.64)[0] > rate(41e5, 44e5, 277.64)[0]

    def test_monotone_in_flow(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            p_in = rng.uniform(30e5, 60e5)
            ratio = rng.uniform(1.01, 1.5)
            q1, q2 = np.sort(rng.uniform(1.0, 400.0, 2))
            assert rate(p_in, ratio * p_in, q2)[0] > \
                rate(p_in, ratio * p_in, q1)[0]

    def test_monotone_in_ratio_random(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            p_in = rng.uniform(30e5, 60e5)
            q = rng.uniform(1.0, 400.0)
            r1, r2 = np.sort(rng.uniform(1.0001, 1.6, 2))
            assert rate(p_in, r2 * p_in, q)[0] > rate(p_in, r1 * p_in, q)[0]

    def test_fixed_cost_applies_only_while_running(self):
        model = CompressorCostModel(d0=3.0, d1=1.0, d2=0.0)
        idle = rate(50e5, 50e5, 200.0, model)[0]
        running = rate(50e5, 50.1e5, 200.0, model)[0]
        assert idle == 0.0
        assert running > 3.0

    def test_arrays_match_scalar_calls(self):
        rng = np.random.default_rng(23)
        p_in = rng.uniform(30e5, 60e5, 12)
        p_out = p_in * rng.uniform(1.0, 1.5, 12)
        p_out[:3] = p_in[:3]     # idle lift, where d0 does not apply
        q = rng.uniform(0.0, 400.0, 12)
        model = CompressorCostModel(d0=2.0, d1=1.0, d2=0.01)
        arrays = rate(p_in, p_out, q, model)
        for k in range(12):
            scalars = rate(p_in[k], p_out[k], q[k], model)
            assert [a[k] for a in arrays] == list(scalars)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            CompressorCostModel(d1=-1.0)
