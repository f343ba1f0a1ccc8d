"""Gap-profile energies: closed form, quadrature, scaling in the gap width."""

import math

import numpy as np
import pytest
from scipy import integrate

from stiffnet.energy import KellerParams, keller_energy


def z_energy_quadrature_oracle(a, nu, d):
    """Independent adaptive quadrature of the z-derivative energy.

    The profile w = (a r^2 + nu - z)/(2 a r^2 + nu) has dw/dz constant in
    z, so integrate 2 pi r (z-range) / (2 a r^2 + nu)^2 over r with scipy.
    """
    val, _ = integrate.quad(
        lambda r: 2 * math.pi * r * (nu + 2 * a * r * r)
        / (2 * a * r * r + nu) ** 2,
        0.0, d, limit=200)
    return val


def full_energy_quadrature_oracle(a, nu, d):
    """Adaptive 2D quadrature of the full squared gradient."""
    def integrand(z, r):
        denom = 2 * a * r * r + nu
        wz = -1.0 / denom
        wr = 2 * a * r * (2 * z - nu) / denom ** 2
        return 2 * math.pi * r * (wr * wr + wz * wz)

    val, _ = integrate.dblquad(integrand, 0.0, d,
                               lambda r: -a * r * r,
                               lambda r: nu + a * r * r,
                               epsabs=1e-10, epsrel=1e-10)
    return val


class TestClosedForm:
    def test_reference_value(self):
        out = keller_energy(KellerParams(a=1.0, nu=1e-2, d=1.0))
        assert out["z_closed_form"] == pytest.approx(
            (math.pi / 2) * math.log(201), rel=1e-14)
        assert out["z_closed_form"] == pytest.approx(8.3300, abs=5e-4)

    def test_quadrature_agrees_with_closed_form(self):
        out = keller_energy(KellerParams(a=1.0, nu=1e-2, d=1.0))
        rel = abs(out["z_quadrature"] - out["z_closed_form"]) / out["z_closed_form"]
        assert rel <= 1e-4

    def test_scipy_oracle_agrees(self):
        params = KellerParams(a=1.3, nu=3e-3, d=0.7)
        out = keller_energy(params)
        oracle = z_energy_quadrature_oracle(1.3, 3e-3, 0.7)
        assert out["z_closed_form"] == pytest.approx(oracle, rel=1e-9)
        assert out["z_quadrature"] == pytest.approx(oracle, rel=1e-6)

    def test_small_gap_radius_limit(self):
        values = [keller_energy(KellerParams(a=1.0, nu=1e-2, d=d))["z_closed_form"]
                  for d in (1.0, 1e-2, 1e-4)]
        assert values[0] > values[1] > values[2]
        assert values[2] == pytest.approx(0.0, abs=1e-3)

    def test_slope_in_log_inverse_width(self):
        for a in (1.0, 2.5):
            nus = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
            ys = [keller_energy(KellerParams(a=a, nu=nu, d=1.0))["z_closed_form"]
                  for nu in nus]
            xs = [math.log(1.0 / nu) for nu in nus]
            slope = np.polyfit(xs, ys, 1)[0]
            assert slope == pytest.approx(math.pi / (2 * a), rel=1e-2)


class TestFullGradient:
    def test_full_dominates_z_part(self):
        for nu in (1e-2, 1e-4):
            out = keller_energy(KellerParams(a=1.0, nu=nu, d=1.0))
            assert out["full_quadrature"] >= out["z_closed_form"]

    def test_full_matches_scipy_oracle(self):
        out = keller_energy(KellerParams(a=1.0, nu=1e-2, d=1.0))
        oracle = full_energy_quadrature_oracle(1.0, 1e-2, 1.0)
        assert out["full_quadrature"] == pytest.approx(oracle, rel=1e-6)

    def test_radial_excess_stays_bounded(self):
        excess = []
        for nu in (1e-2, 1e-4, 1e-6):
            out = keller_energy(KellerParams(a=1.0, nu=nu, d=1.0))
            excess.append(out["full_quadrature"] - out["z_closed_form"])
        spread = (max(excess) - min(excess)) / max(excess)
        assert spread < 0.05

    def test_weighted_energy_uniformly_bounded(self):
        vals = []
        for nu in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            out = keller_energy(KellerParams(a=1.0, nu=nu, d=1.0, gamma=1.0))
            vals.append(out["weighted_quadrature"])
        spread = (max(vals) - min(vals)) / max(vals)
        assert spread < 0.05

    def test_gamma_zero_weight_equals_full(self):
        out = keller_energy(KellerParams(a=1.0, nu=1e-2, d=1.0, gamma=0.0))
        assert out["weighted_quadrature"] == out["full_quadrature"]


class TestValidation:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            KellerParams(a=0.0, nu=1e-2, d=1.0)
        with pytest.raises(ValueError):
            KellerParams(a=1.0, nu=0.0, d=1.0)
        with pytest.raises(ValueError):
            KellerParams(a=1.0, nu=2.0, d=1.0)
        with pytest.raises(ValueError):
            KellerParams(a=1.0, nu=1e-2, d=-1.0)
        with pytest.raises(ValueError):
            KellerParams(a=1.0, nu=1e-2, d=1.0, gamma=-0.5)
