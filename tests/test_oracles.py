"""Checks of the test-side large-system oracle: Tanaka's replica optimum.

It is the individually optimal detector's BER with dense spreading as
M -> infinity; sparse spreading at finite L has a curve of its own.
"""

import mpmath
import numpy as np
import pytest

from lascdma.harness import single_user_bound

import oracles


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_low_snr_optimum_is_the_linear_one(alpha):
    # mmse(s) = 1 - s + O(s^2), so eta (1 + alpha snr) - 1 is O(alpha snr^2)
    for snr_db in (-30.0, -40.0):
        snr = 10.0 ** (snr_db / 10)
        eta, _, roots = oracles.replica_optimum(alpha, snr_db)
        assert roots.size == 1
        assert abs(eta * (1 + alpha * snr) - 1) <= 2 * alpha * snr ** 2


@pytest.mark.parametrize("snr_db", [2.0, 11.0, 14.0])
def test_light_load_optimum_is_interference_free(snr_db):
    # 1 - eta = alpha snr mmse(eta snr) / (1 + ...) <= alpha snr
    snr = 10.0 ** (snr_db / 10)
    for alpha in (1e-3, 1e-6):
        eta, ber, _ = oracles.replica_optimum(alpha, snr_db)
        assert 0 < 1 - eta <= alpha * snr
        assert ber / single_user_bound(snr_db) - 1 <= 2 * alpha * snr


def test_optimum_meets_the_bound_at_14_db():
    for alpha in np.arange(1, 16) / 10:
        _, ber, _ = oracles.replica_optimum(alpha, 14.0)
        assert abs(ber / single_user_bound(14.0) - 1) < 1e-3, alpha


def test_three_fixed_points_at_load_2_pick_the_least_free_energy():
    snr = 10.0 ** 1.1
    eta, ber, roots = oracles.replica_optimum(2.0, 11.0)
    assert roots.size == 3 and eta == roots.max()
    assert eta == pytest.approx(0.9834, abs=1e-4)
    assert ber / single_user_bound(11.0) == pytest.approx(1.118, abs=1e-3)
    # the 200-node quadrature against mpmath at the chosen point: within
    # 1e-8 absolute (mmse's relative error is 9e-6 here, which moves eta
    # by about 1e-7)
    s = eta * snr
    with mpmath.workdps(30):
        def expect(f):
            return mpmath.quad(
                lambda z: f(s + mpmath.sqrt(s) * z) * mpmath.npdf(z),
                [-mpmath.inf, -mpmath.sqrt(s), 0, mpmath.inf])
        mmse = 1 - expect(mpmath.tanh)
        info = s - expect(lambda u: mpmath.log(mpmath.cosh(u)))
    assert abs(oracles.binary_mmse(s) - float(mmse)) < 1e-8
    assert abs(oracles.binary_mutual_info(s) - float(info)) < 1e-8
