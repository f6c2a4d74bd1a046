"""Tests for the queueing substrate (Eqs. 4-8 and their exact references)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.queueing import (
    ScvMode,
    ServiceTime,
    erlang_c,
    hokstad_mg2_waiting_time,
    md1_waiting_time,
    mg1_utilization,
    mg1_waiting_time,
    mg1_waiting_time_batch,
    mg1_waiting_time_wormhole,
    mgm_waiting_time,
    mgm_waiting_time_batch,
    mgm_waiting_time_wormhole,
    mm1_waiting_time,
    mmc_waiting_time,
    scv_draper_ghosh,
    scv_for_mode,
)


class TestScv:
    def test_zero_load_is_deterministic(self):
        # At zero contention the service time equals the message length and
        # the Draper-Ghosh SCV collapses to zero (Eq. 5).
        assert scv_draper_ghosh(16.0, 16) == 0.0

    def test_increases_with_blocking(self):
        assert scv_draper_ghosh(32.0, 16) > scv_draper_ghosh(20.0, 16)

    def test_bounded_below_one(self):
        # (x - L)^2 / x^2 < 1 for any finite x > 0.
        assert scv_draper_ghosh(1e9, 16) < 1.0

    def test_exact_value(self):
        # x = 2L: SCV = (L/2L)^2 = 1/4.
        assert scv_draper_ghosh(32.0, 16) == pytest.approx(0.25)

    def test_clamps_below_message_length(self):
        assert scv_draper_ghosh(10.0, 16) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            scv_draper_ghosh(0.0, 16)
        with pytest.raises(ConfigurationError):
            scv_draper_ghosh(16.0, 0)

    @pytest.mark.parametrize(
        "mode,expected",
        [(ScvMode.DETERMINISTIC, 0.0), (ScvMode.EXPONENTIAL, 1.0)],
    )
    def test_fixed_modes(self, mode, expected):
        assert scv_for_mode(mode, 37.0, 16) == expected

    def test_mode_draper_ghosh(self):
        assert scv_for_mode(ScvMode.DRAPER_GHOSH, 32.0, 16) == pytest.approx(0.25)

    def test_service_time_variance(self):
        s = ServiceTime(mean=10.0, scv=0.25)
        assert s.variance == pytest.approx(25.0)

    def test_service_time_wormhole_factory(self):
        s = ServiceTime.wormhole(32.0, 16)
        assert s.scv == pytest.approx(0.25)

    def test_service_time_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceTime(mean=0.0)
        with pytest.raises(ConfigurationError):
            ServiceTime(mean=1.0, scv=-0.1)


class TestMg1:
    def test_zero_arrivals_zero_wait(self):
        assert mg1_waiting_time(0.0, 16.0, 0.5) == 0.0

    def test_matches_mm1_with_exponential_scv(self):
        lam, x = 0.03, 16.0
        assert mg1_waiting_time(lam, x, 1.0) == pytest.approx(mm1_waiting_time(lam, x))

    def test_matches_md1_with_zero_scv(self):
        lam, x = 0.04, 20.0
        assert mg1_waiting_time(lam, x, 0.0) == pytest.approx(md1_waiting_time(lam, x))

    def test_saturation_returns_inf(self):
        assert math.isinf(mg1_waiting_time(0.1, 10.0))
        assert math.isinf(mg1_waiting_time(0.11, 10.0))

    def test_monotone_in_rate(self):
        waits = [mg1_waiting_time(lam, 16.0, 0.3) for lam in (0.01, 0.02, 0.04, 0.06)]
        assert waits == sorted(waits)

    def test_monotone_in_scv(self):
        assert mg1_waiting_time(0.03, 16.0, 1.0) > mg1_waiting_time(0.03, 16.0, 0.0)

    def test_infinite_service_propagates(self):
        assert math.isinf(mg1_waiting_time(0.01, math.inf, 0.0))

    def test_wormhole_wrapper_consistent(self):
        # Eq. 6 == Eq. 4 with Eq. 5 substituted.
        lam, x, flits = 0.02, 24.0, 16
        direct = mg1_waiting_time(lam, x, scv_draper_ghosh(x, flits))
        assert mg1_waiting_time_wormhole(lam, x, flits) == pytest.approx(direct)

    def test_utilization(self):
        assert mg1_utilization(0.05, 10.0) == pytest.approx(0.5)

    def test_rejects_negative_scv(self):
        with pytest.raises(ConfigurationError):
            mg1_waiting_time(0.01, 16.0, -1.0)

    def test_rejects_negative_rate(self):
        with pytest.raises(ConfigurationError):
            mg1_waiting_time(-0.01, 16.0)

    @given(
        lam=st.floats(0.0001, 0.05),
        x=st.floats(1.0, 19.0),
        scv=st.floats(0.0, 2.0),
    )
    @settings(max_examples=50)
    def test_property_nonnegative_and_finite_below_saturation(self, lam, x, scv):
        w = mg1_waiting_time(lam, x, scv)
        assert w >= 0.0
        assert math.isfinite(w)


class TestErlang:
    def test_single_server_equals_utilization(self):
        # For c=1 Erlang C reduces to rho.
        assert erlang_c(1, 0.3) == pytest.approx(0.3)

    def test_two_server_closed_form(self):
        # For c=2 the Erlang-C probability reduces to a^2 / (2 + a).
        a = 0.8
        assert erlang_c(2, a) == pytest.approx(a * a / (2 + a))

    def test_bounds(self):
        for c in (1, 2, 3, 5):
            for a in (0.1, 0.5 * c, 0.9 * c):
                p = erlang_c(c, a)
                assert 0.0 <= p <= 1.0

    def test_saturated_returns_one(self):
        assert erlang_c(2, 2.0) == 1.0
        assert erlang_c(2, 5.0) == 1.0

    def test_zero_load(self):
        assert erlang_c(3, 0.0) == 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            erlang_c(0, 0.5)
        with pytest.raises(ConfigurationError):
            erlang_c(2, -1.0)

    def test_mmc_wait_reduces_to_mm1(self):
        lam, x = 0.04, 16.0
        assert mmc_waiting_time(lam, x, 1) == pytest.approx(mm1_waiting_time(lam, x))

    def test_mm2_closed_form(self):
        # W_q(M/M/2) = a^2 x / (4 - a^2), a = lam * x.
        lam, x = 0.05, 16.0
        a = lam * x
        assert mmc_waiting_time(lam, x, 2) == pytest.approx(a * a * x / (4 - a * a))

    def test_more_servers_less_wait(self):
        lam, x = 0.08, 16.0
        w1 = mmc_waiting_time(lam, x, 2)
        w2 = mmc_waiting_time(lam, x, 3)
        w3 = mmc_waiting_time(lam, x, 4)
        assert w1 > w2 > w3 >= 0

    def test_mmc_saturation(self):
        assert math.isinf(mmc_waiting_time(0.2, 10.0, 2))


class TestHokstadMg2:
    def test_matches_paper_closed_form(self):
        # Eq. 8 written out explicitly.
        lam, x, flits = 0.06, 20.0, 16
        scv = scv_draper_ghosh(x, flits)
        expected = lam**2 * x**3 / (2 * (4 - lam**2 * x**2)) * (1 + scv)
        assert hokstad_mg2_waiting_time(lam, x, scv) == pytest.approx(expected)

    def test_exact_for_exponential(self):
        # With C_b^2 = 1 the Hokstad form reproduces M/M/2 exactly.
        lam, x = 0.07, 15.0
        assert hokstad_mg2_waiting_time(lam, x, 1.0) == pytest.approx(
            mmc_waiting_time(lam, x, 2)
        )

    def test_general_m_matches_closed_form_for_two(self):
        lam, x, scv = 0.06, 18.0, 0.4
        assert mgm_waiting_time(lam, x, 2, scv) == pytest.approx(
            hokstad_mg2_waiting_time(lam, x, scv)
        )

    def test_general_m_matches_pk_for_one(self):
        lam, x, scv = 0.03, 18.0, 0.4
        assert mgm_waiting_time(lam, x, 1, scv) == pytest.approx(
            mg1_waiting_time(lam, x, scv)
        )

    def test_saturation_at_two(self):
        assert math.isinf(hokstad_mg2_waiting_time(0.2, 10.0))
        assert math.isinf(mgm_waiting_time(0.2, 10.0, 2, 0.0))

    def test_zero_rate(self):
        assert hokstad_mg2_waiting_time(0.0, 10.0, 0.3) == 0.0

    def test_wormhole_wrapper(self):
        lam, x, flits = 0.05, 24.0, 16
        expected = mgm_waiting_time(lam, x, 2, scv_draper_ghosh(x, flits))
        assert mgm_waiting_time_wormhole(lam, x, 2, flits) == pytest.approx(expected)

    def test_two_servers_beat_one(self):
        # A two-server channel fed twice the rate still beats two independent
        # single-server channels at their own rate (pooling gain).
        lam, x, scv = 0.04, 16.0, 0.2
        assert mgm_waiting_time(2 * lam, x, 2, scv) < mg1_waiting_time(lam, x, scv)

    def test_rejects_bad_args(self):
        with pytest.raises(ConfigurationError):
            hokstad_mg2_waiting_time(-0.1, 10.0)
        with pytest.raises(ConfigurationError):
            hokstad_mg2_waiting_time(0.1, -10.0)
        with pytest.raises(ConfigurationError):
            hokstad_mg2_waiting_time(0.1, 10.0, -0.5)

    @given(
        lam=st.floats(0.001, 0.11),
        x=st.floats(1.0, 17.0),
        scv=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50)
    def test_property_finite_below_saturation(self, lam, x, scv):
        w = hokstad_mg2_waiting_time(lam, x, scv)
        assert w >= 0.0
        assert math.isfinite(w)

    @given(m=st.integers(1, 6), lam=st.floats(0.001, 0.05), x=st.floats(1.0, 18.0))
    @settings(max_examples=50)
    def test_property_scv_scaling(self, m, lam, x):
        # The two-moment rule is linear in (1 + scv).
        w0 = mgm_waiting_time(lam, x, m, 0.0)
        w1 = mgm_waiting_time(lam, x, m, 1.0)
        assert w1 == pytest.approx(2.0 * w0, rel=1e-12)

    @given(
        rho=st.floats(0.0, 1.5),
        x=st.floats(1.0, 64.0),
        scv=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_single_server_batch_is_pollaczek_khinchine(self, rho, x, scv):
        # The last two points sit exactly at and past rho = 1.
        lam = np.array([rho / x, 1.0 / 16.0, 0.125])
        service = np.array([x, 16.0, 16.0])
        scv_arr = np.full(3, scv)
        got = mgm_waiting_time_batch(lam, service, 1, scv_arr)
        assert np.array_equal(got, mg1_waiting_time_batch(lam, service, scv_arr))
        saturated = lam * service >= 1.0
        assert saturated[1:].all()
        assert np.array_equal(np.isinf(got), saturated)
        for w, l, s in zip(got, lam, service):
            # The Erlang-C scalar reference: equal up to rounding.  The
            # absolute floor covers subnormal loads, where a P-K wait of a
            # few ulps can round to 0 while the Erlang-C form keeps 5e-324
            # (rho = 5e-324, x = 1, scv = 0.25).
            reference = mgm_waiting_time(float(l), float(s), 1, scv)
            assert math.isinf(w) == math.isinf(reference)
            if math.isfinite(reference):
                assert math.isclose(w, reference, rel_tol=1e-13, abs_tol=1e-300)
