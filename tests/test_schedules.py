import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isddp.schedules import (
    ErrorBudget,
    ScheduleError,
    ScheduleMode,
    ScheduleSpec,
    abs_err,
    backward_budget,
    forward_budgets,
    rel_err,
)


def spec(eps_bar=0.1, eps0=1e-12, mode=ScheduleMode.RELATIVE, **kw):
    return ScheduleSpec(eps_bar=eps_bar, eps0=eps0, mode=mode, **kw)


class TestRelErr:
    def test_left_endpoint(self):
        assert rel_err(2, 1, 6, spec(eps_bar=0.1)) == pytest.approx(0.1, abs=1e-15)

    def test_right_endpoint(self):
        assert rel_err(6, 1, 6, spec()) == pytest.approx(1e-12, abs=1e-12)

    def test_tabulated_interior_value(self):
        assert rel_err(4, 2, 6, spec()) == pytest.approx(0.025, abs=1e-12)

    def test_two_stage_rule(self):
        assert rel_err(2, 1, 2, spec(eps_bar=0.3)) == pytest.approx(0.3)
        assert rel_err(2, 3, 2, spec(eps_bar=0.3)) == pytest.approx(0.1)

    def test_stage_one_is_contract_violation(self):
        with pytest.raises(ScheduleError):
            rel_err(1, 1, 4, spec())


class TestAbsErr:
    def test_magnitude_scaling(self):
        s = spec()
        r = rel_err(2, 10, 6, s)
        assert r == pytest.approx(0.01, abs=1e-13)
        assert abs_err(2, 10, 6, s, -3.2) == pytest.approx(0.032, abs=1e-12)

    def test_clamp_at_one(self):
        s = spec()
        r = rel_err(2, 10, 6, s)
        assert abs_err(2, 10, 6, s, 0.5) == pytest.approx(r)
        assert abs_err(2, 10, 6, s, 0.0) == pytest.approx(r)
        assert abs_err(2, 10, 6, s, None) == pytest.approx(r)


@given(
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=1e-10, max_value=0.9),
)
@settings(max_examples=80, deadline=None)
def test_monotone_in_stage_and_iteration(T, k, eps_bar):
    s = spec(eps_bar=eps_bar, eps0=min(1e-12, eps_bar / 2))
    vals_t = [rel_err(t, k, T, s) for t in range(2, T + 1)]
    assert all(a >= b - 1e-15 for a, b in zip(vals_t, vals_t[1:]))
    vals_k = [rel_err(2, kk, T, s) for kk in (k, k + 1, 2 * k + 1)]
    assert all(a >= b - 1e-15 for a, b in zip(vals_k, vals_k[1:]))
    assert rel_err(2, 10**6, T, s) < 1e-6  # vanishes with k


class TestSpecValidation:
    def test_eps_ordering(self):
        with pytest.raises(ScheduleError):
            ScheduleSpec(eps_bar=1e-13, eps0=1e-12)

    def test_eps_bar_below_one(self):
        with pytest.raises(ScheduleError):
            ScheduleSpec(eps_bar=1.0, eps0=1e-12)


class TestBudgets:
    def test_stage_one_always_negligible(self):
        for mode in ScheduleMode:
            s = ScheduleSpec(eps_bar=0.1, eps0=1e-12, mode=mode)
            assert forward_budgets(s, 3, 4)[0] == ErrorBudget(absolute=1e-12)

    def test_constant_bounded(self):
        s = ScheduleSpec(
            mode=ScheduleMode.CONSTANT_BOUNDED,
            constant_delta_bar=0.05,
            constant_eps_bar=0.07,
        )
        assert forward_budgets(s, 9, 3)[1] == ErrorBudget(absolute=0.05)
        assert backward_budget(s, 2, 9, 3) == ErrorBudget(absolute=0.07)

    def test_absolute_mode_uses_forward_estimate(self):
        s = ScheduleSpec(mode=ScheduleMode.ABSOLUTE, eps_bar=0.1, eps0=1e-12)
        b = backward_budget(s, 2, 1, 6, prev_value=-3.2)
        assert b.absolute == pytest.approx(0.32, abs=1e-12)
        assert forward_budgets(s, 1, 6)[1] == ErrorBudget(absolute=1e-12)

    def test_relative_mode_resolves_against_reference(self):
        s = spec()
        b = backward_budget(s, 2, 1, 6)
        assert b.relative == pytest.approx(0.1)
        assert b.resolve(-50.0) == pytest.approx(5.0)
        assert b.resolve(0.2) == pytest.approx(0.1)
