"""Closed-form Student-t tail against 40-digit incomplete-beta arithmetic."""

import mpmath
import pytest

from focusrank.stats import t_two_sided_p

T_VALUES = [0.0, 1e-9, 1e-3, 0.1, 0.5, 1.0, 1.7, 2.5, 4.0, 8.0, 20.0, 100.0, 1e4, 1e8]


def reference_p(t: float, dof: int) -> float:
    """P(|T| >= |t|) = I_x(dof/2, 1/2) at x = dof / (dof + t^2)."""
    with mpmath.workdps(40):
        nu = mpmath.mpf(dof)
        x = nu / (nu + mpmath.mpf(t) ** 2)
        return float(mpmath.betainc(nu / 2, mpmath.mpf(1) / 2, 0, x, regularized=True))


@pytest.mark.parametrize("dof", range(1, 60))
def test_matches_the_incomplete_beta_function(dof):
    for t in T_VALUES:
        assert t_two_sided_p(t, dof) == pytest.approx(reference_p(t, dof), rel=0, abs=1e-14)
        assert t_two_sided_p(-t, dof) == t_two_sided_p(t, dof)
