"""Exact probabilities of ensemble events, which need no simulation.

Each baseline direction compares two independent squared norms: a
Gamma(n_A) one against a Gamma(n_E) one, scaled by noise variances. So
P(X <= r*Y) = I_x(n_A, n_E) with x = r/(1 + r), the regularized incomplete
beta function, for any transmit power.
"""
import mpmath

from steepsim.channel import SystemConfig


def _betainc(x: float, n_A: int, n_E: int) -> float:
    return float(mpmath.betainc(n_A, n_E, 0, x, regularized=True))


def c1_outage(cfg: SystemConfig) -> float:
    """P(c1 <= 0): sigma2_EA*||h_BA||^2 <= sigma2_B*||g_A||^2.

    g_A is G_A times a unit vector independent of it, so ||g_A||^2 is
    Gamma(n_E) and independent of ||h_BA||^2.
    """
    return _betainc(cfg.sigma2_B / (cfg.sigma2_B + cfg.sigma2_EA), cfg.n_A, cfg.n_E)


def c2_outage(cfg: SystemConfig) -> float:
    """P(c2 <= 0): sigma2_EB*||h_AB||^2 <= sigma2_A*||g_B||^2.

    h_AB = gamma*h_BA + (1 - gamma)*w is CN(0, v*I), v = gamma^2 + (1 - gamma)^2.
    """
    v = cfg.gamma**2 + (1.0 - cfg.gamma) ** 2
    return _betainc(cfg.sigma2_A / (cfg.sigma2_A + v * cfg.sigma2_EB), cfg.n_A, cfg.n_E)
