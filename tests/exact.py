"""Exact probabilities of ensemble events, which need no simulation.

Each baseline direction compares two independent squared norms: a
Gamma(n_A) one against a Gamma(n_E) one, scaled by noise variances. So
P(X <= r*Y) = I_x(n_A, n_E) with x = r/(1 + r), the regularized incomplete
beta function, for any transmit power. Given h_BA the two directions are
independent, which gives "both" as a double series over x = ||h_BA||^2 and
"either" from it.
"""
import itertools

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


def both_outage(cfg: SystemConfig) -> float:
    """P(c1 <= 0 and c2 <= 0), the event c_conv = 0, for gamma < 1.

    Given x = ||h_BA||^2 the directions are independent:
    P(c1 <= 0 | x) = Q(n_E, a*x), the regularized upper gamma function with
    a = sigma2_EA/sigma2_B; and h_AB is CN(gamma*h_BA, (1 - gamma)^2*I), so
    ||h_AB||^2/(1 - gamma)^2 is Gamma(n_A + j) with j ~ Poisson(kappa*x),
    kappa = gamma^2/(1 - gamma)^2, and
    P(c2 <= 0 | x) = sum_j Pois(j; kappa*x)*I_z(n_A + j, n_E) with
    z = c/(c + (1 - gamma)^2), c = sigma2_A/sigma2_EB. Integrating over
    x ~ Gamma(n_A) term by term gives
    sum_j sum_{k<n_E} I_z(n_A + j, n_E) * w_jk with
    w_jk = Gamma(n_A + j + k)/(Gamma(n_A)*j!*k!) * kappa^j*a^k/(1 + kappa + a)^(n_A + j + k).
    The w_jk sum to P(c1 <= 0) and I_z <= 1, so once the weights summed so
    far are within 1e-15 of P(c1 <= 0), so is the truncated series of P(both).
    """
    if cfg.gamma >= 1.0:
        raise ValueError(f"the series needs gamma < 1, got {cfg.gamma}")
    n_A, n_E = cfg.n_A, cfg.n_E
    with mpmath.workdps(30):
        # 30 digits keep the rounding of the sums far below the 1e-15 bound
        one_minus_g2 = (1 - mpmath.mpf(cfg.gamma)) ** 2
        a = mpmath.mpf(cfg.sigma2_EA) / cfg.sigma2_B
        kappa = mpmath.mpf(cfg.gamma) ** 2 / one_minus_g2
        c = mpmath.mpf(cfg.sigma2_A) / cfg.sigma2_EB
        z = c / (c + one_minus_g2)
        s = 1 + kappa + a
        mass_c1 = mpmath.betainc(n_A, n_E, 0, 1 / (1 + a), regularized=True)
        total = weights = mpmath.mpf(0)
        for j in itertools.count():
            w_j = sum(
                mpmath.gammaprod([n_A + j + k], [n_A, j + 1, k + 1])
                * kappa**j * a**k / s ** (n_A + j + k)
                for k in range(n_E)
            )
            total += mpmath.betainc(n_A + j, n_E, 0, z, regularized=True) * w_j
            weights += w_j
            if mass_c1 - weights <= 1e-15:
                return float(total)


def either_outage(cfg: SystemConfig) -> float:
    """P(c1 <= 0 or c2 <= 0), by inclusion-exclusion."""
    return c1_outage(cfg) + c2_outage(cfg) - both_outage(cfg)
