"""Independent reference routes that the tests check the program against."""
import numpy as np

from steepsim.channel import ChannelRealization, SystemConfig
from steepsim.linops import hermitian_eig


def beta_via_eig(cfg: SystemConfig, ch: ChannelRealization) -> float:
    """beta through the eigendecomposition of the probe Gram matrix.

    With G_A^H G_A = Q diag(lam) Q^H, beta = sum_i |(Q^H h_BA^*)_i|^2 / (scale*lam_i + 1).
    Test oracle for steep.beta: an independent route to the same quantity.
    """
    scale = cfg.P_A / (cfg.n_A * cfg.sigma2_EA)
    gram = ch.G_A.conj().T @ ch.G_A
    # symmetrized, so that hermitian_eig's Hermitian check holds exactly
    lam, q = hermitian_eig(0.5 * (gram + gram.conj().T))
    lam = np.maximum(lam, 0.0)
    z = q.conj().T @ ch.h_BA.conj()
    return float(np.sum(np.abs(z) ** 2 / (scale * lam + 1.0)))
