"""Independent reference routes that the tests check the program against."""
import numpy as np

from steepsim.channel import ChannelRealization, SystemConfig
from steepsim.linops import hermitian_eig
from steepsim.steep import _gram


def beta_via_eig(cfg: SystemConfig, ch: ChannelRealization) -> float:
    """beta through the eigendecomposition of the probe Gram matrix.

    With G_A^H G_A = Q diag(lam) Q^H, beta = sum_i |(Q^H h_BA^*)_i|^2 / (scale*lam_i + 1).
    Test oracle for steep.beta: an independent route to the same quantity.
    """
    scale = cfg.P_A / (cfg.n_A * cfg.sigma2_EA)
    eig = hermitian_eig(_gram(ch.G_A))
    lam = np.maximum(eig.eigenvalues, 0.0)
    z = eig.eigenvectors.conj().T @ ch.h_BA.conj()
    return float(np.sum(np.abs(z) ** 2 / (scale * lam + 1.0)))
