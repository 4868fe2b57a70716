"""Atom set and the dual SDP of the atomic-norm recovery problem.

An atom A(f, c) = [T_1 a(f), ..., T_J a(f)] diag(c) couples one spatial
frequency to all J subbands through a unit cross-band coefficient vector c.
Measurements are sparse nonnegative combinations of atoms; the recovery
problem minimizes the induced atomic norm, and its Lagrangian dual is a
semidefinite program over a dual matrix H and a Hermitian certificate Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .focusing import FocusingSet
from .model import check_real


def build_atom(f: float, c, focusing: FocusingSet) -> np.ndarray:
    """The M x J matrix A(f, c) = [c_1 T_1 a(f), ..., c_J T_J a(f)]; c, one
    entry per bin, is renormalized to unit l2 norm."""
    c = np.asarray(c, dtype=complex).ravel()
    if c.size != focusing.J:
        raise ValueError(f"coefficient vector needs {focusing.J} entries, got {c.size}")
    nrm = np.linalg.norm(c)
    if nrm < 1e-12:
        raise ValueError("coefficient vector must be nonzero")
    return c / nrm * focusing.columns(f)


@dataclass(frozen=True)
class ConicProblem:
    """The dual SDP of the recovery problem, ready for the solver.

    Inputs are the data matrix Y (M x J), the focusing set and the fidelity
    budget gamma.  Decision variables are H (M x J complex) and the
    Hermitian block S = [[Q, Hbar], [Hbar^H, I_J]] of size M+J.  The affine
    constraints are the M Toeplitz-trace conditions on Q (off-diagonal sums
    vanish, main diagonal sums to 1), the columnwise coupling
    Hbar(:, j) = T_j^H H(:, j), and the fixed identity lower-right block.
    The objective maximizes Re Tr(Y^H H) - sqrt(gamma) * ||H||_F.
    """

    Y: np.ndarray
    focusing: FocusingSet
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "Y", self.focusing.check_data(self.Y))
        check_real("gamma", self.gamma, "nonnegative")

    @property
    def M(self) -> int:
        return self.focusing.M

    @property
    def J(self) -> int:
        return self.focusing.J

    def objective(self, H: np.ndarray) -> float:
        return float(
            np.real(np.trace(self.Y.conj().T @ H))
            - np.sqrt(self.gamma) * np.linalg.norm(H)
        )
