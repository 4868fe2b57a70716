"""Gridless coherent wideband DOA estimation on uniform linear arrays."""

from .model import (
    ArrayConfig,
    SubbandData,
    WidebandScene,
    f_to_theta,
    steering_vector,
    subband_transform,
    synthesize_scene,
    theta_to_f,
)
from .focusing import FocusingSet, focusing_error, focusing_matrix
from .atoms import ConicProblem, DualPolynomial, build_atom
from .solver import (
    ConicSolution,
    SolverConfig,
    affine_project,
    psd_project,
    solve,
)
from .recovery import (
    DoaEstimate,
    RecoveryConfig,
    estimate_doa,
    locate_frequencies,
    merge_atoms,
    recover_amplitudes,
)
from .baselines import music_spectrum, perturb_initial, rss_estimate
from .bench import ExperimentConfig, ResultTable, rmse

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
