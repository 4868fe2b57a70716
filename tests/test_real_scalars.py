"""Every public real-valued scalar input follows one rule, model.check_real:
an int or float, not a bool, finite, and of the field's sign where it has
one.  Anything else is a ValueError naming the field."""

import re

import numpy as np
import pytest

from wbdoa.atoms import ConicProblem
from wbdoa.baselines import perturb_initial
from wbdoa.bench import ExperimentConfig, random_scene
from wbdoa.focusing import FocusingSet, gamma_blind
from wbdoa.model import ArrayConfig, WidebandScene
from wbdoa.recovery import merge_atoms
from wbdoa.solver import SolverConfig

FOCUSING = FocusingSet.build([1.0, 0.9, 0.8], 4)
Y = np.ones((4, 3), dtype=complex)

# field: (sign, name in the message, whether None means a default, call)
SCALARS = {
    "ArrayConfig.c": ("positive", "c (propagation speed)", False,
                      lambda v: ArrayConfig(M=4, c=v, omega1=1.0)),
    "ArrayConfig.omega1": ("positive", "omega1 (reference frequency)", False,
                           lambda v: ArrayConfig(M=4, c=1.0, omega1=v)),
    "WidebandScene.noise_variance": ("nonnegative", "noise_variance", False,
                                     lambda v: WidebandScene((10.0,), np.ones((1, 3)), v)),
    "ConicProblem.gamma": ("nonnegative", "gamma", False,
                           lambda v: ConicProblem(Y=Y, focusing=FOCUSING, gamma=v)),
    "SolverConfig.eps_abs": ("positive", "eps_abs", False, lambda v: SolverConfig(eps_abs=v)),
    "SolverConfig.eps_rel": ("positive", "eps_rel", False, lambda v: SolverConfig(eps_rel=v)),
    "merge_atoms.radius": ("nonnegative", "radius", False,
                           lambda v: merge_atoms([0.1, 0.2], [1.0, 2.0], [None, None], v)),
    "gamma_blind.sigma2": ("nonnegative", "sigma2 (noise variance)", False,
                           lambda v: gamma_blind(Y, v, FOCUSING)),
    "perturb_initial.max_err_deg": ("nonnegative", "max_err_deg", False,
                                    lambda v: perturb_initial((0.0,), v, 0)),
    "random_scene.snr_db": (None, "snr_db", True,
                            lambda v: random_scene((10.0,), FOCUSING, v, 0)),
    **{f"ExperimentConfig.{field}": (sign, name, False,
                                     lambda v, field=field: ExperimentConfig("resolution",
                                                                             **{field: v}))
       for field, sign, name in (
           ("c", "positive", "c (propagation speed)"),
           ("omega1", "positive", "omega1 (reference frequency)"))},
}
NOT_FINITE_REALS = [True, None, "1", float("nan"), float("inf"), float("-inf")]
OF_ANOTHER_SIGN = {None: [], "nonnegative": [-1.0], "positive": [-1.0, 0]}

CASES = [(field, value) for field, (sign, _, none_ok, _) in SCALARS.items()
         for value in NOT_FINITE_REALS + OF_ANOTHER_SIGN[sign]
         if not (value is None and none_ok)]


@pytest.mark.parametrize("field, value", CASES, ids=[f"{f}={v!r}" for f, v in CASES])
def test_bad_real_scalar_is_refused(field, value):
    _, name, _, call = SCALARS[field]
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite")):
        call(value)
