"""A checked record has one route in, its constructor: assigning a field
afterwards raises, so no value skips the check it was made with."""

from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from wbdoa.bench import ExperimentConfig, ResultTable
from wbdoa.model import SubbandData
from wbdoa.recovery import RecoveryConfig
from wbdoa.solver import SolverConfig

RECORDS = {
    "SolverConfig": SolverConfig,
    "RecoveryConfig": RecoveryConfig,
    "ExperimentConfig": lambda: ExperimentConfig(scenario="rmse_vs_snr", workers=1),
    "SubbandData": lambda: SubbandData(Y=np.ones((2, 3)), omegas=[3.0, 2.0, 1.0]),
    "ResultTable": ResultTable,
}
FIELDS = [(name, f.name) for name, make in RECORDS.items() for f in fields(make())]


@pytest.mark.parametrize("record, name", FIELDS, ids=[".".join(f) for f in FIELDS])
def test_field_cannot_be_assigned(record, name):
    # e.g. max_iter = 0 once reached solve (UnboundLocalError) and omegas in
    # increasing order got past the strictly-decreasing rule
    obj = RECORDS[record]()
    before = getattr(obj, name)
    with pytest.raises(FrozenInstanceError):
        setattr(obj, name, 0)
    assert getattr(obj, name) is before


@pytest.mark.parametrize("solver", [5, "default", {"max_iter": 10}], ids=["int", "str", "dict"])
def test_recovery_config_takes_only_a_solver_config(solver):
    # RecoveryConfig(solver=5) once passed, and estimate_doa died on an AttributeError
    with pytest.raises(ValueError, match="^solver must be None or a SolverConfig"):
        RecoveryConfig(solver=solver)
