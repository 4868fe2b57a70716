"""The installed runtime needs numpy only: scipy is a test dependency, and
import wbdoa loads no process-pool machinery."""

import os
import subprocess
import sys

import wbdoa

# imports the package and the CLI, then runs the two calls that used scipy
# (NNLS inside estimate_doa, the matching inside bench.rmse), so a lazy
# import inside a function is caught too
CHILD = """
import sys
import numpy as np
import wbdoa
import wbdoa.cli
from wbdoa.bench import rmse
from wbdoa.focusing import FocusingSet, gamma_oracle
from wbdoa.model import ArrayConfig, WidebandScene, synthesize_scene

cfg = ArrayConfig(M=8, c=1500.0, omega1=2 * np.pi * 1000)
alphas = np.array([1.0, 0.95, 0.9, 0.85])
focusing = FocusingSet.build(alphas, cfg.M)
spectra = np.random.default_rng(0).standard_normal((2, 4)) + 0j
scene = WidebandScene(angles_deg=(-20.0, 25.0), source_spectra=spectra)
data = synthesize_scene(cfg, scene, focusing)
est = wbdoa.estimate_doa(data, gamma_oracle(data.Y, cfg, scene, focusing), focusing)
assert est.Khat >= 1 and est.betas.size >= 1
rmse([list(est.thetas[:2]), [-19.0, 24.0]], [-20.0, 25.0])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(loaded)
assert not loaded, loaded
# a process pool is built only for workers > 1, so nothing above loads one
assert "concurrent.futures" not in sys.modules
"""


def test_runtime_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(wbdoa.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
