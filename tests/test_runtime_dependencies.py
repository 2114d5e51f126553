import json
import os
import subprocess
import sys
from pathlib import Path

import capelast

# Imports every entry point, then runs one pressure solve that needs Krylov
# iterations, and prints the scipy modules that were loaded on the way.
SCRIPT = """
import json, sys
import capelast, capelast.cli, capelast.verify, capelast.sigma_sweep
import numpy as np
from capelast import elliptic, make_grid
from capelast.graphmap import build_graphmap, make_cutoff

calls = []
gmres = elliptic.gmres
elliptic.gmres = lambda *args: calls.append(1) or gmres(*args)
g = make_grid(16, 16, 9, 1.0)
X1, X2, X3 = g.mesh_volume()
psi = 0.05 * np.cos(X1[:, :, 0] + X2[:, :, 0])
cut = make_cutoff(g)
gm = build_graphmap(psi, cut, g)
elliptic.solve_poisson_phi(np.cos(X1) * np.sin(X2) * (1 + X3),
                           0.1 * np.cos(X2[:, :, 0]),
                           0.2 * np.sin(X1[:, :, 0]), gm, tol=1e-11)
print(json.dumps({"gmres_calls": len(calls), "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_package_runs_without_scipy():
    src = str(Path(capelast.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    found = json.loads(out.stdout.strip().splitlines()[-1])
    assert found["gmres_calls"] == 1
    assert found["scipy"] == []
