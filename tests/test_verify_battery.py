"""Memory held across the alinhac battery, the grids ``capelast verify``
accepts, and the batteries measuring the twisted derivative the step runs."""

import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

import capelast.cli
import capelast.graphmap
from capelast import ConfigError, verify
from capelast.cli import main
from capelast.graphmap import build_graphmap, grad_phi_stack, make_cutoff
from capelast.grid import make_grid


def test_alinhac_battery_frees_its_histories_before_the_curl_rows(
        monkeypatch):
    # the static history and the three dt-order histories are dead once
    # the curl rows start
    refs, seen = [], []
    curl = verify.curl_commutator_residuals

    def recording(build):
        def wrapper(*args, **kwargs):
            hist = build(*args, **kwargs)
            refs.append((build.__name__, weakref.ref(hist)))
            return hist
        return wrapper

    def checking(calc):
        seen.append([(name, r() is None) for name, r in refs])
        return curl(calc)

    for name in ("static_history", "moving_history"):
        monkeypatch.setattr(verify, name, recording(getattr(verify, name)))
    monkeypatch.setattr(verify, "curl_commutator_residuals", checking)
    assert len(verify.alinhac_battery(16, 16, 9)) == 23
    assert seen == [[("static_history", True)]
                    + [("moving_history", True)] * 3]


def test_alinhac_battery_rejects_a_short_history():
    # the history ring itself refuses fewer than five slices
    with pytest.raises(ConfigError, match="history length must be >= 5"):
        verify.alinhac_battery(16, 16, 9, hist_len=4)


@pytest.mark.parametrize("suite, dims, least", [
    ("operators", (16, 16, 11), "8x6x12"),
    ("operators", (6, 8, 13), "8x6x12"),
    ("operators", (8, 4, 12), "8x6x12"),
    ("lemmas", (16, 16, 13), "16x14x15"),
    ("lemmas", (14, 16, 15), "16x14x15"),
    ("lemmas", (16, 12, 17), "16x14x15"),
    ("alinhac", (8, 8, 17), "16x14x15"),
    ("alinhac", (16, 16, 14), "16x14x15"),
])
def test_verify_rejects_grids_the_battery_cannot_resolve(
        monkeypatch, capsys, suite, dims, least):
    ran = []
    monkeypatch.setattr(capelast.cli, "run_battery",
                        lambda *a, **k: ran.append(a) or [])
    nx, ny, nz = dims
    code = main(["verify", "--suite", suite, "--nx", str(nx),
                 "--ny", str(ny), "--nz", str(nz)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"cannot resolve {nx}x{ny}x{nz}" in err
    assert f"smallest accepted grid {least}" in err
    assert not ran


@pytest.mark.parametrize("suite, dims", [
    ("operators", (8, 6, 12)),
    ("lemmas", (16, 14, 15)),
    ("alinhac", (16, 14, 15)),
])
def test_verify_passes_on_the_smallest_accepted_grid(capsys, suite, dims):
    nx, ny, nz = dims
    code = main(["verify", "--suite", suite, "--nx", str(nx),
                 "--ny", str(ny), "--nz", str(nz)])
    assert code == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("coef, suites", [
    ("a31", ("lemmas", "alinhac")),
    ("a32", ("lemmas", "alinhac")),
    ("inv_d3phi", ("alinhac",)),
])
def test_the_batteries_check_the_twisted_derivative_the_step_runs(
        monkeypatch, coef, suites):
    # a 1e-4 relative error in one coefficient of dphi, the one formula of
    # d_i^phi, moves grad_phi_stack (which every RK stage, the pressure
    # source and the projection run) and fails a row of each battery
    original = capelast.graphmap.dphi

    def perturbed(f, i, gm, *args, **kwargs):
        gm = replace(gm, **{coef: getattr(gm, coef) * (1 + 1e-4)})
        return original(f, i, gm, *args, **kwargs)

    g = make_grid(16, 16, 9, 1.0, dealias=False)
    X1s, X2s = g.mesh_surface()
    psi = 0.1 * np.cos(X1s) + 0.05 * np.sin(X2s)
    gm = build_graphmap(psi, make_cutoff(g), g)
    X1, X2, X3 = g.mesh_volume()
    f = np.cos(X1) * np.sin(X2) * (1 + X3) ** 2
    before = grad_phi_stack(f, gm)

    for name, module in list(sys.modules.items()):
        if name.startswith("capelast") and getattr(module, "dphi",
                                                   None) is original:
            monkeypatch.setattr(module, "dphi", perturbed)
    assert not np.array_equal(grad_phi_stack(f, gm), before)
    for suite in suites:
        nx, ny, nz = verify.LEAST_GRID[suite]
        rows = verify.run_battery(suite, nx=nx, ny=ny, nz=nz)
        assert any(not row.passed for row in rows), suite
