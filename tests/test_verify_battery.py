"""Memory held across the alinhac battery, and the grids ``capelast verify``
accepts."""

import weakref

import pytest

import capelast.cli
from capelast import ConfigError, verify
from capelast.cli import main


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
