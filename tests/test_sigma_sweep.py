import pytest

from capelast import ConfigError
from capelast.evolve import RunConfig
from capelast.recipes import StreamRecipe
from capelast.sigma_sweep import run_distance, sweep_sigma
from capelast.state import InitSpec


def small_config(sigma=0.01, amp=0.15):
    return RunConfig(
        init=InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=sigma,
                      psi_modes=((1, 0, 5e-3, 0.0),),
                      v_recipe=StreamRecipe(amp=amp, k=1, profile="sinh")),
        t_final=0.06, dt=0.01, snapshot_every=3, solver_tol=1e-11)


def test_duplicate_sigma_gives_zero_distance():
    rep = sweep_sigma(small_config(), [1e-2, 1e-2])
    assert rep.pair_distances[0][2] == 0.0
    assert rep.verdict.startswith("trivial")


def test_rest_data_all_zero():
    cfg = RunConfig(init=InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=0.1),
                    t_final=0.04, dt=0.01, snapshot_every=2)
    rep = sweep_sigma(cfg, [1e-1, 1e-2, 1e-3])
    assert all(d == 0.0 for (_, _, d) in rep.pair_distances)


@pytest.mark.parametrize("sigmas, verdict", [
    ([1e-1, 0.0], "trivial (fewer than two distances)"),
    ([1e-1, 1e-2], "trivial (fewer than two distances)"),
    ([5e-1, 1e-1, 0.0], "not monotone"),
])
def test_verdict_compares_two_distances(sigmas, verdict):
    # rest data: every distance is 0, so one distance shows no decrease
    cfg = RunConfig(init=InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=0.1),
                    t_final=0.04, dt=0.01, snapshot_every=2)
    assert sweep_sigma(cfg, sigmas).verdict == verdict


def test_sigma_list_validation():
    with pytest.raises(ConfigError):
        sweep_sigma(small_config(), [1e-3, 1e-2])
    with pytest.raises(ConfigError,
                       match="sigma must be finite and >= 0, got -0.001"):
        sweep_sigma(small_config(), [1e-2, -1e-3])


def test_sweep_determinism_bitwise():
    rep1 = sweep_sigma(small_config(), [1e-2, 1e-3])
    rep2 = sweep_sigma(small_config(), [1e-2, 1e-3])
    assert rep1.pair_distances == rep2.pair_distances


def test_rt_violation_withholds_verdict():
    # elastic tension drives the surface pressure gradient the unstable way
    cfg = RunConfig(
        init=InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=0.01,
                      psi_modes=((1, 0, 5e-3, 0.0),),
                      F_recipes=(StreamRecipe(amp=0.4, k=1,
                                              profile="confined"),
                                 None, None)),
        t_final=0.04, dt=0.01, snapshot_every=2, solver_tol=1e-11)
    rep = sweep_sigma(cfg, [1e-2, 1e-3], rt_c0=0.05)
    assert not rep.rt_ok
    assert "withheld" in rep.verdict


def test_zero_member_limit_distances():
    cfg = small_config(amp=0.2)
    rep = sweep_sigma(cfg, [1e-1, 1e-2, 1e-3, 0.0], rt_c0=0.0)
    ds = [d for (_, d) in rep.limit_distances]
    assert len(ds) == 3
    assert ds[0] > ds[1] > ds[2] > 0.0
    assert rep.verdict == "monotone decreasing"
    # the zero run against itself has zero distance
    zero = rep.members[-1].result
    assert run_distance(zero, zero) == 0.0

    rows = rep.csv_rows()
    assert rows[0].startswith("sigma_i,sigma_j")
    assert len(rows) == 1 + 2 + 3
    assert "monotone decreasing" in rep.summary()


def test_zero_member_is_gated():
    # the sigma = 0 member alone dips below c0 (rt_min 0.2062, 0.2010 and
    # 0.1997 for sigma = 0.5, 0.1 and 0)
    cfg = RunConfig(
        init=InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=0.5,
                      psi_modes=((1, 0, 1e-2, 0.0),),
                      v_recipe=StreamRecipe(amp=0.4, k=1, profile="sinh"),
                      F_recipes=(StreamRecipe(amp=0.1, k=1,
                                              profile="confined"),
                                 None, None)),
        t_final=0.09, dt=0.015, snapshot_every=3, solver_tol=1e-11)
    rep = sweep_sigma(cfg, [0.5, 0.1, 0.0], rt_c0=0.2)
    assert [m.rt_min >= 0.2 for m in rep.members] == [True, True, False]
    assert [s for (s, _) in rep.limit_distances] == [0.5, 0.1]
    assert not rep.rt_ok
    assert "withheld" in rep.verdict
