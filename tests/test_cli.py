import configparser
import dataclasses
import inspect
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import capelast
import capelast.cli
import capelast.config
import capelast.evolve
from capelast import ConfigError, verify
from capelast.cli import main
from capelast.config import config_to_text, parse_config_text
from capelast.evolve import RunConfig
from capelast.recipes import (
    RECIPES,
    RandomRecipe,
    ShearRecipe,
    StreamRecipe,
    parse_recipe,
    recipe_to_text,
)
from capelast.sigma_sweep import sweep_sigma
from capelast.state import InitSpec

REST_CONFIG = """\
[grid]
nx = 8
ny = 8
nz = 9
b = 1.0
dealias = true

[surface]
modes = none

[fields]
v = none
f1 = none
f2 = none
f3 = none

[physics]
sigma = 0.5

[time]
t_final = 0.04
dt = 0.01

[solver]
tol = 1e-11

[output]
snapshot_every = 2
kmax = 1
"""


def _write(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_config_roundtrip_idempotent():
    cfg, _ = parse_config_text(REST_CONFIG)
    text1 = config_to_text(cfg)
    cfg2, _ = parse_config_text(text1)
    text2 = config_to_text(cfg2)
    assert text1 == text2
    assert cfg2 == cfg


def test_config_roundtrip_with_recipes():
    cfg = RunConfig(init=InitSpec(
        nx=16, ny=8, nz=9, b=2.0, sigma=0.25,
        psi_modes=((1, 0, 0.01, 0.0), (2, 1, 0.005, 0.3)),
        v_recipe=StreamRecipe(amp=0.3, k=1, profile="sinh"),
        F_recipes=(RandomRecipe(amp=0.05, kmax=2, seed=7), None, None)),
        t_final=0.1, dt=0.02)
    text = config_to_text(cfg)
    cfg2, _ = parse_config_text(text)
    assert cfg2 == cfg
    # every recipe, with no argument at its default, through its own text
    # and through a config
    recipes = {
        "shear": ShearRecipe(comp=3, dep_axis=2, k=2, amp=0.3, phase=0.5,
                             profile="linear"),
        "stream": StreamRecipe(amp=0.2, k=3, phase=0.1, profile="confined",
                               plane="yz"),
        "random": RandomRecipe(amp=0.01, kmax=3, seed=11, profile="one"),
    }
    assert recipes.keys() == RECIPES.keys()
    for name, recipe in recipes.items():
        assert all(getattr(recipe, f.name) != f.default
                   for f in dataclasses.fields(recipe))
        assert recipe_to_text(recipe).startswith(f"{name}: ")
        assert parse_recipe(recipe_to_text(recipe)) == recipe
        cfg = RunConfig(init=InitSpec(nx=8, ny=8, nz=9, b=1.0, sigma=0.1,
                                      v_recipe=recipe,
                                      F_recipes=(None, recipe, None)),
                        t_final=0.1, dt=0.02)
        assert parse_config_text(config_to_text(cfg))[0] == cfg


def test_required_keys_alone_take_the_dataclass_defaults():
    text = ("[grid]\nnx = 8\nny = 6\nnz = 9\nb = 2.0\n\n"
            "[physics]\nsigma = 0.3\n\n[time]\nt_final = 0.1\ndt = 0.02\n")
    cfg, sweep = parse_config_text(text)
    assert cfg == RunConfig(init=InitSpec(nx=8, ny=6, nz=9, b=2.0, sigma=0.3),
                            t_final=0.1, dt=0.02)
    assert sweep == {}
    assert parse_config_text(config_to_text(cfg))[0] == cfg
    for line in text.splitlines():
        if " = " in line:
            with pytest.raises(ConfigError, match="missing"):
                parse_config_text(text.replace(line + "\n", ""))


def test_readme_sample_config_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg, sweep = parse_config_text(text)
    assert cfg.init.psi_modes == ((1, 0, 0.01, 0.0),)
    assert sweep == {"sigmas": [0.1, 0.01, 0.001, 0.0], "rt_c0": 0.0}
    # "a configuration with every key" holds every key and no other
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    keys = {(sec, key) for sec in cp.sections() for key in cp.options(sec)}
    assert keys == {*capelast.config._INIT_KEYS, *capelast.config._RUN_KEYS,
                    *capelast.config._SWEEP_KEYS}


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("dealias = true", "dealais = false", "unknown key [grid] dealais"),
    ("[solver]", "[solvr]", "unknown section [solvr]"),
    ("[output]", "[sweep]\nsigmas = 0.1, x\n\n[output]",
     "bad value for [sweep] sigmas"),
    # out-of-range settings are rejected before anything is written
    ("kmax = 1", "kmax = -1", "kmax must be in 0..4, got -1"),
    ("kmax = 1", "kmax = 5", "kmax must be in 0..4, got 5"),
    ("snapshot_every = 2", "snapshot_every = 0",
     "snapshot_every must be >= 1, got 0"),
    ("dt = 0.01", "dt = 0", "dt must be positive, got 0.0"),
    ("dt = 0.01", "dt = -0.01", "dt must be positive, got -0.01"),
    ("t_final = 0.04", "t_final = -0.04", "t_final must be >= 0, got -0.04"),
    # non-finite and out-of-range numbers never reach the solver
    ("sigma = 0.5", "sigma = -0.1", "sigma must be finite and >= 0, got -0.1"),
    ("sigma = 0.5", "sigma = nan", "sigma must be finite and >= 0, got nan"),
    ("tol = 1e-11", "tol = 0", "solver_tol must be positive, got 0.0"),
    ("tol = 1e-11", "tol = -1e-3", "solver_tol must be positive, got -0.001"),
    ("tol = 1e-11", "tol = nan", "solver_tol must be finite, got nan"),
    ("t_final = 0.04", "t_final = inf", "t_final must be finite, got inf"),
    ("dt = 0.01", "dt = inf", "dt must be finite, got inf"),
    ("b = 1.0", "b = inf", "depth b must be finite, got inf"),
    ("modes = none", "modes = 1 0 nan 0",
     "surface mode (1, 0, nan, 0.0) needs a finite amplitude and phase"),
    ("nx = 8", "nx = 7", "nx must be even and >= 4, got 7"),
    # the sign threshold belongs to the sweep, not to a run
    ("kmax = 1", "kmax = 1\nrt_c0 = 0.1", "unknown key [output] rt_c0"),
    # no run setting picks another cutoff, skips the projection or the CFL
    # check, keeps another history length, or filters the spectrum
    ("modes = none", "modes = none\ndelta0 = 0.1",
     "unknown key [surface] delta0"),
    ("modes = none", "modes = none\nstrict_cutoff = true",
     "unknown key [surface] strict_cutoff"),
    ("f3 = none", "f3 = none\nproject = false",
     "unknown key [fields] project"),
    ("dt = 0.01", "dt = 0.01\ncheck_cfl = false",
     "unknown key [time] check_cfl"),
    ("kmax = 1", "kmax = 1\nhistory_len = 6",
     "unknown key [output] history_len"),
    ("kmax = 1", "kmax = 1\nspectral_filter = false",
     "unknown key [output] spectral_filter"),
    # initial data must vanish where the flat bottom needs them to
    ("v = none", "v = stream: profile=one",
     "initial v3 is 0.1 on the bottom plane; the flat bottom needs v3 = 0"),
    # a '%' is a character of the value, not an interpolation
    ("v = none", "v = stream: amp=5%",
     "bad value for recipe argument 'amp': '5%'"),
    ("dt = 0.01", "dt = 1%", "bad value for [time] dt: '1%'"),
])
def test_unknown_config_entry_exits_2(tmp_path, capsys, old, new, message):
    cfgpath = _write(tmp_path, REST_CONFIG.replace(old, new))
    out = tmp_path / "out"
    code = main(["simulate", "--config", cfgpath, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("recipe, message", [
    ("random: seed=x", "bad value for recipe argument 'seed': 'x'"),
    ("shear: comp=1, dep_axis=2, amp=x",
     "bad value for recipe argument 'amp': 'x'"),
    ("stream: plane=zz", "plane must be xz or yz, got 'zz'"),
    ("shear: comp=0, dep_axis=2", "comp must be 1, 2 or 3, got 0"),
    ("shear: comp=1, dep_axis=3", "dep_axis must be 1 or 2, got 3"),
    ("shear: comp=1, dep_axis=2, profile=foo",
     "unknown vertical profile 'foo'"),
    ("shear: plane=xz", "recipe 'shear' has no argument 'plane'"),
    # NaN passes every later comparison and would reach the solver
    ("stream: amp=nan, k=1, profile=sinh", "amp must be finite, got nan"),
    ("stream: amp=0.1, phase=inf", "phase must be finite, got inf"),
])
def test_malformed_recipe_exits_2(tmp_path, capsys, recipe, message):
    cfgpath = _write(tmp_path, REST_CONFIG.replace("v = none",
                                                   f"v = {recipe}"))
    out = tmp_path / "out"
    code = main(["simulate", "--config", cfgpath, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("old, new, sigmas, message", [
    ("modes = none", "modes = 1 x 1e-3 0", "0.1,0",
     "bad value for [surface] modes"),
    ("", "", "0.1,x", "bad value for --sigmas"),
    # every member is checked before the first one runs
    ("", "", "0.1,nan", "sigma must be finite and >= 0, got nan"),
])
def test_malformed_number_exits_2(tmp_path, capsys, old, new, sigmas,
                                  message):
    cfgpath = _write(tmp_path, REST_CONFIG.replace(old, new))
    out = tmp_path / "out"
    code = main(["sweep-sigma", "--config", cfgpath, "--out", str(out),
                 "--sigmas", sigmas])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep-sigma"])
@pytest.mark.parametrize("flag", ["--nx", "--ny", "--nz", "--dt", "--seed",
                                  "--snapshot-every"])
def test_run_settings_come_from_the_config_alone(tmp_path, capsys, command,
                                                 flag):
    # each of these settings has one owner, its config key
    cfgpath = _write(tmp_path, REST_CONFIG)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfgpath, "--out", str(out), flag, "8"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 8" in capsys.readouterr().err
    assert not out.exists()


def test_package_all_resolves():
    missing = [name for name in capelast.__all__
               if not hasattr(capelast, name)]
    assert not missing
    assert {"RunConfig", "run", "step_rk4", "State", "InitSpec", "History",
            "build_initial_data", "build_graphmap", "flat_graphmap",
            "make_cutoff"} <= set(capelast.__all__)


def test_rest_state_simulation(tmp_path):
    cfgpath = _write(tmp_path, REST_CONFIG)
    out = tmp_path / "out"
    code = main(["simulate", "--config", cfgpath, "--out", str(out)])
    assert code == 0
    lines = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "t"
    E = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(E) == 5
    assert max(E) - min(E) <= 1e-12 * abs(E[0])
    assert (out / "snapshot_0000" / "manifest.json").exists()
    assert (out / "config.echo.ini").exists()


def test_simulation_determinism_bitwise(tmp_path):
    text = REST_CONFIG.replace("v = none",
                               "v = random: amp=0.02, kmax=1, seed=3")
    cfgpath = _write(tmp_path, text)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", cfgpath, "--out",
                     str(out)]) == 0
        outs.append((out / "diagnostics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cfl_abort_exits_1(tmp_path, capsys):
    text = REST_CONFIG.replace("dt = 0.01", "dt = 0.5").replace(
        "t_final = 0.04", "t_final = 1.0").replace(
        "modes = none", "modes = 1 0 0.001 0")
    cfgpath = _write(tmp_path, text)
    code = main(["simulate", "--config", cfgpath,
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "aborted" in capsys.readouterr().err


def test_blow_up_exits_1(tmp_path, capsys, monkeypatch):
    original = capelast.evolve.step_rk4

    def blowing_up(*args, **kwargs):
        new, gm = original(*args, **kwargs)
        new.v[2, 0, 0, 0] = np.nan
        return new, gm

    monkeypatch.setattr(capelast.evolve, "step_rk4", blowing_up)
    cfgpath = _write(tmp_path, REST_CONFIG)
    code = main(["simulate", "--config", cfgpath,
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "NonFiniteStateError: v is not finite at t = 0.01" in err


def test_verify_unknown_suite_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_verify_operators_small(tmp_path, capsys):
    code = main(["verify", "--suite", "operators", "--nx", "16",
                 "--ny", "16", "--nz", "13", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "verify_operators.csv").exists()
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_verify_alinhac_short_history_exits_2(capsys):
    code = main(["verify", "--suite", "alinhac", "--hist", "3",
                 "--nx", "8", "--ny", "8", "--nz", "9"])
    assert code == 2
    assert "history" in capsys.readouterr().err


def test_sweep_sigma_duplicate_list(tmp_path, capsys):
    text = REST_CONFIG.replace("modes = none", "modes = 1 0 0.005 0")
    cfgpath = _write(tmp_path, text)
    out = tmp_path / "sweep"
    code = main(["sweep-sigma", "--config", cfgpath, "--out", str(out),
                 "--sigmas", "0.01,0.01"])
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0].startswith("sigma_i")
    assert float(rows[1].split(",")[2]) == 0.0
    assert (out / "summary.txt").exists()


def test_sweep_sigma_with_limit_run(tmp_path):
    text = REST_CONFIG.replace(
        "modes = none", "modes = 1 0 0.005 0").replace(
        "v = none", "v = stream: amp=0.2, k=1, profile=sinh")
    cfgpath = _write(tmp_path, text)
    out = tmp_path / "sweep"
    code = main(["sweep-sigma", "--config", cfgpath, "--out", str(out),
                 "--sigmas", "0.1,0.01,0"])
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "d(0.1, 0.01) = " in summary and "d(0.1, 0) = " in summary
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 1 + 2


def test_sweep_sigma_from_config_section(tmp_path):
    text = REST_CONFIG.replace(
        "modes = none", "modes = 1 0 0.005 0").replace(
        "v = none", "v = stream: amp=0.2, k=1, profile=sinh")
    text += "\n[sweep]\nsigmas = 0.1, 0.01, 0.001\nrt_c0 = 0.1\n"
    cfgpath = _write(tmp_path, text)
    out = tmp_path / "sweep2"
    code = main(["sweep-sigma", "--config", cfgpath, "--out", str(out)])
    assert code == 0
    # rt_min is 0.0386 for every member: the [sweep] threshold alone
    # withholds a verdict that reads monotone decreasing at rt_c0 = 0
    summary = (out / "summary.txt").read_text()
    assert "min(-d3 q) >= 0.1 -> violated" in summary
    assert "verdict: withheld (sign condition violated)" in summary


@pytest.mark.parametrize("sigmas", [[], [0.1], [0.0]])
def test_sweep_needs_two_members(tmp_path, capsys, sigmas):
    cfg, _ = parse_config_text(REST_CONFIG)
    with pytest.raises(ConfigError, match="at least two"):
        sweep_sigma(cfg, sigmas)
    cfgpath = _write(tmp_path, REST_CONFIG)
    out = tmp_path / "x"
    code = main(["sweep-sigma", "--config", cfgpath, "--out", str(out),
                 "--sigmas", ",".join(str(s) for s in sigmas)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_sigma_without_list_exits_2(tmp_path, capsys):
    cfgpath = _write(tmp_path, REST_CONFIG)
    code = main(["sweep-sigma", "--config", cfgpath,
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "sigma list" in capsys.readouterr().err


def test_run_adjusts_dt_to_land_on_t_final(tmp_path, caplog):
    # t_final = 0.047 with dt = 0.01 rounds to 5 steps of dt = 0.0094: the
    # step only shrinks, so it stays CFL-safe
    caplog.set_level(logging.INFO, logger="capelast.evolve")
    text = REST_CONFIG.replace("t_final = 0.04", "t_final = 0.047")
    cfgpath = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfgpath, "--out", str(out)]) == 0
    assert "adjusted dt from 0.01 to 0.0094 to land on t_final" in caplog.text
    lines = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert len(lines) == 7    # the header, t = 0 and five steps
    assert abs(float(lines[-1].split(",")[0]) - 0.047) <= 1e-12


def test_run_shorter_than_half_a_step_takes_one_step(tmp_path, capsys):
    # t_final / dt = 0.4 rounds to no step; one step of dt = t_final is
    # taken instead, since a shorter step is CFL-safe
    text = REST_CONFIG.replace("t_final = 0.04", "t_final = 0.004")
    cfgpath = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfgpath, "--out", str(out)]) == 0
    lines = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert len(lines) == 3    # the header, t = 0 and t = t_final
    assert abs(float(lines[-1].split(",")[0]) - 0.004) <= 1e-15
    assert "completed t = 0.004 with 1 steps" in capsys.readouterr().out


@pytest.mark.parametrize("args, message", [
    (["--suite", "operators", "--nx", "7"], "nx must be even and >= 4, got 7"),
    (["--suite", "lemmas", "--ny", "2"], "ny must be even and >= 4, got 2"),
    (["--suite", "alinhac", "--nz", "4"], "nz must be >= 5, got 4"),
    (["--suite", "elliptic", "--nx", "7"],
     "--nx does not apply to the elliptic suite"),
    (["--suite", "elliptic", "--nz", "17"],
     "--nz does not apply to the elliptic suite"),
    (["--suite", "elliptic", "--hist", "6"],
     "--hist does not apply to the elliptic suite"),
    (["--suite", "operators", "--hist", "6"],
     "--hist does not apply to the operators suite"),
])
def test_verify_rejects_bad_options_before_running(monkeypatch, capsys,
                                                   args, message):
    ran = []
    monkeypatch.setattr(capelast.cli, "run_battery",
                        lambda *a, **k: ran.append(a) or [])
    code = main(["verify"] + args)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not ran


# the options of ``verify`` besides --suite and --out, by the battery
# parameter each sets
VERIFY_OPTIONS = {"nx": "--nx", "ny": "--ny", "nz": "--nz",
                  "hist_len": "--hist"}


def test_verify_offers_one_option_per_battery_parameter(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    offered = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert offered == {"--help", "--suite", "--out", *VERIFY_OPTIONS.values()}
    assert VERIFY_OPTIONS.keys() == {
        name for battery in verify.BATTERIES.values()
        for name in inspect.signature(battery).parameters}


@pytest.mark.parametrize("suite", list(verify.BATTERIES))
def test_verify_options_are_the_battery_parameters(monkeypatch, capsys,
                                                   suite):
    calls = []
    monkeypatch.setattr(capelast.cli, "run_battery",
                        lambda name, **kwargs: calls.append(kwargs) or [])
    params = inspect.signature(verify.BATTERIES[suite]).parameters
    defaults = {name: p.default for name, p in params.items()}
    # a grid-taking suite cannot skip the check for a grid too coarse
    assert ("nx" in params) == (suite in verify.LEAST_GRID)
    # no option given: the battery's own defaults are checked and passed
    assert main(["verify", "--suite", suite]) == 0
    assert calls.pop() == defaults
    for name, flag in VERIFY_OPTIONS.items():
        code = main(["verify", "--suite", suite, flag,
                     str(defaults.get(name, 32) + 2)])
        if name in params:
            assert code == 0
            assert calls.pop() == {**defaults, name: defaults[name] + 2}
        else:
            assert code == 2
            assert (f"{flag} does not apply to the {suite} suite"
                    in capsys.readouterr().err)
    assert not calls


def test_python_dash_m_capelast_help():
    src = os.path.dirname(os.path.dirname(capelast.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "capelast", "--help"],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage: capelast" in proc.stdout
