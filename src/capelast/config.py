"""Flat key-value run configuration with sections.

Sections: grid, surface, fields, physics, time, solver, output, and an
optional sweep.  A section or key the parser does not read is rejected, so
a misspelling cannot silently fall back to a default.  Parsing then
re-serializing a configuration reproduces it verbatim, which keeps configs
diff-friendly.
"""

from __future__ import annotations

import configparser
import io
import os

from .errors import ConfigError
from .evolve import RunConfig
from .recipes import parse_recipe, recipe_to_text
from .state import InitSpec


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def config_to_text(cfg: RunConfig, sweep: dict | None = None) -> str:
    init = cfg.init
    cp = configparser.ConfigParser()
    cp["grid"] = {
        "nx": _fmt(init.nx), "ny": _fmt(init.ny), "nz": _fmt(init.nz),
        "b": _fmt(init.b), "dealias": _fmt(init.dealias),
    }
    modes = "; ".join(f"{int(kx)} {int(ky)} {_fmt(float(amp))} "
                      f"{_fmt(float(ph))}"
                      for kx, ky, amp, ph in init.psi_modes)
    cp["surface"] = {
        "modes": modes if modes else "none",
        "delta0": "auto" if init.delta0 is None else _fmt(init.delta0),
        "strict_cutoff": _fmt(init.strict_cutoff),
    }
    cp["fields"] = {
        "v": recipe_to_text(init.v_recipe),
        "f1": recipe_to_text(init.F_recipes[0]),
        "f2": recipe_to_text(init.F_recipes[1]),
        "f3": recipe_to_text(init.F_recipes[2]),
        "project": _fmt(init.project),
    }
    cp["physics"] = {"sigma": _fmt(init.sigma)}
    cp["time"] = {
        "t_final": _fmt(cfg.t_final), "dt": _fmt(cfg.dt),
        "check_cfl": _fmt(cfg.check_cfl),
    }
    cp["solver"] = {"tol": _fmt(cfg.solver_tol)}
    cp["output"] = {
        "snapshot_every": _fmt(cfg.snapshot_every),
        "kmax": _fmt(cfg.kmax),
        "history_len": _fmt(cfg.history_len),
        "spectral_filter": _fmt(cfg.spectral_filter),
        "rt_c0": _fmt(cfg.rt_c0),
    }
    if sweep:
        cp["sweep"] = {k: _fmt(v) if not isinstance(v, (list, tuple))
                       else ", ".join(_fmt(s) for s in v)
                       for k, v in sweep.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def float_list(raw: str) -> list[float]:
    """Comma-separated floats, such as a sigma list."""
    return [float(s) for s in raw.split(",")]


def _surface_modes(raw: str) -> tuple:
    """``kx ky amp phase`` entries separated by ``;``, or ``none``."""
    if raw.lower() in ("", "none"):
        return ()
    modes = []
    for chunk in raw.split(";"):
        parts = chunk.split()
        if len(parts) != 4:
            raise ValueError(f"bad surface mode entry {chunk!r}")
        modes.append((int(parts[0]), int(parts[1]),
                      float(parts[2]), float(parts[3])))
    return tuple(modes)


def _auto_or_float(raw: str) -> float | None:
    return None if raw == "auto" else float(raw)


def parse_value(raw: str, cast, what: str):
    """``cast(raw)``; a malformed value raises ConfigError naming ``what``."""
    raw = raw.strip()
    if cast is bool:
        if raw.lower() in ("true", "yes", "on", "1"):
            return True
        if raw.lower() in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"bad boolean for {what}: {raw!r}")
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {what}: {raw!r}") from exc


_REQUIRED = object()


def parse_config_text(text: str):
    """Returns (RunConfig, sweep_options dict)."""
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    read = set()

    def get(section, key, cast, default=_REQUIRED):
        read.add((section, key))
        if not cp.has_option(section, key):
            if default is _REQUIRED:
                raise ConfigError(f"missing [{section}] {key}")
            return default
        return parse_value(cp.get(section, key), cast, f"[{section}] {key}")

    init = InitSpec(
        nx=get("grid", "nx", int),
        ny=get("grid", "ny", int),
        nz=get("grid", "nz", int),
        b=get("grid", "b", float),
        dealias=get("grid", "dealias", bool, True),
        psi_modes=get("surface", "modes", _surface_modes, ()),
        delta0=get("surface", "delta0", _auto_or_float, None),
        strict_cutoff=get("surface", "strict_cutoff", bool, False),
        v_recipe=parse_recipe(get("fields", "v", str, "none")),
        F_recipes=(parse_recipe(get("fields", "f1", str, "none")),
                   parse_recipe(get("fields", "f2", str, "none")),
                   parse_recipe(get("fields", "f3", str, "none"))),
        project=get("fields", "project", bool, True),
        sigma=get("physics", "sigma", float),
    )
    cfg = RunConfig(
        init=init,
        t_final=get("time", "t_final", float),
        dt=get("time", "dt", float),
        check_cfl=get("time", "check_cfl", bool, True),
        solver_tol=get("solver", "tol", float, 1e-11),
        snapshot_every=get("output", "snapshot_every", int, 10),
        kmax=get("output", "kmax", int, 1),
        history_len=get("output", "history_len", int, 5),
        spectral_filter=get("output", "spectral_filter", bool, False),
        rt_c0=get("output", "rt_c0", float, 0.0),
    )
    sweep = {}
    for key, cast in (("sigmas", float_list), ("rt_c0", float)):
        read.add(("sweep", key))
        if cp.has_option("sweep", key):
            sweep[key] = get("sweep", key, cast)

    sections = {sec for sec, _ in read}
    for sec in cp.sections():
        if sec not in sections:
            raise ConfigError(f"unknown section [{sec}]; expected one of "
                              f"{', '.join(sorted(sections))}")
        for key in cp.options(sec):
            if (sec, key) not in read:
                raise ConfigError(f"unknown key [{sec}] {key}")
    return cfg, sweep


def load_config(path: str):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        return parse_config_text(fh.read())
