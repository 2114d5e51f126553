"""Flat key-value run configuration with sections.

Sections: grid, surface, fields, physics, time, solver, output, and an
optional sweep.  A section or key the parser does not read is rejected, so
a misspelling cannot silently fall back to a default.  An omitted key
takes the default of the ``InitSpec`` or ``RunConfig`` field it sets, and
an omitted ``[sweep] rt_c0`` that of ``sweep_sigma``; only the grid size,
``b``, ``sigma``, ``t_final`` and ``dt`` are required.  Parsing then
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


def _modes_text(modes: tuple) -> str:
    """The inverse of ``_surface_modes``."""
    return "; ".join(f"{int(kx)} {int(ky)} {_fmt(float(amp))} "
                     f"{_fmt(float(ph))}"
                     for kx, ky, amp, ph in modes) or "none"


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
    except ConfigError:     # a recipe names its own bad argument
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {what}: {raw!r}") from exc


# (section, key) -> (field, cast), in file order: the InitSpec fields, with
# f1..f3 filling F_recipes, then the RunConfig fields
_INIT_KEYS = {
    ("grid", "nx"): ("nx", int),
    ("grid", "ny"): ("ny", int),
    ("grid", "nz"): ("nz", int),
    ("grid", "b"): ("b", float),
    ("grid", "dealias"): ("dealias", bool),
    ("surface", "modes"): ("psi_modes", _surface_modes),
    ("fields", "v"): ("v_recipe", parse_recipe),
    ("fields", "f1"): ("f1", parse_recipe),
    ("fields", "f2"): ("f2", parse_recipe),
    ("fields", "f3"): ("f3", parse_recipe),
    ("physics", "sigma"): ("sigma", float),
}
_RUN_KEYS = {
    ("time", "t_final"): ("t_final", float),
    ("time", "dt"): ("dt", float),
    ("solver", "tol"): ("solver_tol", float),
    ("output", "snapshot_every"): ("snapshot_every", int),
    ("output", "kmax"): ("kmax", int),
}
_SWEEP_KEYS = {
    ("sweep", "sigmas"): ("sigmas", float_list),
    ("sweep", "rt_c0"): ("rt_c0", float),
}
_REQUIRED = {("grid", "nx"), ("grid", "ny"), ("grid", "nz"), ("grid", "b"),
             ("physics", "sigma"), ("time", "t_final"), ("time", "dt")}
# how a value is written back when ``_fmt`` does not invert its cast
_TEXT = {_surface_modes: _modes_text, parse_recipe: recipe_to_text}


def config_to_text(cfg: RunConfig) -> str:
    """Every key of ``cfg`` in file order; there is no sweep section."""
    values = {**vars(cfg.init), **vars(cfg)}
    values.update((f"f{j}", r) for j, r in enumerate(cfg.init.F_recipes, 1))
    cp = configparser.ConfigParser(interpolation=None)
    for (section, key), (name, cast) in {**_INIT_KEYS, **_RUN_KEYS}.items():
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, _TEXT.get(cast, _fmt)(values[name]))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_config_text(text: str):
    """Returns (RunConfig, sweep_options dict).

    The sweep options hold ``sigmas`` and ``rt_c0`` when the file gives
    them, keyed by the names ``sweep_sigma`` takes."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    read = set()

    def given(keys) -> dict:
        """The fields of ``keys`` whose keys the file holds, parsed."""
        kwargs = {}
        for (section, key), (name, cast) in keys.items():
            read.add((section, key))
            if cp.has_option(section, key):
                kwargs[name] = parse_value(cp.get(section, key), cast,
                                           f"[{section}] {key}")
            elif (section, key) in _REQUIRED:
                raise ConfigError(f"missing [{section}] {key}")
        return kwargs

    init_kw = given(_INIT_KEYS)
    init_kw["F_recipes"] = tuple(
        init_kw.pop(f"f{j}", default)
        for j, default in enumerate(InitSpec.F_recipes, start=1))
    cfg = RunConfig(init=InitSpec(**init_kw), **given(_RUN_KEYS))
    sweep = given(_SWEEP_KEYS)

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
