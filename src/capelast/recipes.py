"""Initial-field recipes.

A recipe builds one vector field on the grid.  The ``stream`` recipe uses
the twisted derivatives of a scalar potential that is constant on the
confining boundaries, which makes the result divergence-free and tangential
up to operator-commutator error; the projection in the initializer removes
the rest.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graphmap import GraphMap, dphi
from .grid import Grid


# vertical profiles mu(x3) on [-b, 0], by name
_PROFILES = {
    "one": lambda x3, b: np.ones_like(x3),
    "linear": lambda x3, b: (x3 + b) / b,
    "sinh": lambda x3, b: np.sinh(x3 + b) / np.sinh(b),
    # vanishes at both planes, peak 1 mid-depth
    "confined": lambda x3, b: -4.0 * x3 * (x3 + b) / (b * b),
}


def _zprofile(name: str, grid: Grid) -> np.ndarray:
    return _PROFILES[name](grid.x3, grid.b)


def _require(ok: bool, recipe, what: str):
    """Reject a recipe argument outside its domain with a ConfigError."""
    if not ok:
        raise ConfigError(f"bad {type(recipe).__name__} argument: {what}")


@dataclass
class ShearRecipe:
    """component ``comp`` = amp * cos(k * x_dep + phase) * profile(x3)."""

    comp: int            # 1..3
    dep_axis: int        # 1 or 2
    k: int = 1
    amp: float = 0.1
    phase: float = 0.0
    profile: str = "one"

    def __post_init__(self):
        _require(self.comp in (1, 2, 3), self,
                 f"comp must be 1, 2 or 3, got {self.comp!r}")
        _require(self.dep_axis in (1, 2), self,
                 f"dep_axis must be 1 or 2, got {self.dep_axis!r}")
        _require(self.profile in _PROFILES, self,
                 f"unknown vertical profile {self.profile!r}")

    def build(self, grid: Grid, gm: GraphMap) -> np.ndarray:
        X1, X2, _ = grid.mesh_volume()
        Xd = X1 if self.dep_axis == 1 else X2
        out = np.zeros((3, grid.nx, grid.ny, grid.nz))
        out[self.comp - 1] = (self.amp * np.cos(self.k * Xd + self.phase)
                              * _zprofile(self.profile, grid)[None, None, :])
        return out


@dataclass
class StreamRecipe:
    """(d3^phi theta, 0, -d1^phi theta) for theta = amp sin(k x1 + phase) mu(x3).

    ``plane="yz"`` swaps the roles of x1 and x2.  With mu(0) = 0 the field is
    tangential to the top surface exactly; with mu(-b) = 0 the bottom is
    impermeable exactly.
    """

    amp: float = 0.1
    k: int = 1
    phase: float = 0.0
    profile: str = "sinh"
    plane: str = "xz"

    def __post_init__(self):
        _require(self.plane in ("xz", "yz"), self,
                 f"plane must be xz or yz, got {self.plane!r}")
        _require(self.profile in _PROFILES, self,
                 f"unknown vertical profile {self.profile!r}")

    def build(self, grid: Grid, gm: GraphMap) -> np.ndarray:
        X1, X2, _ = grid.mesh_volume()
        tan_axis = 1 if self.plane == "xz" else 2
        Xt = X1 if tan_axis == 1 else X2
        theta = (self.amp * np.sin(self.k * Xt + self.phase)
                 * _zprofile(self.profile, grid)[None, None, :])
        out = np.zeros((3, grid.nx, grid.ny, grid.nz))
        out[tan_axis - 1] = dphi(theta, 3, gm)
        out[2] = -dphi(theta, tan_axis, gm)
        return out


@dataclass
class RandomRecipe:
    """Band-limited random field; reproducible from the seed."""

    amp: float = 0.05
    kmax: int = 2
    seed: int = 0
    profile: str = "confined"

    def __post_init__(self):
        _require(self.kmax >= 0, self, f"kmax must be >= 0, got {self.kmax}")
        _require(self.seed >= 0, self, f"seed must be >= 0, got {self.seed}")
        _require(self.profile in _PROFILES, self,
                 f"unknown vertical profile {self.profile!r}")

    def build(self, grid: Grid, gm: GraphMap) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        X1, X2, _ = grid.mesh_volume()
        mu = _zprofile(self.profile, grid)[None, None, :]
        out = np.zeros((3, grid.nx, grid.ny, grid.nz))
        for c in range(3):
            f = np.zeros_like(X1)
            for _ in range(3):
                k1 = int(rng.integers(-self.kmax, self.kmax + 1))
                k2 = int(rng.integers(-self.kmax, self.kmax + 1))
                f += rng.normal() * np.cos(k1 * X1 + k2 * X2
                                           + rng.uniform(0, 2 * np.pi))
            out[c] = self.amp * f * mu
        return out


RECIPES = {"shear": ShearRecipe, "stream": StreamRecipe,
           "random": RandomRecipe}


def parse_recipe(text: str):
    """Parse ``name`` or ``name: key=val, key=val`` into a recipe object.

    Each value is cast to the type of the recipe field it sets; a key the
    recipe has no field for is rejected."""
    text = text.strip()
    if not text or text == "none":
        return None
    name, _, argstr = text.partition(":")
    name = name.strip().lower()
    if name not in RECIPES:
        raise ConfigError(f"unknown recipe {name!r}")
    types = typing.get_type_hints(RECIPES[name])
    kwargs = {}
    for piece in argstr.replace(";", ",").split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ConfigError(f"bad recipe argument {piece!r} in {text!r}")
        key, _, val = piece.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in types:
            raise ConfigError(f"recipe {name!r} has no argument {key!r}; "
                              f"it takes {', '.join(types)}")
        try:
            kwargs[key] = types[key](val)
        except ValueError as exc:
            raise ConfigError(
                f"bad value for recipe argument {key!r}: {val!r}") from exc
    try:
        return RECIPES[name](**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad arguments for recipe {name!r}: {exc}") from exc


def recipe_to_text(recipe) -> str:
    if recipe is None:
        return "none"
    name = next(n for n, cls in RECIPES.items() if type(recipe) is cls)
    args = ", ".join(f"{k}={v}" for k, v in vars(recipe).items())
    return f"{name}: {args}"
