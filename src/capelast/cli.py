"""Command-line entry point.

Subcommands:
  simulate     run a configured evolution, write diagnostics and snapshots
  verify       run a residual battery and gate on its tolerances
  sweep-sigma  run the surface-tension sweep with the sign-condition gate

Exit codes: 0 success, 1 verification/physics failure, 2 usage or config
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from . import __version__
from .config import config_to_text, float_list, load_config, parse_value
from .diagnostics import CSV_COLUMNS
from .errors import (
    CapelastError,
    ConfigError,
    GridError,
    InsufficientHistoryError,
)
from .evolve import run
from .grid import check_dims
from .recipes import RandomRecipe
from .sigma_sweep import sweep_sigma
from .state import History, save_state
from .verify import CSV_HEADER, run_battery

log = logging.getLogger(__name__)


# The grid and history options of ``verify`` and the suites that read them;
# the elliptic battery runs its own fixed grids.
_VERIFY_DEFAULTS = {"nx": 32, "ny": 32, "nz": 17, "hist": 6}
_VERIFY_OPTIONS = {
    "operators": ("nx", "ny", "nz"),
    "lemmas": ("nx", "ny", "nz"),
    "alinhac": ("nx", "ny", "nz", "hist"),
    "elliptic": (),
}
# The smallest (nx, ny, nz) on which each grid-taking battery passes, per
# axis (measured; a coarser axis leaves some rows above tolerance).
_VERIFY_LEAST_GRID = {"operators": (8, 6, 12), "lemmas": (16, 14, 15),
                      "alinhac": (16, 14, 15)}


def _build_parser():
    p = argparse.ArgumentParser(
        prog="capelast",
        description="free-surface incompressible neo-Hookean elastodynamics "
                    "in graph coordinates")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("-v", "--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one configured evolution")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", required=True)
    _common_overrides(sim)

    ver = sub.add_parser("verify", help="run a residual battery")
    ver.add_argument("--suite", required=True, choices=list(_VERIFY_OPTIONS))
    ver.add_argument("--out", default=None)
    for opt, default in _VERIFY_DEFAULTS.items():
        ver.add_argument(f"--{opt}", type=int, default=None,
                         help=f"default {default}")

    sw = sub.add_parser("sweep-sigma", help="surface-tension sweep")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out", required=True)
    sw.add_argument("--sigmas", default=None,
                    help="comma-separated, non-increasing, e.g. 0.1,0.01,0")
    _common_overrides(sw)
    return p


def _common_overrides(sp):
    sp.add_argument("--nx", type=int, default=None)
    sp.add_argument("--ny", type=int, default=None)
    sp.add_argument("--nz", type=int, default=None)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--snapshot-every", type=int, default=None)


def _apply_overrides(cfg, args):
    init = cfg.init
    init_kw = {}
    for key in ("nx", "ny", "nz"):
        val = getattr(args, key, None)
        if val is not None:
            init_kw[key] = val
    if args.seed is not None:
        def reseed(r):
            if isinstance(r, RandomRecipe):
                return dataclasses.replace(r, seed=args.seed)
            return r

        init_kw["v_recipe"] = reseed(init.v_recipe)
        init_kw["F_recipes"] = tuple(reseed(r) for r in init.F_recipes)
    if init_kw:
        init = dataclasses.replace(init, **init_kw)
    cfg_kw = {"init": init}
    if args.dt is not None:
        cfg_kw["dt"] = args.dt
    if getattr(args, "snapshot_every", None) is not None:
        cfg_kw["snapshot_every"] = args.snapshot_every
    return dataclasses.replace(cfg, **cfg_kw)


def _write_diagnostics(path, diagnostics):
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in diagnostics:
            fh.write(rec.csv_row() + "\n")


def cmd_simulate(args) -> int:
    cfg, _ = load_config(args.config)
    cfg = _apply_overrides(cfg, args)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "config.echo.ini"), "w") as fh:
        fh.write(config_to_text(cfg))
    result = run(cfg)
    _write_diagnostics(os.path.join(args.out, "diagnostics.csv"),
                       result.diagnostics)
    for idx, snap in enumerate(result.snapshots):
        save_state(snap, result.grid, os.path.join(args.out,
                                                   f"snapshot_{idx:04d}"))
    if result.aborted:
        print(f"run aborted: {result.aborted}", file=sys.stderr)
        return 1
    print(f"completed t = {result.final.t:g} with "
          f"{len(result.diagnostics) - 1} steps; output in {args.out}")
    return 0


def _verify_kwargs(args) -> dict:
    """The battery's keyword arguments; raises ConfigError for an option
    the suite does not read, a history shorter than five slices, a grid
    ``make_grid`` would reject, or one the battery cannot resolve."""
    taken = _VERIFY_OPTIONS[args.suite]
    vals = {}
    for opt, default in _VERIFY_DEFAULTS.items():
        val = getattr(args, opt)
        if opt in taken:
            vals[opt] = default if val is None else val
        elif val is not None:
            raise ConfigError(f"--{opt} does not apply to the "
                              f"{args.suite} suite")
    if "hist" in vals:
        History.check_length(vals["hist"])
        vals["hist_len"] = vals.pop("hist")
    if taken:
        dims = (vals["nx"], vals["ny"], vals["nz"])
        try:
            check_dims(*dims, 1.0)
        except GridError as exc:
            raise ConfigError(str(exc)) from exc
        least = _VERIFY_LEAST_GRID[args.suite]
        if any(n < m for n, m in zip(dims, least)):
            raise ConfigError(
                f"the {args.suite} suite cannot resolve "
                f"{'x'.join(map(str, dims))}: it needs nx >= {least[0]}, "
                f"ny >= {least[1]} and nz >= {least[2]} (smallest accepted "
                f"grid {'x'.join(map(str, least))})")
    return vals


def cmd_verify(args) -> int:
    rows = run_battery(args.suite, **_verify_kwargs(args))
    lines = [CSV_HEADER] + [r.csv() for r in rows]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"verify_{args.suite}.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    failed = [r for r in rows if not r.passed]
    if failed:
        print(f"{len(failed)} residual(s) above tolerance", file=sys.stderr)
        return 1
    return 0


def cmd_sweep_sigma(args) -> int:
    cfg, sweep_opts = load_config(args.config)
    cfg = _apply_overrides(cfg, args)
    sigmas = sweep_opts.pop("sigmas", None)
    if args.sigmas:
        sigmas = parse_value(args.sigmas, float_list, "--sigmas")
    if sigmas is None:
        raise ConfigError("no sigma list: pass --sigmas or a [sweep] section")

    report = sweep_sigma(cfg, sigmas, **sweep_opts)  # [sweep] rt_c0, if given
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "sweep.csv"), "w") as fh:
        fh.write("\n".join(report.csv_rows()) + "\n")
    with open(os.path.join(args.out, "summary.txt"), "w") as fh:
        fh.write(report.summary() + "\n")
    print(report.summary())
    return 1 if report.aborted else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "sweep-sigma":
            return cmd_sweep_sigma(args)
    except (ConfigError, InsufficientHistoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapelastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
