"""Command-line entry point.

Subcommands:
  simulate     run a configured evolution, write diagnostics and snapshots
  verify       run a residual battery and gate on its tolerances
  sweep-sigma  run the surface-tension sweep with the sign-condition gate

``simulate`` and ``sweep-sigma`` read every run setting from ``--config``,
a random recipe's seed included (``random: seed=N``); ``--sigmas`` may
replace the sweep's ``[sweep] sigmas``.  ``verify`` takes one option per
parameter of the suite's battery in ``verify.BATTERIES`` (``--hist`` sets
``hist_len``), and an option not given takes the battery's own default.

Exit codes: 0 success, 1 verification/physics failure, 2 usage or config
error.
"""

from __future__ import annotations

import argparse
import inspect
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
from .sigma_sweep import sweep_sigma
from .state import History, save_state
from .verify import BATTERIES, CSV_HEADER, LEAST_GRID, run_battery


def _flag(name) -> str:
    """The ``verify`` option that sets battery parameter ``name``."""
    return "--hist" if name == "hist_len" else f"--{name}"


def _battery_parameters(suite):
    """The parameters of the suite's battery, by name."""
    return inspect.signature(BATTERIES[suite]).parameters


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

    ver = sub.add_parser("verify", help="run a residual battery")
    ver.add_argument("--suite", required=True, choices=list(BATTERIES))
    ver.add_argument("--out", default=None)
    defaults = {}
    for suite in BATTERIES:
        for name, param in _battery_parameters(suite).items():
            defaults.setdefault(name, []).append(f"{param.default} ({suite})")
    for name, shown in defaults.items():
        ver.add_argument(_flag(name), dest=name, type=int,
                         default=None, help="default " + ", ".join(shown))

    sw = sub.add_parser("sweep-sigma", help="surface-tension sweep")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out", required=True)
    sw.add_argument("--sigmas", default=None,
                    help="comma-separated, non-increasing, e.g. 0.1,0.01,0")
    return p


def _write_diagnostics(path, diagnostics):
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in diagnostics:
            fh.write(rec.csv_row() + "\n")


def cmd_simulate(args) -> int:
    cfg, _ = load_config(args.config)
    # initial data that break a boundary condition raise before any write
    result = run(cfg)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "config.echo.ini"), "w") as fh:
        fh.write(config_to_text(cfg))
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
    """The battery's keyword arguments: the options given, over the
    battery's own defaults.  Raises ConfigError for an option the suite
    does not read, a history shorter than five slices, a grid ``make_grid``
    would reject, or one the battery cannot resolve."""
    params = _battery_parameters(args.suite)
    given = {name: getattr(args, name) for suite in BATTERIES
             for name in _battery_parameters(suite)
             if getattr(args, name) is not None}
    for name in given:
        if name not in params:
            raise ConfigError(f"{_flag(name)} does not apply to the "
                              f"{args.suite} suite")
    kwargs = {name: given.get(name, p.default) for name, p in params.items()}
    if "hist_len" in kwargs:
        History.check_length(kwargs["hist_len"])
    if "nx" in kwargs:
        dims = (kwargs["nx"], kwargs["ny"], kwargs["nz"])
        try:
            check_dims(*dims, 1.0)
        except GridError as exc:
            raise ConfigError(str(exc)) from exc
        least = LEAST_GRID[args.suite]
        if any(n < m for n, m in zip(dims, least)):
            raise ConfigError(
                f"the {args.suite} suite cannot resolve "
                f"{'x'.join(map(str, dims))}: it needs nx >= {least[0]}, "
                f"ny >= {least[1]} and nz >= {least[2]} (smallest accepted "
                f"grid {'x'.join(map(str, least))})")
    return kwargs


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
