"""Command-line frontend: modal, frf, plan and deform subcommands.

Exit codes: 0 success, 2 config error, 3 computation error, 64 usage
error. A refused command writes nothing: every refusal comes before the
first output file. All outputs are deterministic for fixed inputs; the
only RNG use is the deform --noise-sigma option, which requires --seed.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import compensation, config as config_mod, modal, pathplan
from .errors import ConfigError, InvalidInputError, TwinmillError
from .geometry import Pose
from .stiffness import Wrench, cell_sha256

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_USAGE = 64

CONFIG_ENV_VAR = "TWINMILL_CONFIG"

# The modal frequency grid is refused above this many points, before it is
# allocated.
MAX_GRID_POINTS = 2**20
MAX_NOISE_SIGMA = 1e6  # m; a tracker noise beyond 1000 km is a typo, and one near the float range overflows


class _UsageError(Exception):
    pass


def _parse_input(path, parse):
    """parse(text) of a CLI input file other than the config (which
    `config.load_config` reads). A file that cannot be read or is not UTF-8
    raises a TwinmillError (exit 3) naming it; a TwinmillError of `parse`
    gets the file as a prefix and as `file`, and keeps its type and location."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise TwinmillError(f"cannot read {path}: {exc}", file=path) from exc
    try:
        return parse(text)
    except TwinmillError as exc:
        raise exc.within(f"{path}: ", file=path)


def _load_config(path_arg):
    path = path_arg or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        raise _UsageError(f"no config given (use --config or ${CONFIG_ENV_VAR})")
    return config_mod.load_config(path)


def _number(low=-math.inf, strict=False, high=math.inf):
    """argparse type of a finite float >= low (> low if strict) and <=
    high; argparse reports a refusal as a usage error naming the option."""
    def parse(text):
        try:
            x = float(text)
        except ValueError:
            x = math.nan
        if not (math.isfinite(x) and (x > low if strict else x >= low) and x <= high):
            bound = f" {'>' if strict else '>='} {low:g}" if math.isfinite(low) else ""
            bound += f" and <= {high:g}" if math.isfinite(high) else ""
            raise argparse.ArgumentTypeError(f"expected a finite number{bound}, got {text!r}")
        return x
    return parse


def _integer(low, what):
    """argparse type of an integer >= low, described as `what` when refused."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


def _frf_name(axis, tension):
    return f"frf_{axis}_{tension:g}N.csv"


def _tension_list(text):
    """argparse type of a comma-separated list of finite tensions >= 0 in
    N, no two of which give `modal` the same FRF file name."""
    fields = [x for x in text.split(",") if x.strip()]
    values = [_number(0.0)(x) for x in fields]
    if not values:
        raise argparse.ArgumentTypeError("tension list is empty")
    given = {}
    for field, T in zip(fields, values):
        name = _frf_name("<axis>", T)
        if name in given:
            raise argparse.ArgumentTypeError(f"tensions {given[name]!r} and {field.strip()!r} would both be "
                                             f"written to {name}")
        given[name] = field.strip()
    return values


def _work_offset(text):
    values = text.split(",")
    if len(values) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated values x,y,z, got {text!r}")
    return [_number()(x) for x in values]


def _frequency_grid(fmax, df):
    """np.arange(1.0, fmax, df), refused before it is allocated when it
    would hold more than MAX_GRID_POINTS points (an infinite count too)."""
    n = (fmax - 1.0) / df
    n = math.ceil(n) if math.isfinite(n) else n
    if n > MAX_GRID_POINTS:
        raise _UsageError(f"--tensions and --df give a frequency grid of {n:.4g} points up to "
                          f"{fmax:g} Hz, more than {MAX_GRID_POINTS}")
    return np.arange(1.0, fmax, df)


def _tension_wrench(magnitude, axis):
    force = np.zeros(3)
    force["xyz".index(axis)] = magnitude
    try:
        return Wrench(force)
    except InvalidInputError as exc:
        raise exc.within(f"--tension {magnitude:g}: ")


def cmd_modal(args):
    cfg = _load_config(args.config)
    tensions = args.tensions
    model = cfg.modal_models[args.axis]
    fmax = model.f0 + abs(model.sensitivity) * max(tensions) + 200.0
    grid = _frequency_grid(fmax, args.df)
    frfs, points = [], []
    for T in tensions:
        frf = modal.frf_synthesize(model, T, grid)
        peaks = modal.peak_pick(frf, grid[0], grid[-1], prominence_factor=3.0)
        if not peaks:
            raise TwinmillError(f"no compliance peak found at tension {T:g} N")
        frfs.append(frf)
        points.append((T, peaks[0][0]))
    fit = modal.fit_shift(points, scope="global")
    # Each FRF is formatted as it is written, so one CSV text is held at a time.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for T, frf in zip(tensions, frfs):
        (out / _frf_name(args.axis, T)).write_text(modal.frf_to_csv(frf))
    (out / f"shift_fit_{args.axis}.csv").write_text(modal.shift_fit_to_csv(points, fit))
    print(f"wrote {len(tensions)} FRF file(s) and shift fit to {out}")
    print(f"slope={fit.slope:.6g} Hz/N intercept={fit.intercept:.6g} Hz")
    return EXIT_OK


def cmd_frf(args):
    records = [_parse_input(p, modal.impact_record_from_csv) for p in args.impacts]
    try:
        frf = modal.h1_estimate(records, nfft=args.nfft)
    except InvalidInputError as exc:
        raise exc if exc.index is None else exc.within(f"{args.impacts[exc.index]}: ", file=args.impacts[exc.index])
    Path(args.out).write_text(modal.frf_to_csv(frf))
    print(f"wrote H1 FRF ({frf.frequencies.size} bins) to {args.out}")
    return EXIT_OK


def _read_path(path_file, work_offset_mm=None):
    path = _parse_input(path_file, pathplan.path_from_json if path_file.endswith(".json") else pathplan.parse_gcode)
    if work_offset_mm is not None:
        path = pathplan.transform_path(path, Pose(np.array(work_offset_mm) * 1e-3))
    return path


def cmd_plan(args):
    cfg = _load_config(args.config)
    path = _read_path(args.path_file, args.work_offset_mm)
    tension = _tension_wrench(args.tension, args.tension_axis)
    d = cfg.defaults
    try:
        program = pathplan.plan_sync(
            cfg.system, path, tension, (cfg.ik_seed1, cfg.ik_seed2), chord_tol=d["chord_tol_m"],
            max_step=d["max_step_m"], workspace_box=cfg.workspace_box, joint_jump_max=d["joint_jump_max_rad"],
            tol_pos=d["tol_pos_m"], tol_rot=d["tol_rot_rad"], max_iter=d["max_iter"])
    except TwinmillError as exc:
        # Only the path file's segments carry a line or a schema path.
        named = exc.line is not None or exc.path is not None
        raise exc.within(f"{args.path_file}: ", file=args.path_file) if named else exc
    Path(args.out).write_text(pathplan.program_to_csv(program))
    print(f"planned {len(program.pairs)} synchronized setpoints to {args.out}")
    return EXIT_OK


def _check_cell(program, system, path):
    """Refuse a program planned on another cell than `system`: its joints
    would mean other poses."""
    cell = cell_sha256(system)
    if program.cell_sha256 != cell:
        raise TwinmillError(f"program {path} was planned on cell_sha256={program.cell_sha256}, "
                            f"the config's cell is {cell}", file=path)


def cmd_deform(args):
    if args.noise_sigma > 0 and args.seed is None:
        raise _UsageError("--noise-sigma requires --seed for reproducibility")
    cfg = _load_config(args.config)
    program = _parse_input(args.program, pathplan.program_from_csv)
    _check_cell(program, cfg.system, args.program)
    reference = compensation.nominal_trace(program)
    measured = compensation.simulate_deformation(cfg.system, program)
    if args.noise_sigma > 0:
        rng = np.random.default_rng(args.seed)
        measured = compensation.PathTrace(
            measured.points + rng.normal(0.0, args.noise_sigma, measured.points.shape),
            label=measured.label,
            tension=measured.tension,
            noise_sigma=args.noise_sigma,
        )
    before = compensation.residual_report(reference, measured)
    files = {"reference.csv": compensation.trace_to_csv(reference),
             "deformed.csv": compensation.trace_to_csv(measured),
             "residual_before.csv": compensation.report_to_csv(before)}
    lines = [f"deformation RMS {before.rms * 1e3:.4f} mm (max {before.max_norm * 1e3:.4f} mm)"]
    if args.compensate:
        transform = compensation.fit_rigid(reference, measured)
        comped = compensation.compensate(measured, transform)
        after = compensation.residual_report(reference, comped)
        files["compensated.csv"] = compensation.trace_to_csv(comped)
        files["residual_after.csv"] = compensation.report_to_csv(after)
        lines.append(f"residual RMS after compensation {after.rms * 1e3:.4f} mm")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    print("\n".join(lines))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twinmill",
        description="Dual-robot coupled milling: modal analysis, tensioned path planning "
        "and deformation compensation.",
    )
    parser.add_argument(
        "--config",
        help=f"system config JSON (falls back to ${CONFIG_ENV_VAR})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modal", help="synthesize FRFs over tensions and fit the frequency shift")
    p.add_argument("--tensions", type=_tension_list, required=True,
                   help="comma-separated tension forces in N, >= 0")
    p.add_argument("--axis", choices=modal.AXES, default="x")
    p.add_argument("--df", type=_number(0.0, strict=True), default=0.25,
                   help="frequency grid step in Hz, > 0")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_modal)

    p = sub.add_parser("frf", help="H1 FRF estimate from impact-test CSV files")
    p.add_argument("impacts", nargs="+", help="impact record CSV files")
    p.add_argument("--nfft", type=_integer(2, "an integer >= 2"), default=None,
                   help=f"FFT length, 2 to max({modal.MAX_NFFT}, longest record); default the longest record")
    p.add_argument("--out", required=True, help="output FRF CSV file")
    p.set_defaults(func=cmd_frf)

    p = sub.add_parser("plan", help="plan a synchronized dual-robot program for a toolpath")
    p.add_argument("path_file", help="G-code (.nc/.gcode) or native JSON path file")
    p.add_argument("--tension", type=_number(), default=0.0,
                   help="tension force in N along --tension-axis, finite (may be negative)")
    p.add_argument("--tension-axis", choices=("x", "y", "z"), default="x")
    p.add_argument("--work-offset-mm", type=_work_offset, default=None,
                   help="x,y,z work offset in mm added to all path coordinates, each finite")
    p.add_argument("--out", required=True, help="output program CSV file")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("deform", help="simulate tension deformation of a planned program")
    p.add_argument("program", help="SyncProgram CSV from 'plan'")
    p.add_argument("--compensate", action="store_true", help="also fit and remove a rigid transform")
    p.add_argument("--noise-sigma", type=_number(0.0, high=MAX_NOISE_SIGMA), default=0.0,
                   help=f"tracker noise sigma in m, >= 0 and <= {MAX_NOISE_SIGMA:g}")
    p.add_argument("--seed", type=_integer(0, "a non-negative integer"), default=None,
                   help="RNG seed for --noise-sigma, a non-negative integer")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_deform)
    return parser


def main(argv=None):
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value with a leading minus (-20,1,2) as an option;
    # attached by "=" it is the option's value. Any prefix of the option
    # names it, as argparse's own abbreviations do.
    for i in reversed(range(len(argv) - 1)):
        if len(argv[i]) > 2 and "--work-offset-mm".startswith(argv[i]):
            argv[i : i + 2] = [f"--work-offset-mm={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap to the documented 64.
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TwinmillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
