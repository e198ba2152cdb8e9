"""The three benchmark workloads: set-up, one timed operation, output checks.

Each workload replays the call sequence of a CLI command (`plan`,
`deform --compensate`, `modal` + `frf`) on the demo cell with every file
kept in memory, so disk noise stays out of the timings. A workload is built
from a seed and a size; the seed drives only the tracker and impact noise,
never the amount of work.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from twinmill import compensation, config as config_mod, modal, pathplan
from twinmill.errors import TwinmillError
from twinmill.stiffness import Wrench

ROOT = Path(__file__).resolve().parent.parent
CONFIG_PATH = ROOT / "demo" / "system.json"
REFERENCE_Q = Path(__file__).resolve().parent / "reference" / "raster_plan_q.npy"

WORK_OFFSET_M = np.array([1.975, -0.110, 1.100])
TENSION_N = 1000.0
TRACKER_NOISE_M = 15e-6
RMS_LIMIT_M = 50e-6           # acceptance 5: compensated residual
SLOPE_TOL = 0.10              # acceptance 2: fitted slope vs model sensitivity
DQ_LIMIT_RAD = 1e-3           # a plan this far from the reference is a different plan
MODAL_TENSIONS_N = (0.0, 500.0, 1400.0, 2000.0)
IMPACT_NOISE_SHARE = 1e-3     # response noise sigma as a share of its peak
IMPACT_WIDTH_S = 0.5e-3       # half-sine hammer pulse; its first spectral zero (3 kHz) lies above Nyquist


@dataclass(frozen=True)
class RasterSize:
    passes: int
    length_mm: float
    stepover_mm: float
    setpoints: int  # what the demo cell's chord and step defaults give


@dataclass(frozen=True)
class ModalSize:
    tensions: tuple
    impacts: int
    duration_s: float
    sample_rate: float = 4096.0


SIZES = {
    "full": (RasterSize(11, 300.0, 20.0, 1345), ModalSize(MODAL_TENSIONS_N, 5, 4.0)),
    "tiny": (RasterSize(2, 10.0, 20.0, 73), ModalSize((0.0, 2000.0), 1, 1.0)),
}


def raster_gcode(size: RasterSize) -> str:
    """Zigzag raster: straight passes joined by alternating G3/G2
    semicircular turnarounds whose diameter is the stepover."""
    r = size.stepover_mm / 2
    lines = ["(zigzag raster)", f"G1 X{size.length_mm:g} F600"]
    for k in range(1, size.passes):
        y = k * size.stepover_mm
        if k % 2:
            lines.append(f"G3 X{size.length_mm:g} Y{y:g} J{r:g}")
            lines.append("G1 X0")
        else:
            lines.append(f"G2 X0 Y{y:g} J{r:g}")
            lines.append(f"G1 X{size.length_mm:g}")
    return "\n".join(lines) + "\n"


def plan(cfg, gcode):
    """`twinmill plan` with --work-offset-mm and an x tension."""
    path = pathplan.translate_path(pathplan.parse_gcode(gcode), WORK_OFFSET_M)
    d = cfg.defaults
    program = pathplan.plan_sync(
        cfg.system,
        path,
        Wrench(np.array([TENSION_N, 0.0, 0.0])),
        (cfg.ik_seed1, cfg.ik_seed2),
        chord_tol=d["chord_tol_m"],
        max_step=d["max_step_m"],
        workspace_box=cfg.workspace_box,
        joint_jump_max=d["joint_jump_max_rad"],
        tol_pos=d["tol_pos_m"],
        tol_rot=d["tol_rot_rad"],
        max_iter=d["max_iter"],
    )
    return pathplan.program_to_csv(program)


def deform(cfg, program_csv, seed):
    """`twinmill deform --compensate --noise-sigma 15e-6 --seed <seed>`,
    returning the program, the files it would write and both reports."""
    program = pathplan.program_from_csv(program_csv)
    reference = compensation.nominal_trace(program)
    deformed = compensation.simulate_deformation(cfg.system, program)
    rng = np.random.default_rng(seed)
    measured = compensation.PathTrace(
        deformed.points + rng.normal(0.0, TRACKER_NOISE_M, deformed.points.shape),
        label=deformed.label,
        tension=deformed.tension,
        noise_sigma=TRACKER_NOISE_M,
    )
    before = compensation.residual_report(reference, measured)
    transform = compensation.fit_rigid(reference, measured)
    comped = compensation.compensate(measured, transform)
    after = compensation.residual_report(reference, comped)
    files = {
        "reference.csv": compensation.trace_to_csv(reference),
        "deformed.csv": compensation.trace_to_csv(measured),
        "residual_before.csv": compensation.report_to_csv(before),
        "compensated.csv": compensation.trace_to_csv(comped),
        "residual_after.csv": compensation.report_to_csv(after),
    }
    return program, deformed, before, after, files


@dataclass
class Outcome:
    """What one operation produced: the per-op result values, the items it
    processed and the checks that failed."""

    items: int
    values: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# raster_plan and deform_replay


def joint_trajectory(program):
    """(setpoints, 12) array of q1 and q2 per setpoint."""
    return np.array([np.concatenate([p.q1, p.q2]) for p in program.pairs])


def _program_fingerprint(program_csv, program, deformed, before, after):
    q = joint_trajectory(program)
    nominal = compensation.nominal_trace(program).points
    values = {
        "setpoints": len(program.pairs),
        "program_sha256": hashlib.sha256(program_csv.encode()).hexdigest(),
        "q_sha256": hashlib.sha256(np.ascontiguousarray(q).tobytes()).hexdigest(),
        "deformation_rms_um": 1e6 * float(np.sqrt(np.mean(np.sum((deformed.points - nominal) ** 2, axis=1)))),
        "uncompensated_rms_um": 1e6 * before.rms,
        "compensated_rms_um": 1e6 * after.rms,
    }
    return q, values


def _check_program(out, program_csv, program, after, files, want_setpoints):
    out.check(pathplan.program_to_csv(pathplan.program_from_csv(program_csv)) == program_csv,
              "program CSV round trip is not bit-exact")
    out.check(len(program.pairs) == want_setpoints,
              f"{len(program.pairs)} setpoints, expected {want_setpoints}")
    out.check(after.rms < RMS_LIMIT_M,
              f"compensated RMS {after.rms * 1e6:.2f} um is not below {RMS_LIMIT_M * 1e6:g} um")
    rows = want_setpoints + 4
    for name in ("reference.csv", "deformed.csv", "compensated.csv"):
        out.check(files[name].count("\n") == rows, f"{name} does not hold {rows} lines")


class RasterPlan:
    """Full chain on the raster: plan, write, read, deform, compensate."""

    name = "raster_plan"

    def __init__(self, cfg, size, seed):
        self.cfg, self.seed = cfg, seed
        self.gcode = raster_gcode(size)
        self.setpoints = size.setpoints
        self.reference_q = np.load(REFERENCE_Q) if size == SIZES["full"][0] else None

    def op(self):
        program_csv = plan(self.cfg, self.gcode)
        return program_csv, deform(self.cfg, program_csv, self.seed)

    def check(self, result):
        program_csv, (program, deformed, before, after, files) = result
        q, values = _program_fingerprint(program_csv, program, deformed, before, after)
        out = Outcome(len(program.pairs), values)
        _check_program(out, program_csv, program, after, files, self.setpoints)
        # A different setpoint count has already failed the check above.
        if self.reference_q is not None and q.shape == self.reference_q.shape:
            dq = float(np.max(np.abs(q - self.reference_q)))
            values["max_dq_rad"] = dq
            out.check(dq <= DQ_LIMIT_RAD, f"joint trajectory leaves the reference by {dq:.3e} rad")
        return out


class DeformReplay:
    """Read side only: a program planned in set-up, replayed from its CSV."""

    name = "deform_replay"

    def __init__(self, cfg, size, seed):
        self.cfg, self.seed = cfg, seed
        self.program_csv = plan(cfg, raster_gcode(size))
        self.setpoints = size.setpoints

    def op(self):
        return deform(self.cfg, self.program_csv, self.seed)

    def check(self, result):
        program, deformed, before, after, files = result
        _, values = _program_fingerprint(self.program_csv, program, deformed, before, after)
        out = Outcome(len(program.pairs), values)
        _check_program(out, self.program_csv, program, after, files, self.setpoints)
        return out


# ---------------------------------------------------------------------------
# modal_campaign


def peak_band(model, tensions):
    """Band that holds the model's resonance at every tension, clear of the
    low-frequency end where dividing accelerance by w^2 amplifies noise."""
    return 0.5 * model.f0, model.f0 + abs(model.sensitivity) * max(tensions) + 200.0


class ModalCampaign:
    """Impact test campaign: parse every record, H1 per (axis, tension),
    peak-pick, fit the frequency shift per axis and write the results."""

    name = "modal_campaign"

    def __init__(self, cfg, size, seed):
        self.models = cfg.modal_models
        self.size = size
        rng = np.random.default_rng(seed)
        self.records = {}
        for axis in modal.AXES:
            for T in size.tensions:
                clean = modal.simulate_impact(self.models[axis], T, sample_rate=size.sample_rate,
                                              duration=size.duration_s, impact_width=IMPACT_WIDTH_S)
                sigma = IMPACT_NOISE_SHARE * np.max(np.abs(clean.acceleration))
                texts = []
                for _ in range(size.impacts):
                    noisy = modal.ImpactRecord(
                        clean.sample_rate,
                        clean.force,
                        clean.acceleration + rng.normal(0.0, sigma, clean.acceleration.shape),
                        axis=axis,
                        tension=T,
                    )
                    texts.append(modal.impact_record_to_csv(noisy))
                self.records[axis, T] = texts

    def op(self):
        results = {}
        for axis in modal.AXES:
            model = self.models[axis]
            lo, hi = peak_band(model, self.size.tensions)
            frfs, peaks, points = [], [], []
            for T in self.size.tensions:
                recs = [modal.impact_record_from_csv(t) for t in self.records[axis, T]]
                frf = modal.h1_estimate(recs)
                found = modal.peak_pick(frf, lo, hi, prominence_factor=3.0)
                if not found:
                    raise TwinmillError(f"no compliance peak for axis {axis} at {T:g} N")
                frfs.append(frf)
                peaks.append(found)
                points.append((T, found[0][0]))
            fit = modal.fit_shift(points, scope="global")
            files = [modal.frf_to_csv(f) for f in frfs]
            files.append(modal.shift_fit_to_csv(points, fit))
            results[axis] = (frfs, peaks, fit, files)
        return results

    def check(self, result):
        n_records = len(modal.AXES) * len(self.size.tensions) * self.size.impacts
        out = Outcome(n_records)
        errors = []
        for axis, (frfs, peaks, fit, files) in result.items():
            s = self.models[axis].sensitivity
            err = abs(fit.slope - s) / abs(s)
            errors.append(err)
            out.values[f"slope_{axis}_hz_per_n"] = fit.slope
            out.values[f"intercept_{axis}_hz"] = fit.intercept
            out.check(err <= SLOPE_TOL, f"axis {axis}: slope off the model by {100 * err:.2f} %")
            for T, found, frf, text in zip(self.size.tensions, peaks, frfs, files):
                out.check(len(found) == 1, f"axis {axis} at {T:g} N: {len(found)} peaks in band")
                back = modal.frf_from_csv(text)
                out.check(np.array_equal(back.frequencies, frf.frequencies)
                          and np.array_equal(back.values, frf.values),
                          f"axis {axis} at {T:g} N: FRF CSV round trip differs")
        out.values["shift_slope_err_pct"] = 100 * max(errors)
        return out


WORKLOADS = {w.name: w for w in (RasterPlan, DeformReplay, ModalCampaign)}


def load(name, size_name, seed):
    """Config load plus input generation for one workload."""
    cfg = config_mod.load_config(CONFIG_PATH)
    raster, modal_size = SIZES[size_name]
    size = modal_size if name == ModalCampaign.name else raster
    return WORKLOADS[name](cfg, size, seed)
