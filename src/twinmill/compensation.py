"""Tension-induced deformation prediction and rigid-transform compensation.

The tensioned system deflects by a nearly constant vector along the path,
so the deviation between an untensioned reference trace and a tensioned
trace is well captured by a single rotation + translation; removing that
transform compensates the deformation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvtable import read_table, write_table
from .errors import DomainError, InvalidInputError
from .geometry import Pose, frozen, quat_from_matrix
from .pathplan import SyncProgram
from .kinematics import flange_transform
from .stiffness import CLOSURE_TOL, CoupledSystem, check_closure, coupled_stiffness

_COLLINEAR_REL_TOL = 1e-9


@dataclass(frozen=True)
class PathTrace:
    """Ordered tool positions from one (real or simulated) path execution."""

    points: np.ndarray
    label: str = ""
    tension: float = 0.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        pts = frozen(self.points)
        if pts.ndim != 2 or pts.shape[1] != 3 or not len(pts) or not np.all(np.isfinite(pts)):
            raise InvalidInputError("trace points must be a finite Nx3 array, N >= 1")
        if not (np.isfinite(self.tension) and np.isfinite(self.noise_sigma)):
            raise InvalidInputError("trace tension and noise sigma must be finite")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]


def nominal_trace(program: SyncProgram) -> PathTrace:
    """Undeformed tool positions of a program."""
    pts = np.array(program.pairs.tool_pose[:, :3])
    return PathTrace(pts, label="nominal", tension=0.0)


def simulate_deformation(sys: CoupledSystem, program: SyncProgram) -> PathTrace:
    """Displace every tool position by compliance x internal wrench.

    The compliance is the inverse of the coupled tool-point stiffness at
    that setpoint's configuration, so the deformation tracks any (small)
    configuration dependence along the path. FK1(q1) ∘ tool_offset must
    lie within CLOSURE_TOL of the tool point, and (in `coupled_stiffness`)
    FK2(q2), the commanded arm-2 flange, within MAX_OFFSET of FK1(q1) ∘
    flange2_offset, the nominal one. Joints outside their limits, or
    non-finite, raise InvalidInputError naming the setpoint and the arm.
    """
    sp = program.pairs
    arm = 1
    try:
        flange1 = flange_transform(sys.arm1, sp.q1)
        check_closure((flange1 @ sys.tool_offset.matrix())[:, :3, 3], sp.tool_pose[:, :3], CLOSURE_TOL,
                      "arm-1 tool point is {gap:.3e} m from its planned position")
        arm = 2  # arm 1's joints passed
        K = coupled_stiffness(sys, sp.q1, sp.q2)
    except (InvalidInputError, DomainError) as exc:
        if isinstance(exc, InvalidInputError):
            raise exc.within(f"setpoint {exc.index}, arm {arm}: ", arm=arm)
        raise exc.within(f"setpoint {exc.index}: ")
    w = np.broadcast_to(program.tension.as_vector(), sp.q1.shape)
    delta = np.linalg.solve(K, w[..., None])[..., 0]
    pts = sp.tool_pose[:, :3] + delta[:, :3]
    return PathTrace(pts, label="deformed", tension=float(np.linalg.norm(program.tension.force)))


def fit_rigid(reference: PathTrace, measured: PathTrace) -> Pose:
    """Least-squares rigid motion p -> R p + t mapping reference onto
    measured (orthogonal Procrustes, correspondence by index, reflection
    excluded), as the Pose (t, R)."""
    A, B = reference.points, measured.points
    if A.shape != B.shape:
        raise InvalidInputError("reference and measured traces must have equal point counts")
    if A.shape[0] < 3:
        raise InvalidInputError("at least 3 point pairs are required for a rigid fit")
    ca, cb = A.mean(axis=0), B.mean(axis=0)
    Ac = A - ca
    sv = np.linalg.svd(Ac, compute_uv=False)
    if sv[1] <= _COLLINEAR_REL_TOL * sv[0]:
        raise InvalidInputError("reference points are collinear; the rotation is not unique")
    H = Ac.T @ (B - cb)
    U, _, Vt = np.linalg.svd(H)
    V = Vt.T
    d = np.sign(np.linalg.det(V @ U.T))
    R = V @ np.diag([1.0, 1.0, d]) @ U.T
    t = cb - R @ ca
    return Pose(t, quat_from_matrix(R))


def compensate(measured: PathTrace, transform: Pose) -> PathTrace:
    """Remove a fitted rigid deformation p -> R p + t: p -> R^T (p - t)."""
    return PathTrace(
        (measured.points - transform.position) @ transform.rotation(),
        label=(measured.label + "_compensated") if measured.label else "compensated",
        tension=measured.tension,
        noise_sigma=measured.noise_sigma,
    )


@dataclass(frozen=True)
class ResidualReport:
    """Per-point deviations (measured - reference) with summary statistics."""

    deviations: np.ndarray
    rms: float
    max_norm: float
    axis_mean: np.ndarray
    axis_std: np.ndarray
    axis_max_abs: np.ndarray

    def __post_init__(self):
        for name in ("deviations", "axis_mean", "axis_std", "axis_max_abs"):
            object.__setattr__(self, name, frozen(getattr(self, name)))


def residual_report(reference: PathTrace, measured: PathTrace) -> ResidualReport:
    if reference.points.shape != measured.points.shape:
        raise InvalidInputError("traces must have equal point counts")
    dev = measured.points - reference.points
    norms = np.linalg.norm(dev, axis=1)
    return ResidualReport(
        deviations=dev,
        rms=float(np.sqrt(np.mean(norms**2))),
        max_norm=float(np.max(norms)),
        axis_mean=dev.mean(axis=0),
        axis_std=dev.std(axis=0),
        axis_max_abs=np.max(np.abs(dev), axis=0),
    )


# ---------------------------------------------------------------------------
# CSV interchange


_TRACE_COLUMNS = ("index", "x_m", "y_m", "z_m")
_REPORT_COLUMNS = ("index", "dx_m", "dy_m", "dz_m")


def trace_to_csv(trace: PathTrace) -> str:
    meta = {"label": trace.label, "tension_N": repr(trace.tension), "noise_sigma_m": repr(trace.noise_sigma)}
    return write_table(meta, _TRACE_COLUMNS, trace.points)


def trace_from_csv(text) -> PathTrace:
    meta, table = read_table(text, _TRACE_COLUMNS, "trace CSV")
    return PathTrace(
        table,
        label=meta.get("label", ""),
        tension=meta.number("tension_N", 0.0),
        noise_sigma=meta.number("noise_sigma_m", 0.0),
    )


def report_to_csv(report: ResidualReport) -> str:
    meta = {"rms_m": repr(report.rms), "max_norm_m": repr(report.max_norm)}
    for name, vec in (
        ("mean", report.axis_mean),
        ("std", report.axis_std),
        ("max_abs", report.axis_max_abs),
    ):
        meta[f"{name}_xyz_m"] = " ".join(repr(float(v)) for v in vec)
    return write_table(meta, _REPORT_COLUMNS, report.deviations)
