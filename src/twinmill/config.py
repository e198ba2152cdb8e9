"""System configuration: strict JSON schema tying together both arms, the
coupling-module spring, cell geometry, modal models and solver defaults.

Unknown keys are rejected with their schema path so unit mistakes (e.g. a
misspelled stiffness key silently falling back to a default) cannot slip
through.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kinematics, pathplan
from .errors import ConfigError, InvalidInputError, TwinmillError
from .geometry import Pose
from .kinematics import ArmModel
from .modal import AXES, modal_model_from_dict
from .stiffness import CoupledSystem, JointStiffness, SpringModel

SCHEMA_VERSION = 1

_DEFAULTS = {
    "tol_pos_m": kinematics.DEFAULT_TOL_POS,
    "tol_rot_rad": kinematics.DEFAULT_TOL_ROT,
    "max_iter": kinematics.DEFAULT_MAX_ITER,
    "chord_tol_m": pathplan.DEFAULT_CHORD_TOL,
    "max_step_m": pathplan.DEFAULT_MAX_STEP,
    "joint_jump_max_rad": pathplan.DEFAULT_JOINT_JUMP_MAX,
}

_POSE_KEYS = {"position_m", "quaternion_wxyz"}
_ARM_KEYS = {"dh_rows", "joint_limits_rad", "base_pose", "flange_offset", "joint_stiffness_nm_per_rad"}
_TOP_KEYS = {
    "schema_version",
    "dh_convention",
    "arm1",
    "arm2",
    "spring_matrix",
    "tool_offset",
    "flange2_offset",
    "workspace_box",
    "modal_models",
    "defaults",
    "ik_seed1_rad",
    "ik_seed2_rad",
}
_BOX_KEYS = {"center_m", "size_m"}
_MODAL_KEYS = {"mass_kg", "damping_ratio", "f0_hz", "sensitivity_hz_per_n"}
_DEFAULT_KEYS = set(_DEFAULTS)


@dataclass(frozen=True)
class SystemConfig:
    system: CoupledSystem
    workspace_center: np.ndarray
    workspace_size: np.ndarray
    modal_models: dict
    defaults: dict
    ik_seed1: np.ndarray
    ik_seed2: np.ndarray

    @property
    def workspace_box(self):
        return (self.workspace_center, self.workspace_size)


def _check_keys(d, allowed, path):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object", path=path)
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key", path=f"{path}.{key}")
    missing = allowed - set(d)
    if missing:
        raise ConfigError(f"{path}: missing key(s) {sorted(missing)}", path=path)


def _pose(d, path) -> Pose:
    _check_keys(d, _POSE_KEYS, path)
    try:
        return Pose(np.array(d["position_m"], dtype=float), np.array(d["quaternion_wxyz"], dtype=float))
    except (InvalidInputError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}", path=path) from exc


def _arm(d, path):
    _check_keys(d, _ARM_KEYS, path)
    try:
        arm = ArmModel(
            dh_rows=np.array(d["dh_rows"], dtype=float),
            joint_limits=np.array(d["joint_limits_rad"], dtype=float),
            base_pose=_pose(d["base_pose"], f"{path}.base_pose"),
            flange_offset=_pose(d["flange_offset"], f"{path}.flange_offset"),
        )
        ks = JointStiffness(np.array(d["joint_stiffness_nm_per_rad"], dtype=float))
    except (InvalidInputError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}", path=path) from exc
    return arm, ks


def _floats(value, path):
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}", path=path) from exc


def _default(value, key):
    """One `defaults` entry: max_iter an integer >= 1, every tolerance and
    step a positive finite number."""
    path = f"config.defaults.{key}"
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if isinstance(_DEFAULTS[key], int):
        if not (number and value >= 1
                and (isinstance(value, numbers.Integral) or float(value).is_integer())):
            raise ConfigError(f"{path}: must be an integer >= 1, got {value!r:.40}", path=path)
        return int(value)
    if not (number and 0 < value < math.inf):
        raise ConfigError(f"{path}: must be a positive finite number, got {value!r:.40}", path=path)
    return float(value)


def parse_config(doc) -> SystemConfig:
    _check_keys(doc, _TOP_KEYS, "config")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {doc['schema_version']}",
            path="config.schema_version",
        )
    if doc["dh_convention"] != "standard":
        raise ConfigError(
            "config.dh_convention: only 'standard' Denavit-Hartenberg is supported",
            path="config.dh_convention",
        )
    arm1, ks1 = _arm(doc["arm1"], "config.arm1")
    arm2, ks2 = _arm(doc["arm2"], "config.arm2")
    try:
        spring = SpringModel(np.array(doc["spring_matrix"], dtype=float))
    except (InvalidInputError, ValueError) as exc:
        raise ConfigError(f"config.spring_matrix: {exc}", path="config.spring_matrix") from exc
    tool_offset = _pose(doc["tool_offset"], "config.tool_offset")
    flange2_offset = _pose(doc["flange2_offset"], "config.flange2_offset")
    _check_keys(doc["workspace_box"], _BOX_KEYS, "config.workspace_box")
    center = _floats(doc["workspace_box"]["center_m"], "config.workspace_box")
    size = _floats(doc["workspace_box"]["size_m"], "config.workspace_box")
    if (center.shape != (3,) or size.shape != (3,)
            or not (np.all(np.isfinite(center)) and np.all(size > 0))):
        raise ConfigError("config.workspace_box: center/size must be 3-vectors, center finite, "
                          "size positive", path="config.workspace_box")
    _check_keys(doc["modal_models"], set(AXES), "config.modal_models")
    modal_models = {}
    for axis in AXES:
        _check_keys(doc["modal_models"][axis], _MODAL_KEYS, f"config.modal_models.{axis}")
        try:
            modal_models[axis] = modal_model_from_dict(doc["modal_models"][axis], axis)
        except (InvalidInputError, TypeError, ValueError) as exc:
            raise ConfigError(f"config.modal_models.{axis}: {exc}",
                              path=f"config.modal_models.{axis}") from exc
    _check_keys(doc["defaults"], _DEFAULT_KEYS, "config.defaults")
    defaults = {k: _default(doc["defaults"][k], k) for k in _DEFAULTS}
    seed1 = _floats(doc["ik_seed1_rad"], "config.ik_seed1_rad")
    seed2 = _floats(doc["ik_seed2_rad"], "config.ik_seed2_rad")
    if seed1.shape != (6,) or seed2.shape != (6,):
        raise ConfigError("config.ik_seed1_rad/ik_seed2_rad: must be 6 joint values",
                          path="config.ik_seed1_rad")
    try:
        system = CoupledSystem(
            arm1=arm1,
            arm2=arm2,
            joint_stiffness1=ks1,
            joint_stiffness2=ks2,
            spring=spring,
            tool_offset=tool_offset,
            flange2_offset=flange2_offset,
        )
    except TwinmillError as exc:
        raise ConfigError(f"config: {exc}", path="config") from exc
    return SystemConfig(
        system=system,
        workspace_center=center,
        workspace_size=size,
        modal_models=modal_models,
        defaults=defaults,
        ik_seed1=seed1,
        ik_seed2=seed2,
    )


def load_config(path) -> SystemConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_config(doc)


# ---------------------------------------------------------------------------
# Illustrative default system ("nj290-like" cell). These are NOT vendor
# data: the DH rows, stiffness values and modal parameters are plausible
# placeholders for a ~3 m reach heavy arm.


def _pose_dict(position, quaternion=(1.0, 0.0, 0.0, 0.0)):
    return {"position_m": list(position), "quaternion_wxyz": list(quaternion)}


def _default_arm_dict(base_position, base_quaternion):
    return {
        "dh_rows": [
            [0.35, -math.pi / 2, 0.85, 0.0],
            [1.25, 0.0, 0.0, -math.pi / 2],
            [0.30, -math.pi / 2, 0.0, 0.0],
            [0.0, math.pi / 2, 1.10, 0.0],
            [0.0, -math.pi / 2, 0.0, 0.0],
            [0.0, 0.0, 0.24, math.pi],
        ],
        "joint_limits_rad": [
            [-3.0, 3.0],
            [-2.4, 2.4],
            [-2.9, 2.9],
            [-3.0, 3.0],
            [-2.2, 2.2],
            [-3.0, 3.0],
        ],
        "base_pose": _pose_dict(base_position, base_quaternion),
        "flange_offset": _pose_dict((0.0, 0.0, 0.0)),
        "joint_stiffness_nm_per_rad": [4e6, 4e6, 3e6, 1.5e6, 1.5e6, 1e6],
    }


def default_config_dict():
    """Illustrative two-robot cell: 4.25 m base spacing, 1 m^3 workspace
    between the robots, diagonal spring defaults.

    Arm 1 carries the module with its flange axis pointing at arm 2
    (tool hanging below); arm 2 grips the module from above, flange axis
    down. Tool orientation along paths is the world identity.
    """
    spring = np.diag([5e7, 5e7, 5e7, 5e5, 5e5, 5e5])
    h = math.sqrt(0.5)
    return {
        "schema_version": SCHEMA_VERSION,
        "dh_convention": "standard",
        "arm1": _default_arm_dict((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
        # Second robot faces the first (yaw pi).
        "arm2": _default_arm_dict((4.25, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)),
        "spring_matrix": [list(row) for row in spring],
        # Tool point 0.30 m below / 0.10 m ahead of the arm-1 flange, with
        # identity world orientation (flange frame: Ry(-pi/2)).
        "tool_offset": _pose_dict((0.30, 0.0, 0.10), (h, 0.0, -h, 0.0)),
        # Arm-2 flange attachment, 0.30 m towards arm 2 and 0.15 m up from
        # the arm-1 flange, flange axis down (world Rx(pi)).
        "flange2_offset": _pose_dict((-0.15, 0.0, 0.30), (0.0, h, 0.0, h)),
        "workspace_box": {"center_m": [2.125, 0.0, 1.10], "size_m": [1.0, 1.0, 1.0]},
        "modal_models": {
            "x": {"mass_kg": 60.0, "damping_ratio": 0.03, "f0_hz": 159.0,
                  "sensitivity_hz_per_n": 0.0226},
            "y": {"mass_kg": 60.0, "damping_ratio": 0.03, "f0_hz": 700.0,
                  "sensitivity_hz_per_n": 0.02},
            "z": {"mass_kg": 60.0, "damping_ratio": 0.03, "f0_hz": 200.0,
                  "sensitivity_hz_per_n": 0.01},
        },
        "defaults": dict(_DEFAULTS),
        "ik_seed1_rad": [0.0, 0.45, 0.34, 0.0, -0.79, 0.0],
        "ik_seed2_rad": [0.0, 0.54, -0.16, 0.0, 1.19, 0.0],
    }


def default_config() -> SystemConfig:
    return parse_config(default_config_dict())


def config_to_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"
