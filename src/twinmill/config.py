"""System configuration: strict JSON schema tying together both arms, the
coupling-module spring, cell geometry, modal models and solver defaults.

The document is read by `jsondoc`: JSON numbers only, no repeated,
unknown or missing key, and bad data is refused naming its exact schema
path, so unit mistakes (e.g. a misspelled stiffness key silently falling
back to a default) cannot slip through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jsondoc, kinematics, pathplan
from .errors import ConfigError, InvalidInputError
from .geometry import frozen
from .kinematics import ArmModel
from .modal import AXES, ModalModel
from .stiffness import CoupledSystem, SpringModel

SCHEMA_VERSION = 1

_DEFAULTS = {
    "tol_pos_m": kinematics.DEFAULT_TOL_POS,
    "tol_rot_rad": kinematics.DEFAULT_TOL_ROT,
    "max_iter": kinematics.DEFAULT_MAX_ITER,
    "chord_tol_m": pathplan.DEFAULT_CHORD_TOL,
    "max_step_m": pathplan.DEFAULT_MAX_STEP,
    "joint_jump_max_rad": pathplan.DEFAULT_JOINT_JUMP_MAX,
}


@dataclass(frozen=True)
class SystemConfig:
    system: CoupledSystem
    workspace_box: tuple  # (center, size) arrays in m
    modal_models: dict
    defaults: dict
    ik_seed1: np.ndarray
    ik_seed2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "workspace_box", tuple(frozen(v) for v in self.workspace_box))
        object.__setattr__(self, "ik_seed1", frozen(self.ik_seed1))
        object.__setattr__(self, "ik_seed2", frozen(self.ik_seed2))


def _arm(d, where):
    jsondoc.obj(d, where, ("dh_rows", "joint_limits_rad", "base_pose", "flange_offset",
                           "joint_stiffness_nm_per_rad"))
    return jsondoc.build(ArmModel, where,
                         jsondoc.array(d["dh_rows"], (6, 4), f"{where}.dh_rows"),
                         jsondoc.array(d["joint_limits_rad"], (6, 2), f"{where}.joint_limits_rad"),
                         jsondoc.pose(d["base_pose"], f"{where}.base_pose"),
                         jsondoc.pose(d["flange_offset"], f"{where}.flange_offset"),
                         joint_stiffness=jsondoc.array(d["joint_stiffness_nm_per_rad"], (6,),
                                                       f"{where}.joint_stiffness_nm_per_rad"))


def _modal_model(d, axis):
    where = f"config.modal_models.{axis}"
    keys = ("mass_kg", "damping_ratio", "f0_hz", "sensitivity_hz_per_n")  # ModalModel's field order
    jsondoc.obj(d, where, keys)
    return jsondoc.build(ModalModel, where, axis, *(jsondoc.number(d[k], f"{where}.{k}") for k in keys))


def _parse(doc) -> SystemConfig:
    jsondoc.obj(doc, "config", ("schema_version", "dh_convention", "arm1", "arm2", "spring_matrix",
                                "tool_offset", "flange2_offset", "workspace_box", "modal_models",
                                "defaults", "ik_seed1_rad", "ik_seed2_rad"))
    if jsondoc.count(doc["schema_version"], "config.schema_version") != SCHEMA_VERSION:
        raise InvalidInputError(f"config.schema_version: expected {SCHEMA_VERSION}, "
                                f"got {doc['schema_version']}", path="config.schema_version")
    if doc["dh_convention"] != "standard":
        raise InvalidInputError("config.dh_convention: only 'standard' Denavit-Hartenberg "
                                "is supported", path="config.dh_convention")
    arm1 = _arm(doc["arm1"], "config.arm1")
    arm2 = _arm(doc["arm2"], "config.arm2")
    spring = jsondoc.build(SpringModel, "config.spring_matrix",
                           jsondoc.array(doc["spring_matrix"], (6, 6), "config.spring_matrix"))
    system = jsondoc.build(CoupledSystem, "config", arm1, arm2, spring,
                           jsondoc.pose(doc["tool_offset"], "config.tool_offset"),
                           jsondoc.pose(doc["flange2_offset"], "config.flange2_offset"))
    box = jsondoc.obj(doc["workspace_box"], "config.workspace_box", ("center_m", "size_m"))
    models = jsondoc.obj(doc["modal_models"], "config.modal_models", AXES)
    defaults = jsondoc.obj(doc["defaults"], "config.defaults", tuple(_DEFAULTS))
    return SystemConfig(
        system=system,
        workspace_box=(jsondoc.array(box["center_m"], (3,), "config.workspace_box.center_m"),
                       jsondoc.array(box["size_m"], (3,), "config.workspace_box.size_m", jsondoc.positive)),
        modal_models={axis: _modal_model(models[axis], axis) for axis in AXES},
        # max_iter an integer >= 1, every tolerance and step a positive finite number.
        defaults={k: (jsondoc.count if isinstance(v, int) else jsondoc.positive)(
            defaults[k], f"config.defaults.{k}") for k, v in _DEFAULTS.items()},
        ik_seed1=jsondoc.array(doc["ik_seed1_rad"], (6,), "config.ik_seed1_rad"),
        ik_seed2=jsondoc.array(doc["ik_seed2_rad"], (6,), "config.ik_seed2_rad"),
    )


def parse_config(text) -> SystemConfig:
    """The SystemConfig of a config document's JSON text, decoded by
    `jsondoc.loads`, so a repeated key is refused as any other bad data:
    by a ConfigError whose `path` names the element, e.g.
    `config.arm1.dh_rows[0][2]`."""
    try:
        return _parse(jsondoc.loads(text, "config"))
    except InvalidInputError as exc:
        raise ConfigError(str(exc), path=exc.path) from exc


def load_config(path) -> SystemConfig:
    """The SystemConfig of the config file at `path`, by `parse_config`. A
    refusal without a schema path (a file that cannot be read or is not
    JSON) names the file; each refusal carries the file as `file`."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}", file=path) from exc
    try:
        return parse_config(text)
    except ConfigError as exc:
        raise exc.within("" if exc.path is not None else f"config file {path}: ", file=path)
