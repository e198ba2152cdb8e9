import functools
import operator

import numpy as np
import pytest

from twinmill.config import load_config, parse_config
from twinmill.errors import ConfigError

from conftest import (
    DEMO_CONFIG,
    demo_config_dict,
    json_numbers,
    json_objects,
    json_replaced,
    json_with_a_repeated_key,
)


class TestParse:
    def test_demo_config_parses(self, cfg):
        assert cfg.system.arm1.dh_rows.shape == (6, 4)
        assert set(cfg.modal_models) == {"x", "y", "z"}
        np.testing.assert_allclose(cfg.workspace_center, [2.125, 0.0, 1.10])
        center, size = cfg.workspace_box
        assert size.shape == (3,)
        assert isinstance(cfg.defaults["max_iter"], int)

    def test_defaults_match_the_solver_keyword_defaults(self):
        import inspect

        from twinmill.pathplan import plan_sync

        kw = inspect.signature(plan_sync).parameters
        assert demo_config_dict()["defaults"] == {
            "tol_pos_m": kw["tol_pos"].default,
            "tol_rot_rad": kw["tol_rot"].default,
            "max_iter": kw["max_iter"].default,
            "chord_tol_m": kw["chord_tol"].default,
            "max_step_m": kw["max_step"].default,
            "joint_jump_max_rad": kw["joint_jump_max"].default,
        }

    def test_unknown_top_key_rejected(self):
        doc = demo_config_dict()
        doc["extra"] = 1
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert "config.extra" in str(exc.value)

    def test_missing_key_rejected(self):
        doc = demo_config_dict()
        del doc["spring_matrix"]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_unknown_nested_key_reports_path(self):
        doc = demo_config_dict()
        doc["arm1"]["payload_kg"] = 100
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert "config.arm1.payload_kg" in str(exc.value)

    def test_schema_version_checked(self):
        doc = demo_config_dict()
        doc["schema_version"] = 99
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.path == "config.schema_version"

    def test_dh_convention_checked(self):
        doc = demo_config_dict()
        doc["dh_convention"] = "modified"
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_bad_spring_matrix(self):
        doc = demo_config_dict()
        doc["spring_matrix"][0][1] = 1e3  # asymmetric
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.path == "config.spring_matrix"

    def test_bad_modal_parameter(self):
        doc = demo_config_dict()
        doc["modal_models"]["y"]["mass_kg"] = -1.0
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert "modal_models.y" in str(exc.value)

    def test_bad_workspace(self):
        doc = demo_config_dict()
        doc["workspace_box"]["size_m"] = [1.0, 0.0, 1.0]
        with pytest.raises(ConfigError):
            parse_config(doc)

    @pytest.mark.parametrize("key, value", [
        ("center_m", float("nan")), ("center_m", float("inf")), ("center_m", float("-inf")),
        ("size_m", float("nan")),
    ])
    def test_non_finite_center_or_nan_size_rejected(self, key, value):
        doc = demo_config_dict()
        doc["workspace_box"][key][1] = value
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.path == f"config.workspace_box.{key}[1]"

    @pytest.mark.parametrize("keys, path", [
        (("workspace_box", "center_m", 0), "config.workspace_box.center_m[0]"),
        (("workspace_box", "size_m", 2), "config.workspace_box.size_m[2]"),
        (("modal_models", "x", "mass_kg"), "config.modal_models.x.mass_kg"),
        (("ik_seed2_rad", 3), "config.ik_seed2_rad[3]"),
    ])
    def test_non_numeric_entry_rejected(self, keys, path):
        doc = demo_config_dict()
        entry = doc
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = "abc"
        with pytest.raises(ConfigError) as exc:
            parse_config(doc)
        assert exc.value.path == path

    @pytest.mark.parametrize("key", ["mass_kg", "f0_hz", "sensitivity_hz_per_n"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_modal_parameter_rejected(self, key, value):
        doc = demo_config_dict()
        doc["modal_models"]["z"][key] = value
        with pytest.raises(ConfigError, match="finite") as exc:
            parse_config(doc)
        assert exc.value.path == f"config.modal_models.z.{key}"

    @pytest.mark.parametrize("key", ["tol_pos_m", "tol_rot_rad", "chord_tol_m", "max_step_m",
                                     "joint_jump_max_rad"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-6, "1e-6", True, None])
    def test_bad_tolerance_or_step_rejected(self, key, value):
        doc = demo_config_dict()
        doc["defaults"][key] = value
        with pytest.raises(ConfigError, match="positive finite number") as exc:
            parse_config(doc)
        assert exc.value.path == f"config.defaults.{key}"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.7, 0, -3, True, "200"])
    def test_bad_max_iter_rejected(self, value):
        doc = demo_config_dict()
        doc["defaults"]["max_iter"] = value
        with pytest.raises(ConfigError, match="integer >= 1") as exc:
            parse_config(doc)
        assert exc.value.path == "config.defaults.max_iter"

    def test_integral_defaults_accepted(self):
        doc = demo_config_dict()
        doc["defaults"].update(max_iter=50.0, max_step_m=1)
        defaults = parse_config(doc).defaults
        assert defaults["max_iter"] == 50 and isinstance(defaults["max_iter"], int)
        assert defaults["max_step_m"] == 1.0 and isinstance(defaults["max_step_m"], float)

    def test_identical_bases_rejected(self):
        doc = demo_config_dict()
        doc["arm2"]["base_pose"] = doc["arm1"]["base_pose"]
        with pytest.raises(ConfigError):
            parse_config(doc)

    @pytest.mark.parametrize("bad", [True, "1", None, float("nan"), float("inf")])
    def test_every_number_refuses_a_non_number(self, bad):
        """Each number of the document in turn replaced by `bad` is refused,
        naming exactly that element."""
        doc = demo_config_dict()
        numbers = json_numbers(doc, "config")
        assert len(numbers) == 199
        for path, keys in numbers:
            with pytest.raises(ConfigError) as exc:
                parse_config(json_replaced(doc, keys, bad))
            assert exc.value.path == path

    def test_every_object_refuses_an_unknown_key(self):
        doc = demo_config_dict()
        objects = json_objects(doc, "config")
        assert len(objects) == 15
        for path, keys in objects:
            with pytest.raises(ConfigError, match="unknown key") as exc:
                parse_config(json_replaced(doc, keys + ("bogus",), 1))
            assert exc.value.path == f"{path}.bogus"

    def test_bad_seed_length(self):
        doc = demo_config_dict()
        doc["ik_seed1_rad"] = [0.0, 0.0]
        with pytest.raises(ConfigError):
            parse_config(doc)


class TestLoad:
    def test_load_from_file(self):
        cfg = load_config(DEMO_CONFIG)
        assert cfg.system.arm2.base_pose.position[0] == 4.25

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_every_object_refuses_a_repeated_key(self, tmp_path):
        """A key given twice in any object of the file is refused naming it,
        in the message and as `path`; json.loads alone keeps the last value."""
        doc = demo_config_dict()
        objects = json_objects(doc, "config")
        assert len(objects) == 15
        p = tmp_path / "repeated.json"
        for path, keys in objects:
            key = next(iter(functools.reduce(operator.getitem, keys, doc)))
            p.write_text(json_with_a_repeated_key(doc, keys, key, 1))
            with pytest.raises(ConfigError, match="repeated key") as exc:
                load_config(p)
            assert exc.value.path == f"{path}.{key}"
            assert exc.value.path in str(exc.value)
