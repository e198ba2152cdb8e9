import functools
import json
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
        center, size = cfg.workspace_box
        np.testing.assert_allclose(center, [2.125, 0.0, 1.10])
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

    def test_integral_defaults_accepted(self):
        doc = demo_config_dict()
        doc["defaults"].update(max_iter=50.0, max_step_m=1)
        defaults = parse_config(json.dumps(doc)).defaults
        assert defaults["max_iter"] == 50 and isinstance(defaults["max_iter"], int)
        assert defaults["max_step_m"] == 1.0 and isinstance(defaults["max_step_m"], float)

    @pytest.mark.parametrize("bad", [True, "1", None, float("nan"), float("inf")])
    def test_every_number_refuses_a_non_number(self, bad):
        """Each number of the document in turn replaced by `bad` is refused,
        naming exactly that element."""
        doc = demo_config_dict()
        numbers = json_numbers(doc, "config")
        assert len(numbers) == 199
        for path, keys in numbers:
            with pytest.raises(ConfigError) as exc:
                parse_config(json.dumps(json_replaced(doc, keys, bad)))
            assert exc.value.path == path

    def test_every_object_refuses_an_unknown_key(self):
        doc = demo_config_dict()
        objects = json_objects(doc, "config")
        assert len(objects) == 15
        for path, keys in objects:
            with pytest.raises(ConfigError, match="unknown key") as exc:
                parse_config(json.dumps(json_replaced(doc, keys + ("bogus",), 1)))
            assert exc.value.path == f"{path}.bogus"


class TestLoad:
    def test_load_from_file(self):
        cfg = load_config(DEMO_CONFIG)
        assert cfg.system.arm2.base_pose.position[0] == 4.25

    def test_missing_file(self, tmp_path):
        """The refusal embeds Python's own text of the OSError."""
        p = tmp_path / "nope.json"
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert isinstance(exc.value.__cause__, FileNotFoundError)
        assert str(exc.value) == f"cannot read config file {p}: {exc.value.__cause__}"
        assert (exc.value.index, exc.value.line, exc.value.path, exc.value.arm, exc.value.file) == (None,) * 4 + (p,)

    def test_invalid_json(self, tmp_path):
        """The refusal embeds the json decoder's own text."""
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(json.JSONDecodeError) as decoder:
            json.loads("{not json")
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert str(exc.value) == f"config file {p}: config is not valid JSON: {decoder.value}"
        assert (exc.value.index, exc.value.line, exc.value.path, exc.value.arm, exc.value.file) == (None,) * 4 + (p,)

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
            for read in (load_config, lambda p: parse_config(p.read_text())):
                with pytest.raises(ConfigError, match="repeated key") as exc:
                    read(p)
                assert exc.value.path == f"{path}.{key}"
                assert exc.value.path in str(exc.value)
