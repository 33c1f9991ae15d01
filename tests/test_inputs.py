"""JSON inputs read through one field-table checker, ``ioutil.typed_fields``:
the manifest, the bench config with its encoder profiles, and run records."""

import json

import pytest

from pacebench.cli import dispatch
from pacebench.dataset import load_manifest
from pacebench.errors import ConfigError, ManifestError
from pacebench.harness import (
    InputMode,
    OutputMode,
    RunMode,
    RunRecord,
    load_benchmark_config,
    load_run_record,
)
from pacebench.ioutil import INTEGER, NUMBER, OBJECT, STRING, array_of, optional, typed_fields
from pacebench.pacer import PacingReport

from synthetic import mock_profile


def _config() -> dict:
    return {
        "profiles": [{"name": "mock", "input_mode": "stdin_y4m", "output_mode": "file",
                      "command_template": list(mock_profile("mock").command_template)}],
        "sequences": ["SY25"], "bitrates_kbps": [800, 1600], "modes": ["unpaced"],
        "output_dir": "runs", "repetitions": 2, "manifest": "m.json",
        "metric_command": ["vmaf", "{report_out}"],
    }


def _manifest() -> list:
    return [{"name": "Blue sky", "short_name": "BS25", "path": "blue_sky.yuv", "fps_num": 25,
             "fps_den": 1, "width": 1920, "height": 1080, "pixel_format": "I420_8bit",
             "frame_count": 217, "duration_s": 8.68}]


def _record() -> dict:
    return RunRecord("p", "s", 800.0, RunMode.PACED, 1.0, 2, 2.0, 1, 800.0, 0,
                     pacing=PacingReport(2, 0.5, [0.0, 0.001], 0.25, 1.0)).to_dict()


def _write(tmp_path, document, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


class TestTypedFields:
    FIELDS = {"n": NUMBER, "i": optional(INTEGER), "names": array_of(STRING),
              "objects": optional(array_of(OBJECT))}

    def test_values_in_table_order_with_optional_keys_as_none(self):
        values = typed_fields({"names": ["a"], "n": 1.5, "i": None, "extra": 1}, self.FIELDS)
        assert values == {"n": 1.5, "i": None, "names": ["a"], "objects": None}
        assert list(values) == list(self.FIELDS)

    @pytest.mark.parametrize("data", [[1, 2], "names", None])
    def test_data_that_is_no_object_raises_type_error(self, data):
        with pytest.raises(TypeError, match="^expected a JSON object"):
            typed_fields(data, self.FIELDS)

    def test_missing_required_key_raises_key_error(self):
        with pytest.raises(KeyError, match="names"):
            typed_fields({"n": 1}, self.FIELDS)

    @pytest.mark.parametrize("data, message", [
        ({"n": True, "names": []}, "x.n must be a number, got True"),
        ({"n": None, "names": []}, "x.n must be a number, got None"),
        ({"n": 1, "i": 1.0, "names": []}, "x.i must be an integer or null, got 1.0"),
        ({"n": 1, "names": "a"}, "x.names must be an array of strings, got 'a'"),
        ({"n": 1, "names": ["a", 1]}, "x.names must be an array of strings, got ['a', 1]"),
        ({"n": 1, "names": [], "objects": [{}, []]},
         "x.objects must be an array of objects or null, got [{}, []]"),
    ])
    def test_wrong_type_names_the_field(self, data, message):
        with pytest.raises(TypeError) as err:
            typed_fields(data, self.FIELDS, "x.")
        assert str(err.value) == message

    def test_a_number_must_be_finite_an_array_element_only_of_its_type(self):
        with pytest.raises(ValueError, match="^n must be finite"):
            typed_fields({"n": float("inf"), "names": []}, self.FIELDS)
        assert typed_fields({"v": [float("nan"), 1]}, {"v": array_of(NUMBER)})["v"][1] == 1
        with pytest.raises(TypeError, match="^v must be an array of numbers"):
            typed_fields({"v": [1, True]}, {"v": array_of(NUMBER)})


# (loader, document, key path to the object holding the key, key, what absent reads as)
OPTIONAL_KEYS = [
    (load_benchmark_config, _config, (), "modes",
     lambda c: c.modes == (RunMode.PACED, RunMode.UNPACED)),
    (load_benchmark_config, _config, (), "repetitions", lambda c: c.repetitions == 1),
    (load_benchmark_config, _config, (), "manifest", lambda c: c.manifest is None),
    (load_benchmark_config, _config, (), "metric_command", lambda c: c.metric_command is None),
    (load_benchmark_config, _config, ("profiles", 0), "input_mode",
     lambda c: c.profiles[0].input_mode is InputMode.STDIN_RAW),
    (load_benchmark_config, _config, ("profiles", 0), "output_mode",
     lambda c: c.profiles[0].output_mode is OutputMode.FILE),
    (load_manifest, _manifest, (0,), "duration_s", lambda m: m[0].duration_s == 217 / 25),
    (load_run_record, _record, (), "pacing", lambda r: r.pacing is None),
]


@pytest.mark.parametrize("load, document, owner, key, default", OPTIONAL_KEYS,
                         ids=[case[3] for case in OPTIONAL_KEYS])
def test_absent_and_null_optional_key_load_alike(tmp_path, load, document, owner, key, default):
    loaded = []
    for absent in (True, False):
        data = document()
        target = data
        for step in owner:
            target = target[step]
        if absent:
            del target[key]
        else:
            target[key] = None
        loaded.append(load(_write(tmp_path, data)))
    assert loaded[0] == loaded[1]
    assert default(loaded[0])


class TestRefusedInputs:
    @pytest.mark.parametrize("manifest", [False, 0, [], {}, True])
    def test_non_string_manifest_exits_two(self, tmp_path, capsys, manifest):
        path = _write(tmp_path, {**_config(), "manifest": manifest})
        with pytest.raises(ConfigError, match="manifest must be a string"):
            load_benchmark_config(path)
        assert dispatch(["bench", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: config: ")

    def test_empty_string_manifest_is_a_path_that_fails_when_read(self, tmp_path, capsys):
        path = _write(tmp_path, {**_config(), "manifest": ""})
        assert load_benchmark_config(path).manifest == tmp_path
        assert dispatch(["bench", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: io: ")

    @pytest.mark.parametrize("profiles", [["x"], [1], [None], [[]], "mock"])
    def test_non_object_profile_names_profiles(self, tmp_path, profiles):
        path = _write(tmp_path, {**_config(), "profiles": profiles})
        with pytest.raises(ConfigError, match="profiles must be an array of objects"):
            load_benchmark_config(path)

    def test_empty_modes_refused_and_empty_metric_command_means_none(self, tmp_path):
        with pytest.raises(ConfigError, match="modes"):
            load_benchmark_config(_write(tmp_path, {**_config(), "modes": []}))
        config = load_benchmark_config(_write(tmp_path, {**_config(), "metric_command": []}))
        assert config.metric_command is None

    def test_missing_manifest_keys_are_named_one_at_a_time(self, tmp_path):
        data = _manifest()
        del data[0]["fps_num"], data[0]["width"]
        with pytest.raises(ManifestError) as err:
            load_manifest(_write(tmp_path, data))
        assert str(err.value) == "BS25: missing key 'fps_num'"

    def test_absolute_source_path_is_kept(self, tmp_path):
        data = _manifest()
        source = tmp_path / "elsewhere" / "blue_sky.yuv"
        data[0]["path"] = str(source)
        (tmp_path / "manifests").mkdir()
        assert load_manifest(_write(tmp_path / "manifests", data))[0].path == source
