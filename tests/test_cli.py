import dataclasses
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fairdp.dataset as dataset_mod
from fairdp import evaluation
from fairdp.cli import (
    CLIError,
    _schema_from_kv,
    build_parser,
    load_encoded_dataset,
    main,
    parse_keyvalue_file,
)
from fairdp.dataset import RemoteFile, Schema
from fairdp.mechanisms import compose_split_epsilon, gaussian_sigma, split_total_delta

from toys import (
    FIXTURE_DIR,
    GOLDEN_DIR,
    MANIFEST_GOLDEN_RUNS,
    TOY_CSV,
    TOY_SCHEMA,
    manifest_for_golden,
)


README = Path(__file__).parent.parent / "README.md"
ADULT_SCHEMA = Path(__file__).parent.parent / "schemas" / "adult.schema"


def read_json(path):
    return json.loads(Path(path).read_text())


class TestConfigParsing:
    def test_keyvalue_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nmethod = pdfc\neps = 1.0\n\nout = runs/x\n")
        assert parse_keyvalue_file(path) == {
            "method": "pdfc", "eps": "1.0", "out": "runs/x"
        }

    def test_keyvalue_value_with_equals(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("label_positive = >50K=weird\n")
        assert parse_keyvalue_file(path)["label_positive"] == ">50K=weird"

    def test_schema_file(self):
        schema = _schema_from_kv(parse_keyvalue_file(TOY_SCHEMA), TOY_SCHEMA)
        assert schema.label == "income"
        assert schema.protected_positive == "Male"
        assert (schema.numeric, schema.categorical) == (("age", "hours"), ("dept",))

    def test_schema_missing_keys(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("label = income\n")
        with pytest.raises(CLIError, match="missing schema keys"):
            _schema_from_kv(parse_keyvalue_file(path), str(path))


class TestTrain:
    def test_pdfc_golden_model_file(self, tmp_path, capsys):
        rc = main([
            "train", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
            "--method", "pdfc", "--eps", "1.0", "--s-attr", "hours",
            "--seed", "3", "--out", str(tmp_path),
        ])
        assert rc == 0
        produced = (tmp_path / "model.json").read_text()
        assert produced == (GOLDEN_DIR / "cli_train_model.json").read_text()
        line = capsys.readouterr().out.strip()
        assert line.startswith("PDFC eps=1 ")
        assert "acc=" in line and "rd=" in line

    def test_rerun_byte_identical(self, tmp_path):
        args = [
            "train", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
            "--method", "adfc", "--eps", "0.5", "--delta", "1e-3",
            "--seed", "11", "--out",
        ]
        assert main(args + [str(tmp_path / "a")]) == 0
        assert main(args + [str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/model.json").read_bytes() == \
            (tmp_path / "b/model.json").read_bytes()
        assert (tmp_path / "a/manifest.json").read_bytes() == \
            (tmp_path / "b/manifest.json").read_bytes()

    def test_manifest_contents(self, tmp_path):
        main([
            "train", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
            "--method", "fm", "--eps", "2.0", "--seed", "4", "--out", str(tmp_path),
        ])
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["seed"] == 4
        assert manifest["config"]["method"] == "FM"
        assert manifest["config"]["schema"]["protected_positive"] == "Male"
        assert len(manifest["dataset_fingerprint"]) == 64
        assert manifest["outputs"] == ["model.json"]

    @pytest.mark.parametrize("flags, read", [
        (["--method", "fm", "--eps", "1", "--eps-s", "0.01", "--delta", "0.5"], {"eps": 1.0}),
        (["--method", "pdfc", "--eps", "1", "--delta-s", "1e-3"],
         {"eps": 1.0, "eps_s": 1.0, "eps_n": 1.0}),
        (["--method", "lr", "--eps", "1"], {}),
    ])
    def test_manifest_records_only_budgets_read(self, tmp_path, flags, read):
        # Budgets the method never reads used to be recorded as given.
        assert main(["train", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
                     "--out", str(tmp_path), *flags]) == 0
        config = read_json(tmp_path / "manifest.json")["config"]
        names = ("eps", "delta", "eps_s", "eps_n", "delta_s", "delta_n")
        assert {k: config[k] for k in names} == {**dict.fromkeys(names), **read}

    def test_missing_dataset_path_fails_before_compute(self, tmp_path, capsys):
        rc = main([
            "train", "--dataset", str(tmp_path / "nope.csv"), "--schema", TOY_SCHEMA,
            "--method", "fm", "--eps", "1.0",
        ])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_dataset_directory_is_an_input_error(self, tmp_path, capsys):
        rc = main([
            "train", "--dataset", str(tmp_path), "--schema", TOY_SCHEMA,
            "--method", "fm", "--eps", "1.0", "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {tmp_path}: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_oversized_cell_is_a_parse_error(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        lines = Path(TOY_CSV).read_text().splitlines()
        data.write_text("\n".join([*lines[:3], "x" * 200_000, *lines[3:]]) + "\n")
        rc = main([
            "train", "--dataset", str(data), "--schema", TOY_SCHEMA,
            "--method", "fm", "--eps", "1.0", "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: big.csv: line 4: field larger than field limit")
        assert not (tmp_path / "out").exists()

    def test_adfc_without_delta_rejected(self, capsys):
        rc = main([
            "train", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
            "--method", "adfc", "--eps", "1.0",
        ])
        assert rc == 2
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, text", [
        (["--method", "fm"], "method FM requires eps"),
        (["--method", "relaxedfm", "--delta", "1e-3"], "method RelaxedFM requires eps"),
        (["--method", "relaxedfm", "--eps", "1"], "method RelaxedFM requires delta"),
        (["--method", "pdfc", "--eps-s", "1"],
         "method PDFC requires eps or both eps_s and eps_n"),
        (["--method", "adfc", "--eps-n", "1", "--delta", "1e-3"],
         "method ADFC requires eps or both eps_s and eps_n"),
        (["--method", "adfc", "--eps", "1", "--delta-s", "1e-3"],
         "method ADFC requires delta or both delta_s and delta_n"),
    ])
    def test_missing_budget_texts(self, tmp_path, capsys, flags, text):
        rc = main(["train", "--dataset", str(tmp_path / "missing.csv"),
                   "--schema", TOY_SCHEMA, *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {text}\n"

    @pytest.mark.parametrize("flags, delta", [
        (["--method", "relaxed-fm", "--eps", "1", "--delta", "0.9"], 0.9),
        (["--method", "adfc", "--eps", "1", "--delta", "0.97"], split_total_delta(0.97)),
        (["--method", "adfc", "--eps", "1", "--delta-s", "1e-3", "--delta-n", "0.8"], 0.8),
    ])
    def test_delta_past_the_gaussian_calibration_fails_before_data(self, tmp_path, capsys,
                                                                    flags, delta):
        # It used to fail only after the CSV was read and encoded, and with a
        # missing --dataset it reported that instead.
        with pytest.raises(ValueError) as exc:
            gaussian_sigma(1.0, delta, 1.0)
        rc = main(["train", "--dataset", str(tmp_path / "missing.csv"),
                   "--schema", TOY_SCHEMA, *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("flags, text", [
        (["--method", "pdfc", "--eps", "5", "--eps-s", "0.1"],
         "method PDFC takes both eps_s and eps_n, or neither"),
        (["--method", "adfc", "--eps", "1", "--delta", "1e-3", "--delta-s", "1e-9"],
         "method ADFC takes both delta_s and delta_n, or neither"),
    ])
    def test_half_budget_pair_fails_before_data(self, tmp_path, capsys, flags, text):
        # Half a pair used to be replaced by the total without a word.  The
        # dataset path does not exist: the pair check must trip first.
        out = tmp_path / "out"
        rc = main(["train", "--dataset", str(tmp_path / "missing.csv"), "--schema", TOY_SCHEMA,
                   "--out", str(out), *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {text}\n"
        assert not out.exists()

    def test_bad_budget_rejected_before_data(self, tmp_path, capsys):
        # dataset path does not exist: budget validation must trip first
        rc = main([
            "train", "--dataset", str(tmp_path / "missing.csv"), "--schema",
            TOY_SCHEMA, "--method", "fm", "--eps", "-1.0",
        ])
        assert rc == 2
        assert capsys.readouterr().err == "error: eps must be finite and positive, got -1.0\n"

    @pytest.mark.parametrize("flags, name", [
        (["--method", "fm", "--eps", "nan"], "--eps"),
        (["--method", "fm", "--eps", "inf"], "--eps"),
        (["--method", "pdfc", "--eps", "1", "--eps-s", "inf", "--eps-n", "1"], "--eps-s"),
        (["--method", "fm", "--eps", "1", "--alpha1", "nan"], "alpha1"),
        (["--method", "fm", "--eps", "1", "--alpha1", "inf"], "alpha1"),
        (["--method", "lr", "--eps", "1", "--delta", "5"], "--delta"),  # checked, though unread
    ])
    def test_bad_input_fails_before_data(self, tmp_path, capsys, flags, name):
        # The dataset path does not exist: the input check must trip first,
        # exit 2 and write nothing.  The error names the option as its
        # config key.
        out = tmp_path / "out"
        rc = main([
            "train", "--dataset", str(tmp_path / "missing.csv"), "--schema", TOY_SCHEMA,
            "--out", str(out), *flags,
        ])
        assert rc == 2
        key = name.lstrip("-").replace("-", "_")
        assert capsys.readouterr().err.startswith(f"error: {key} must be ")
        assert not out.exists()

    def test_unknown_method(self, capsys):
        rc = main([
            "train", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
            "--method", "svm", "--eps", "1.0",
        ])
        assert rc == 2
        assert "unknown method" in capsys.readouterr().err

    def test_headerless_file_with_columns_key(self, tmp_path):
        data = tmp_path / "plain.csv"
        lines = Path(TOY_CSV).read_text().splitlines()[1:]
        data.write_text("\n".join(lines) + "\n")
        schema = tmp_path / "plain.schema"
        schema.write_text(
            "columns = age, hours, dept, sex, income\n"
            + Path(TOY_SCHEMA).read_text()
        )
        rc = main([
            "train", "--dataset", str(data), "--schema", str(schema),
            "--method", "fm", "--eps", "1.0", "--seed", "2",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        assert read_json(tmp_path / "out" / "model.json")["method"] == "FM"

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"dataset = {TOY_CSV}\nschema = {TOY_SCHEMA}\n"
            "method = fm\neps = 1.0\nseed = 9\n"
        )
        out1 = tmp_path / "o1"
        assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
        model = read_json(out1 / "model.json")
        assert model["method"] == "FM"
        assert model["budgets"]["epsilon"] == 1.0
        # explicit flag wins over the file value
        out2 = tmp_path / "o2"
        assert main(["train", "--config", str(cfg), "--eps", "2.0",
                     "--out", str(out2)]) == 0
        assert read_json(out2 / "model.json")["budgets"]["epsilon"] == 2.0

    def test_columns_key_count_mismatch_names_line(self, tmp_path, capsys):
        # A columns key whose length does not match the file fails on the
        # first mismatching line.
        data = tmp_path / "d.csv"
        data.write_text("".join(Path(TOY_CSV).read_text().splitlines(True)[1:]))
        schema = tmp_path / "d.schema"
        schema.write_text("columns = age, hours, dept, sex\n" + Path(TOY_SCHEMA).read_text())
        out = tmp_path / "out"
        rc = main(["train", "--dataset", str(data), "--schema", str(schema),
                   "--method", "lr", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: d.csv: line 1 has 5 cells, expected 4\n"
        assert not out.exists()


@pytest.mark.parametrize("command", [
    ["train", "--method", "fm", "--eps", "1.0"],
    ["sweep", "--methods", "fm", "--runs", "1"],
])
def test_out_naming_a_file_fails_before_data(tmp_path, capsys, command):
    # The dataset path does not exist: the --out check must trip first.
    out = tmp_path / "taken"
    out.write_text("keep\n")
    rc = main([*command, "--dataset", str(tmp_path / "missing.csv"),
               "--schema", TOY_SCHEMA, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: --out {out} exists and is not a directory\n"
    assert out.read_text() == "keep\n"


@pytest.mark.parametrize("command", [
    ["train", "--method", "fm", "--eps", "1.0"],
    ["sweep", "--methods", "fm", "--runs", "1"],
])
def test_unwritable_out_is_an_input_error(tmp_path, capsys, command):
    # --out below a file cannot be made; the error names the path, no traceback.
    (tmp_path / "file").write_text("keep\n")
    out = tmp_path / "file" / "sub"
    rc = main([*command, "--dataset", TOY_CSV, "--schema", TOY_SCHEMA, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["train", "--method", "pdfc", "--eps", "1.0"],
    ["sweep", "--methods", "fm,pdfc", "--eps", "1.0", "--runs", "2"],
])
def test_one_prediction_per_fit_and_no_raw_table_held(tmp_path, monkeypatch, command):
    # train scores its model from one prediction; a sweep scores each run's
    # models in one batch.  That set-up holds no table of text cells is
    # checked in test_dataset.py's TestMemory.
    calls = []
    real_predict, real_score_all = evaluation.predict_labels, evaluation.score_all

    def counted_predict(model, X):
        calls.append("predict_labels")
        return real_predict(model, X)

    def counted_score_all(models, test):
        calls.append(("score_all", len(models)))
        return real_score_all(models, test)

    monkeypatch.setattr(evaluation, "predict_labels", counted_predict)
    monkeypatch.setattr(evaluation, "score_all", counted_score_all)
    assert main([*command, "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
                 "--out", str(tmp_path)]) == 0
    # The sweep's two keys (FM and PDFC at eps 1) score far from 0 on every
    # toy row, so neither is predicted again.
    assert calls == (["predict_labels"] if command[0] == "train" else [("score_all", 2)] * 2)


@pytest.mark.parametrize("command", [
    ["train", "--method", "fm", "--eps", "1.0"],
    ["sweep", "--methods", "fm", "--runs", "1"],
])
def test_missing_config_file_is_an_input_error(tmp_path, capsys, command):
    missing = tmp_path / "nonexistent.cfg"
    rc = main([*command, "--config", str(missing), "--dataset", TOY_CSV,
               "--schema", TOY_SCHEMA, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, line, key", [
    *((command, line, key) for command in ("train", "sweep")
      for line, key in (("sed = 5", "sed"), ("label = income", "label"),
                        ("add-constant-feature = true", "add_constant_feature"),
                        ("test-fraction = 0.3", "test_fraction"))),
    ("train", "runs = 2", "runs"),  # a sweep option
])
def test_config_key_that_is_no_option_is_an_error(tmp_path, capsys, command, line, key):
    # Only the command's own options may appear in its --config file; the
    # dataset path does not exist, so the key check must trip first.
    config = tmp_path / "c.cfg"
    config.write_text(f"seed = 1\n{line}\n")
    flags = {"train": ["--method", "fm", "--eps", "1.0"], "sweep": ["--methods", "fm"]}
    rc = main([command, *flags[command], "--config", str(config),
               "--dataset", str(tmp_path / "missing.csv"), "--schema", TOY_SCHEMA,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {config}: {key!r} is not an option of fairdp {command}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["train", "--method", "fm", "--eps", "1.0"],
    ["sweep", "--methods", "fm"],
])
def test_repeated_config_key_is_an_error(tmp_path, capsys, command):
    # The dash and underscore spellings of one option are one key.
    config = tmp_path / "c.cfg"
    config.write_text("s-attr = hours\n# the same option again\ns_attr = dept\n")
    rc = main([*command, "--config", str(config), "--dataset", TOY_CSV,
               "--schema", TOY_SCHEMA, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {config}: lines 1 and 3: repeated key 's_attr'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, key", [
    ("add-constant-feature = true", "add-constant-feature"),
    ("numerc = hours", "numerc"),
    ("add_constant_feature = false", "add_constant_feature"),  # a removed key
])
def test_unknown_schema_key_is_an_error(tmp_path, capsys, line, key):
    # A misspelt key used to be dropped, and the run recorded the default.
    schema = tmp_path / "s.schema"
    schema.write_text(Path(TOY_SCHEMA).read_text() + line + "\n")
    out = tmp_path / "out"
    rc = main(["train", "--dataset", TOY_CSV, "--schema", str(schema), "--method", "lr",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {schema}: unknown schema key {key!r}\n"
    assert not out.exists()


BOOLEAN_KEYS = ("include_protected_in_features",)


@pytest.mark.parametrize("key", BOOLEAN_KEYS)
@pytest.mark.parametrize("word, value", [("true", True), ("YES", True), ("1", True),
                                         ("False", False), ("no", False), ("0", False)])
def test_schema_boolean_words(tmp_path, key, word, value):
    schema = tmp_path / "s.schema"
    schema.write_text(Path(TOY_SCHEMA).read_text() + f"{key} = {word}\n")
    assert getattr(load_encoded_dataset(TOY_CSV, schema)[1], key) is value


@pytest.mark.parametrize("key", BOOLEAN_KEYS)
@pytest.mark.parametrize("word", ["ture", "true  # note", "", "on"])
def test_schema_boolean_typo_is_an_error(tmp_path, capsys, key, word):
    # Any word but true/yes/1 used to read as false, and the run recorded false.
    schema = tmp_path / "s.schema"
    schema.write_text(Path(TOY_SCHEMA).read_text() + f"{key} = {word}\n")
    out = tmp_path / "out"
    rc = main(["train", "--dataset", TOY_CSV, "--schema", str(schema), "--method", "lr",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"error: {schema}: {key} must be true or false, got {word!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", ["", "include_protected_in_features = true\n"])
def test_protected_listed_as_feature_is_an_error(tmp_path, capsys, flag):
    # Listed and flagged, sex used to be encoded twice: sex=Male equalled sex.
    schema = tmp_path / "s.schema"
    schema.write_text(Path(TOY_SCHEMA).read_text().replace(
        "categorical = dept", "categorical = dept, sex") + flag)
    out = tmp_path / "out"
    rc = main(["train", "--dataset", TOY_CSV, "--schema", str(schema), "--method", "lr",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == \
        f"error: {schema}: 'sex' is the protected column and may not also be a feature\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--method", "adfc", "--eps", "1", "--delta", "1e-5", "--alpha1", "1e200"],
    ["--method", "pdfc", "--eps", "1", "--alpha1", "1e308"],
])
def test_alpha1_whose_bound_overflows_is_named(tmp_path, capsys, argv):
    # ADFC used to exit 1 with an OverflowError traceback, and PDFC to blame eps_s.
    out = tmp_path / "out"
    rc = main(["train", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA, *argv, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: alpha1 {float(argv[-1])} gives a "
                                              "non-finite sensitivity bound")
    assert not out.exists()


def test_sweep_point_whose_bound_overflows_names_alpha1(tmp_path):
    rc = main(["sweep", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA, "--methods", "lr,adfc",
               "--eps", "1", "--delta", "1e-3", "--alpha1", "1e200", "--runs", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    points = read_json(tmp_path / "report.json")["points"]
    assert [p["error"] is None for p in points] == [True, False]
    assert points[1]["error"].startswith("ValueError: alpha1 1e+200 ")


def test_solve_that_overflows_is_an_error_and_fails_its_point(tmp_path, capsys):
    # A huge but finite alpha1 used to exit 0 and write "residual_inf": NaN.
    out = tmp_path / "out"
    rc = main(["train", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA, "--method", "pdfc",
               "--eps", "1", "--alpha1", "1e300", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: the quadratic solve overflows at alpha1 1e+300, eps_s 1.0 and eps_n 1.0: "
        "its weights or residual are not finite\n")
    assert not out.exists()
    rc = main(["sweep", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA, "--methods", "lr,pdfc",
               "--eps", "1", "--alpha1", "1e300", "--runs", "1", "--out", str(out)])
    assert rc == 0
    points = read_json(out / "report.json")["points"]
    assert [p["failed"] for p in points] == [False, True]
    assert points[1]["error"].startswith("ValueError: the quadratic solve overflows at ")
    assert "NaN" not in (out / "report.json").read_text()


@pytest.mark.parametrize("method", ["pdfc", "adfc"])
def test_protected_attribute_as_the_split_budget_attribute(tmp_path, method):
    # The paper's configuration: the protected attribute is a feature and
    # gets its own budget, eps_s/d + eps_n(d-1)/d counting it among the d.
    schema = tmp_path / "s.schema"
    schema.write_text(Path(TOY_SCHEMA).read_text() + "include_protected_in_features = true\n")
    out = tmp_path / "out"
    assert main(["train", "--dataset", TOY_CSV, "--schema", str(schema), "--method", method,
                 "--eps-s", "0.5", "--eps-n", "2", "--delta", "1e-3", "--s-attr", "sex",
                 "--out", str(out)]) == 0
    ds = load_encoded_dataset(TOY_CSV, schema)[0]
    assert ds.feature_names[-1] == "sex"
    model = read_json(out / "model.json")
    assert len(model["w"]) == ds.d
    assert model["budgets"]["s_index"] == ds.d - 1
    if method == "pdfc":
        assert model["budgets"]["epsilon"] == compose_split_epsilon(0.5, 2.0, ds.d)


@pytest.mark.parametrize("features, text", [
    ("numeric = \ncategorical = \n", "schema lists no feature columns"),
    ("include_protected_in_features = true\n", None),
])
def test_schema_needs_a_feature_column(tmp_path, capsys, features, text):
    # The flag alone selects the protected column, for the CLI as for the library.
    schema = tmp_path / "s.schema"
    schema.write_text("".join(line + "\n" for line in Path(TOY_SCHEMA).read_text().splitlines()
                              if not line.startswith(("numeric", "categorical"))) + features)
    rc = main(["train", "--dataset", TOY_CSV, "--schema", str(schema), "--method", "fairlr",
               "--out", str(tmp_path / "out")])
    if text is None:
        assert rc == 0
        assert len(read_json(tmp_path / "out" / "model.json")["w"]) == 1
    else:
        assert rc == 2
        assert capsys.readouterr().err == f"error: {schema}: {text}\n"


def test_repeated_schema_key_is_an_error(tmp_path):
    # A second numeric line would silently drop the first one's columns.
    schema = tmp_path / "s.schema"
    schema.write_text(Path(TOY_SCHEMA).read_text() + "numeric = hours\n")
    with pytest.raises(CLIError) as exc:
        load_encoded_dataset(TOY_CSV, schema)
    assert str(exc.value) == f"{schema}: lines 6 and 8: repeated key 'numeric'"


@pytest.mark.parametrize("command, line, text", [
    (["train", "--method", "fm", "--eps", "1"], "seed = abc",
     "--seed expects an integer, got 'abc'"),
    (["train", "--method", "fm", "--eps", "1"], "alpha1 = x",
     "--alpha1 expects a number, got 'x'"),
    (["sweep", "--methods", "fm"], "alpha1 = 2x", "--alpha1 expects a number, got '2x'"),
    (["train", "--method", "fm"], "eps = one", "--eps expects a number, got 'one'"),
    (["train", "--method", "pdfc", "--eps", "1"], "eps_s = ?",
     "--eps-s expects a number, got '?'"),
    (["sweep", "--methods", "fm"], "runs = 2.5", "--runs expects an integer, got '2.5'"),
    (["sweep", "--methods", "fm"], "eps = 0.1, x", "--eps expects a number, got 'x'"),
    (["sweep", "--methods", "relaxedfm"], "delta = 1e-3,?",
     "--delta expects a number, got '?'"),
    (["sweep", "--methods", "fm"], "eps = ,", "--eps expects a comma list of numbers, got ','"),
    (["sweep", "--methods", "fm"], "eps =", "--eps expects a comma list of numbers, got ''"),
    (["sweep", "--methods", "relaxedfm"], "delta =",
     "--delta expects a comma list of numbers, got ''"),
])
def test_unconvertible_config_value_names_the_option(tmp_path, capsys, command, line, text):
    # The dataset path does not exist: the conversion must fail first.
    config = tmp_path / "c.cfg"
    config.write_text(line + "\n")
    rc = main([*command, "--config", str(config), "--dataset", str(tmp_path / "missing.csv"),
               "--schema", TOY_SCHEMA, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {text}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flags, text", [
    (["train", "--method", "fm", "--eps", "1"], ["--seed", "abc"],
     "--seed expects an integer, got 'abc'"),
    (["train", "--method", "fm", "--eps", "1"], ["--alpha1", "x"],
     "--alpha1 expects a number, got 'x'"),
    (["train", "--method", "pdfc", "--eps", "1"], ["--eps-s", "?"],
     "--eps-s expects a number, got '?'"),
    (["train", "--method", "fm"], ["--eps", "one"], "--eps expects a number, got 'one'"),
    (["sweep", "--methods", "fm"], ["--runs", "2.5"], "--runs expects an integer, got '2.5'"),
    (["sweep", "--methods", "fm"], ["--seed", "1.0"], "--seed expects an integer, got '1.0'"),
    (["sweep", "--methods", "fm"], ["--eps", ""], "--eps expects a comma list of numbers, got ''"),
    (["sweep", "--methods", "relaxedfm"], ["--delta", ""],
     "--delta expects a comma list of numbers, got ''"),
])
def test_unconvertible_flag_names_the_option(tmp_path, capsys, command, flags, text):
    # A flag goes through the same converter as a config value.
    rc = main([*command, *flags, "--dataset", str(tmp_path / "missing.csv"),
               "--schema", TOY_SCHEMA, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {text}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, text", [
    (["--methods", "fm,FM"], "methods repeats 'FM'"),
    (["--methods", "fm", "--eps", "1,1.0"], "eps_grid repeats 1.0"),
])
def test_repeated_sweep_value_is_an_input_error(tmp_path, capsys, flags, text):
    # A repeat used to write its report rows twice.
    rc = main(["sweep", *flags, "--runs", "1", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {text}\n"
    assert not (tmp_path / "out").exists()


# A value unlike the default for each option of train and sweep (--out and
# --config aside): a config value that is lost shows in the outputs.
OPTION_VALUES = {
    "train": {"dataset": TOY_CSV, "schema": TOY_SCHEMA, "method": "adfc", "eps": "1",
              "delta": "1e-3", "eps-s": "0.5", "eps-n": "2", "delta-s": "1e-4",
              "delta-n": "2e-4", "s-attr": "hours", "alpha1": "2", "seed": "7"},
    "sweep": {"dataset": TOY_CSV, "schema": TOY_SCHEMA, "methods": "lr,pdfc,adfc",
              "eps": "0.5,2", "delta": "1e-3,1e-5", "runs": "2", "s-attr": "hours",
              "alpha1": "2", "seed": "7"},
}


def _options(command):
    names = vars(build_parser().parse_args([command])).keys()
    names -= {"command", "func", "parser", "config"}
    return sorted(name.replace("_", "-") for name in names)


@pytest.mark.parametrize("command, option", [
    (command, option) for command in OPTION_VALUES for option in _options(command)])
def test_config_line_equals_flag(tmp_path, capsys, command, option):
    # An option given as a --config line gives the same bytes as its flag.
    out = tmp_path / "out"
    values = {**OPTION_VALUES[command], "out": str(out)}

    def run(*argv):
        if out.exists():
            for path in out.iterdir():
                path.unlink()
        status = main([command, *argv])
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        return status, capsys.readouterr(), files

    by_flag = run(*(arg for name, value in values.items() for arg in (f"--{name}", value)))
    config = tmp_path / "c.cfg"
    config.write_text(f"{option} = {values.pop(option)}\n")
    by_config = run("--config", str(config),
                    *(arg for name, value in values.items() for arg in (f"--{name}", value)))
    assert by_flag[0] == 0
    assert by_config == by_flag


@pytest.mark.parametrize("golden", sorted(MANIFEST_GOLDEN_RUNS))
def test_manifest_matches_golden(tmp_path, golden):
    assert main(MANIFEST_GOLDEN_RUNS[golden] + ["--out", str(tmp_path)]) == 0
    assert manifest_for_golden(tmp_path) == (GOLDEN_DIR / golden).read_text()


class TestSweep:
    def test_sweep_outputs_and_golden(self, tmp_path):
        rc = main([
            "sweep", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
            "--methods", "lr,fm", "--eps", "0.1,1.0", "--runs", "2",
            "--seed", "5", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "report.json").read_text() == \
            (GOLDEN_DIR / "cli_sweep_report.json").read_text()
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.splitlines()[0].startswith("method,eps,delta")
        assert len(csv_text.splitlines()) == 5  # header + 2 methods x 2 eps

    def test_dataset_hashed_once(self, tmp_path, monkeypatch):
        # report.json and manifest.json share one fingerprint of the data.
        calls = []
        real = dataset_mod.EncodedDataset.fingerprint

        def counted(ds):
            calls.append(ds.n)
            return real(ds)

        monkeypatch.setattr(dataset_mod.EncodedDataset, "fingerprint", counted)
        assert main(["sweep", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
                     "--methods", "lr,fm", "--eps", "1", "--runs", "2",
                     "--out", str(tmp_path)]) == 0
        assert len(calls) == 1
        assert (read_json(tmp_path / "manifest.json")["dataset_fingerprint"]
                == read_json(tmp_path / "report.json")["dataset"]["fingerprint"])

    def test_default_grid_lengths(self, tmp_path):
        rc = main([
            "sweep", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
            "--methods", "fairlr", "--runs", "1", "--seed", "0",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        report = read_json(tmp_path / "report.json")
        assert len(report["points"]) == 6  # default eps grid, delta-free method
        rc = main([
            "sweep", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
            "--methods", "relaxedfm", "--eps", "1.0", "--runs", "1",
            "--seed", "0", "--out", str(tmp_path),
        ])
        assert rc == 0
        report = read_json(tmp_path / "report.json")
        assert len(report["points"]) == 5  # default delta grid

    def test_empty_methods_rejected(self, capsys):
        rc = main([
            "sweep", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
            "--methods", ",", "--runs", "1",
        ])
        assert rc == 2

    @pytest.mark.parametrize("flags", [
        ["--eps", "nan"],
        ["--eps", "1.0,inf"],
        ["--eps", "0"],
        ["--delta", "1.0"],
        ["--alpha1", "inf"],
        ["--alpha1", "nan"],
    ])
    def test_bad_config_fails_before_compute(self, tmp_path, capsys, flags):
        # The dataset path does not exist: the config check must trip first,
        # exit 2 and write nothing.
        out = tmp_path / "out"
        rc = main([
            "sweep", "--dataset", str(tmp_path / "missing.csv"), "--schema", TOY_SCHEMA,
            "--methods", "fm,relaxedfm", "--runs", "1", "--out", str(out), *flags,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not found" not in err
        assert not out.exists()

    def test_unknown_s_attr_fails_before_fitting(self, tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("a grid point was fitted")

        monkeypatch.setattr(evaluation, "train_method", no_fit)
        out = tmp_path / "out"
        rc = main(["sweep", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
                   "--methods", "pdfc,fm", "--eps", "1", "--s-attr", "nope",
                   "--runs", "1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: s attribute 'nope' matches no encoded feature column\n")
        assert not out.exists()

    def test_s_attr_unread_without_split_methods(self, tmp_path):
        # Only PDFC and ADFC read --s-attr; without them it is not resolved.
        rc = main(["sweep", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
                   "--methods", "fm,lr", "--eps", "1", "--s-attr", "nope",
                   "--runs", "1", "--out", str(tmp_path)])
        assert rc == 0
        assert not read_json(tmp_path / "report.json")["points"][0]["failed"]

    @pytest.mark.parametrize("flag", [
        "--jobs", "--label", "--label-positive", "--protected", "--protected-positive",
        "--numeric", "--categorical", "--columns", "--test-fraction",
    ])
    def test_jobs_flag_is_unrecognised(self, capsys, flag):
        # Neither the removed --jobs nor a schema flag is an option: the
        # schema comes only from the --schema file.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
                  "--methods", "fm", flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


class TestReport:
    def test_table_rendering_golden(self, capsys):
        rc = main(["report", str(GOLDEN_DIR / "cli_sweep_report.json")])
        assert rc == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / "cli_report_table.txt").read_text()

    def test_csv_format_same_numbers(self, capsys):
        main(["report", str(GOLDEN_DIR / "cli_sweep_report.json")])
        table = capsys.readouterr().out
        main(["report", str(GOLDEN_DIR / "cli_sweep_report.json"), "--format", "csv"])
        csv_out = capsys.readouterr().out
        report = read_json(GOLDEN_DIR / "cli_sweep_report.json")
        for point in report["points"]:
            mean = point["accuracy"]["mean"]
            assert f"{mean:.3f}" in table
            assert repr(mean) in csv_out

    def test_malformed_report(self, tmp_path, capsys):
        bad = tmp_path / "r.json"
        bad.write_text("{\"runs\": 1}")
        assert main(["report", str(bad)]) == 2
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["runs", "error"])
    def test_point_without_runs_or_error_is_malformed(self, tmp_path, capsys, key):
        report = read_json(GOLDEN_DIR / "cli_sweep_report.json")
        del report["points"][1][key]
        bad = tmp_path / "r.json"
        bad.write_text(json.dumps(report))
        assert main(["report", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: malformed report file {bad}: '{key}'\n"

    @pytest.mark.parametrize("value", ["x", None])
    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_non_numeric_run_accuracy_is_malformed(self, tmp_path, capsys, value, fmt):
        report = read_json(GOLDEN_DIR / "cli_sweep_report.json")
        report["points"][0]["runs"][0]["accuracy"] = value
        bad = tmp_path / "r.json"
        bad.write_text(json.dumps(report))
        assert main(["report", str(bad), "--format", fmt]) == 2
        assert capsys.readouterr().err.startswith(f"error: malformed report file {bad}: ")

    @pytest.mark.parametrize("key, value", [
        ("method", 7), ("method", None), ("epsilon", "x"), ("epsilon", True),
        ("delta", "1e-3"), ("delta", [1]),
    ])
    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_non_numeric_point_budget_or_method_is_malformed(self, tmp_path, capsys, key,
                                                             value, fmt):
        report = read_json(GOLDEN_DIR / "cli_sweep_report.json")
        report["points"][0][key] = value
        bad = tmp_path / "r.json"
        bad.write_text(json.dumps(report))
        assert main(["report", str(bad), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: malformed report file {bad}: {key} ")
        assert captured.out == ""

    def test_statistics_come_from_the_runs(self, tmp_path, capsys):
        # Stored statistics that contradict the runs are not read.
        report = read_json(GOLDEN_DIR / "cli_sweep_report.json")
        for point in report["points"]:
            point["accuracy"] = point["risk_difference"] = point["failed"] = None
        edited = tmp_path / "r.json"
        edited.write_text(json.dumps(report))
        assert main(["report", str(edited)]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / "cli_report_table.txt").read_text()

    def test_missing_report(self, tmp_path):
        assert main(["report", str(tmp_path / "none.json")]) == 2

    def test_report_directory_is_an_input_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}: ")

    def test_unknown_run_key_is_malformed(self, tmp_path, capsys):
        report = read_json(GOLDEN_DIR / "cli_sweep_report.json")
        report["points"][0]["runs"][0]["extra"] = 1
        bad = tmp_path / "r.json"
        bad.write_text(json.dumps(report))
        assert main(["report", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: malformed report file {bad}: ")


def test_readme_commands_parse():
    # Every `fairdp ...` line in the README's code blocks is accepted by the
    # parser; nothing is run.
    blocks = README.read_text().split("```")[1::2]
    commands = [shlex.split(line, comments=True)
                for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("fairdp ")]
    assert {command[1] for command in commands} == {"fetch", "train", "sweep", "report"}
    for command in commands:
        build_parser().parse_args(command[1:])


def test_readme_schema_block_shows_every_key():
    # The README calls any key not shown in its schema block an error.
    block = README.read_text().split("### Schema files", 1)[1].split("```")[1]
    keys = {line.partition("=")[0].strip() for line in block.splitlines() if "=" in line}
    assert keys == {f.name for f in dataclasses.fields(Schema)} | {"columns"}


@pytest.mark.parametrize("target", ["dataset", "schema", "config"])
def test_file_that_is_not_utf8_is_named(tmp_path, capsys, target):
    files = {"dataset": tmp_path / "d.csv", "schema": tmp_path / "s.schema",
             "config": tmp_path / "c.cfg"}
    texts = {"dataset": Path(TOY_CSV).read_bytes(), "schema": Path(TOY_SCHEMA).read_bytes(),
             "config": b"seed = 1\n"}
    for name, path in files.items():
        path.write_bytes(texts[name] + (b"# \xff\n" if name == target else b""))
    out = tmp_path / "out"
    rc = main(["train", "--method", "lr", "--dataset", str(files["dataset"]),
               "--schema", str(files["schema"]), "--config", str(files["config"]),
               "--out", str(out)])
    assert rc == 2
    position = len(texts[target]) + 2
    assert capsys.readouterr().err == {
        "dataset": "error: d.csv: not UTF-8 text (invalid start byte)\n",
        "schema": f"error: cannot read {files['schema']}: not UTF-8 text "
                  f"(invalid start byte at byte {position})\n",
        "config": f"error: cannot read {files['config']}: not UTF-8 text "
                  f"(invalid start byte at byte {position})\n",
    }[target]
    assert not out.exists()


@pytest.mark.parametrize("target", ["dataset", "schema", "config"])
def test_byte_order_mark_is_skipped(tmp_path, target):
    # A file saved as "CSV UTF-8" by Excel, or by some editors, starts with
    # the byte-order mark EF BB BF; the run is the one without it.
    texts = {"dataset": Path(TOY_CSV).read_bytes(), "schema": Path(TOY_SCHEMA).read_bytes(),
             "config": b"# toy run\nseed = 3\n"}
    written = []
    for mark in (b"", b"\xef\xbb\xbf"):
        base = tmp_path / ("marked" if mark else "plain")
        base.mkdir()
        files = {"dataset": base / "d.csv", "schema": base / "s.schema", "config": base / "c.cfg"}
        for name, path in files.items():
            path.write_bytes((mark if name == target else b"") + texts[name])
        assert main(["train", "--method", "pdfc", "--eps", "1", "--dataset", str(files["dataset"]),
                     "--schema", str(files["schema"]), "--config", str(files["config"]),
                     "--out", str(base / "out")]) == 0
        written.append(((base / "out" / "model.json").read_bytes(),
                        manifest_for_golden(base / "out")))
    assert written[0] == written[1]


def test_text_files_name_their_encoding(tmp_path):
    # Run in a child that turns a file opened in the locale's encoding into
    # an error: every text file the commands read or write names UTF-8.
    config = tmp_path / "c.cfg"
    config.write_text(f"dataset = {TOY_CSV}\nschema = {TOY_SCHEMA}\n", encoding="utf-8")
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys; from fairdp.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in (["train", "--config", str(config), "--method", "adfc", "--eps", "1",
                  "--delta", "1e-3", "--out", str(tmp_path / "t")],
                 ["sweep", "--config", str(config), "--methods", "fm", "--eps", "1",
                  "--runs", "1", "--out", str(tmp_path / "s")],
                 ["report", str(tmp_path / "s" / "report.json")]):
        result = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", code, *argv], capture_output=True, encoding="utf-8", env=env)
        assert (result.returncode, result.stderr) == (0, "")


def test_shipped_adult_schema_loads(tmp_path):
    # Two rows in the header-less UCI layout, which the schema's columns key names.
    data = tmp_path / "adult.data"
    data.write_text(
        "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, Not-in-family,"
        " White, Male, 2174, 0, 40, United-States, <=50K\n"
        "50, Self-emp-not-inc, 83311, Masters, 14, Married-civ-spouse, Exec-managerial,"
        " Husband, Black, Female, 0, 0, 13, Cuba, >50K\n"
    )
    ds, schema = load_encoded_dataset(data, ADULT_SCHEMA)
    columns = [name.strip() for name in parse_keyvalue_file(ADULT_SCHEMA)["columns"].split(",")]
    assert (len(columns), ds.n) == (15, 2)
    assert (schema.label, schema.protected) == ("income", "sex")
    assert ds.y.tolist() == [0, 1] and ds.z.tolist() == [1, 0]
    assert ds.d == 6 + 7 * 2  # six numeric columns, seven two-valued categorical ones


class TestFetchCommand:
    def test_fetch_with_patched_registry(self, tmp_path, monkeypatch, capsys):
        src = FIXTURE_DIR / "toy.csv"
        monkeypatch.setitem(
            dataset_mod.DATASETS, "toyset",
            (RemoteFile("toy.csv", src.as_uri(), size=src.stat().st_size),),
        )
        cache = tmp_path / "cache"
        rc = main(["fetch", "toyset", "--cache-dir", str(cache)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "toy.csv" in out
        assert (cache / "toy.csv").exists()

    def test_unknown_dataset(self, tmp_path, capsys):
        rc = main(["fetch", "nosuch", "--cache-dir", str(tmp_path)])
        assert rc == 2
        assert "adult" in capsys.readouterr().err

    def test_cache_env_var(self, tmp_path, monkeypatch):
        src = FIXTURE_DIR / "toy.schema"
        monkeypatch.setitem(
            dataset_mod.DATASETS, "toyset2",
            (RemoteFile("toy.schema", src.as_uri()),),
        )
        monkeypatch.setenv("FAIRDP_CACHE", str(tmp_path / "envcache"))
        assert main(["fetch", "toyset2"]) == 0
        assert (tmp_path / "envcache" / "toy.schema").exists()
