import gc
import json
from pathlib import Path

import pytest

import fairdp.dataset as dataset_mod
from fairdp import evaluation
from fairdp.cli import CLIError, _schema_from_kv, main, parse_keyvalue_file
from fairdp.dataset import RawTable, RemoteFile

from toys import (
    FIXTURE_DIR,
    GOLDEN_DIR,
    MANIFEST_GOLDEN_RUNS,
    TOY_CSV,
    TOY_SCHEMA,
    manifest_for_golden,
)


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
        assert schema.label_column == "income"
        assert schema.protected_positive == "Male"
        kinds = {c.name: c.kind for c in schema.feature_columns}
        assert kinds == {"age": "numeric", "hours": "numeric", "dept": "categorical"}

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
        (["--method", "fm"], "method FM requires --eps"),
        (["--method", "relaxedfm", "--delta", "1e-3"], "method RelaxedFM requires --eps"),
        (["--method", "relaxedfm", "--eps", "1"], "method RelaxedFM requires --delta"),
        (["--method", "pdfc", "--eps-s", "1"],
         "method PDFC requires --eps or both --eps-s/--eps-n"),
        (["--method", "adfc", "--eps-n", "1", "--delta", "1e-3"],
         "method ADFC requires --eps or both --eps-s/--eps-n"),
        (["--method", "adfc", "--eps", "1", "--delta-s", "1e-3"],
         "method ADFC requires --delta or both --delta-s/--delta-n"),
    ])
    def test_missing_budget_texts(self, tmp_path, capsys, flags, text):
        rc = main(["train", "--dataset", str(tmp_path / "missing.csv"),
                   "--schema", TOY_SCHEMA, *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {text}\n"

    def test_bad_budget_rejected_before_data(self, tmp_path, capsys):
        # dataset path does not exist: budget validation must trip first
        rc = main([
            "train", "--dataset", str(tmp_path / "missing.csv"), "--schema",
            TOY_SCHEMA, "--method", "fm", "--eps", "-1.0",
        ])
        assert rc == 2
        assert "--eps" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, name", [
        (["--method", "fm", "--eps", "nan"], "--eps"),
        (["--method", "fm", "--eps", "inf"], "--eps"),
        (["--method", "pdfc", "--eps", "1", "--eps-s", "inf", "--eps-n", "1"], "--eps-s"),
        (["--method", "fm", "--eps", "1", "--alpha1", "nan"], "alpha1"),
        (["--method", "fm", "--eps", "1", "--test-fraction", "1.5"], "test_fraction"),
    ])
    def test_bad_input_fails_before_data(self, tmp_path, capsys, flags, name):
        # The dataset path does not exist: the input check must trip first,
        # exit 2 and write nothing.
        out = tmp_path / "out"
        rc = main([
            "train", "--dataset", str(tmp_path / "missing.csv"), "--schema", TOY_SCHEMA,
            "--out", str(out), *flags,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "not found" not in err
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

    def test_schema_via_flags_without_file(self, tmp_path):
        rc = main([
            "train", "--dataset", TOY_CSV,
            "--label", "income", "--label-positive", "yes",
            "--protected", "sex", "--protected-positive", "Male",
            "--numeric", "age,hours", "--categorical", "dept",
            "--method", "fm", "--eps", "1.0", "--seed", "2",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["config"]["schema"]["categorical"] == ["dept"]

    def test_schema_flags_match_schema_file(self, tmp_path):
        common = [
            "train", "--dataset", TOY_CSV, "--method", "fm", "--eps", "1.0",
            "--seed", "2",
        ]
        assert main(common + ["--schema", TOY_SCHEMA,
                              "--out", str(tmp_path / "f")]) == 0
        assert main(common + [
            "--label", "income", "--label-positive", "yes",
            "--protected", "sex", "--protected-positive", "Male",
            "--numeric", "age,hours", "--categorical", "dept",
            "--out", str(tmp_path / "g"),
        ]) == 0
        assert (tmp_path / "f/model.json").read_bytes() == \
            (tmp_path / "g/model.json").read_bytes()

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

    @pytest.mark.parametrize("key", [
        "add_constant_feature", "include_protected_in_features", "add-constant-feature",
    ])
    def test_config_schema_boolean_with_schema_flags_rejected(self, tmp_path, capsys, key):
        # No flag sets the schema booleans, so with the schema from flags a
        # config file value would be dropped and the manifest would record
        # false: the combination fails before the data is read.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = true\n")
        out = tmp_path / "out"
        rc = main([
            "train", "--config", str(cfg), "--dataset", str(tmp_path / "missing.csv"),
            "--label", "income", "--label-positive", "yes",
            "--protected", "sex", "--protected-positive", "Male",
            "--numeric", "age,hours", "--categorical", "dept",
            "--method", "fm", "--eps", "1.0", "--out", str(out),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key.replace("-", "_") in err
        assert "not found" not in err
        assert not out.exists()

    def test_config_schema_boolean_with_schema_file_still_runs(self, tmp_path):
        # With a --schema file the schema is that file's; the run is unchanged.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("add_constant_feature = true\n")
        common = ["train", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
                  "--method", "fm", "--eps", "1.0", "--seed", "2"]
        assert main(common + ["--out", str(tmp_path / "a")]) == 0
        assert main(common + ["--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a/model.json").read_bytes() == \
            (tmp_path / "b/model.json").read_bytes()

    @pytest.mark.parametrize("key", [
        "add_constant_feature", "include_protected_in_features", "add-constant-feature",
    ])
    def test_config_schema_boolean_with_schema_file_warns(self, tmp_path, capsys, key):
        # The schema file's booleans apply; the dropped config value is named.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = true\n")
        common = ["train", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
                  "--method", "fm", "--eps", "1.0", "--seed", "2"]
        assert main(common + ["--out", str(tmp_path / "a")]) == 0
        assert capsys.readouterr().err == ""
        assert main(common + ["--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        name = key.replace("-", "_")
        assert capsys.readouterr().err == (
            f"warning: config key '{name}' has no effect with --schema; "
            "set it in the schema file\n"
        )
        for out in ("model.json", "manifest.json"):
            assert (tmp_path / "a" / out).read_bytes() == (tmp_path / "b" / out).read_bytes()

    @pytest.mark.parametrize("flags, config, warning", [
        (["--label", "nosuchcol"], "", "--label"),
        (["--numeric", "nosuch"], "", "--numeric"),
        (["--label-positive", "no"], "", "--label-positive"),
        (["--columns", "a,b"], "", "--columns"),
        ([], "protected = nosuch\n", "config key 'protected'"),
        ([], "categorical = nosuch\n", "config key 'categorical'"),
    ])
    def test_schema_keys_with_schema_file_warn(self, tmp_path, capsys, flags, config,
                                               warning):
        # The schema file is the whole schema: a flag or config value for one
        # of its keys is dropped, and named.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        common = ["train", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA, "--method", "lr"]
        assert main(common + ["--out", str(tmp_path / "a")]) == 0
        assert capsys.readouterr().err == ""
        assert main(common + [*flags, "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().err == (
            f"warning: {warning} has no effect with --schema; set it in the schema file\n")
        assert (tmp_path / "a/model.json").read_bytes() == \
            (tmp_path / "b/model.json").read_bytes()

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
    # Each model is scored from one prediction, and the parsed text table is
    # released once the data is encoded.
    calls, live_tables = [], []
    real_predict = evaluation.predict_labels

    def counted_predict(model, X):
        calls.append(X.shape)
        live_tables.append(sum(isinstance(o, RawTable) for o in gc.get_objects()))
        return real_predict(model, X)

    monkeypatch.setattr(evaluation, "predict_labels", counted_predict)
    assert main([*command, "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
                 "--out", str(tmp_path)]) == 0
    assert len(calls) == (1 if command[0] == "train" else 4)
    assert live_tables == [0] * len(calls)


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


@pytest.mark.parametrize("command, line, text", [
    (["train", "--method", "fm", "--eps", "1"], "seed = abc",
     "--seed expects an integer, got 'abc'"),
    (["train", "--method", "fm", "--eps", "1"], "alpha1 = x",
     "--alpha1 expects a number, got 'x'"),
    (["train", "--method", "fm", "--eps", "1"], "test-fraction = 0.2x",
     "--test-fraction expects a number, got '0.2x'"),
    (["train", "--method", "fm"], "eps = one", "--eps expects a number, got 'one'"),
    (["train", "--method", "pdfc", "--eps", "1"], "eps_s = ?",
     "--eps-s expects a number, got '?'"),
    (["sweep", "--methods", "fm"], "runs = 2.5", "--runs expects an integer, got '2.5'"),
    (["sweep", "--methods", "fm"], "eps = 0.1, x", "--eps expects a number, got 'x'"),
    (["sweep", "--methods", "relaxedfm"], "delta = 1e-3,?",
     "--delta expects a number, got '?'"),
    (["sweep", "--methods", "fm"], "eps = ,", "--eps expects a comma list of numbers, got ','"),
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
        ["--test-fraction", "1.5"],
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

    def test_jobs_flag_is_unrecognised(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
                  "--methods", "fm", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


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
