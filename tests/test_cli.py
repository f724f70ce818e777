import json
from pathlib import Path

import pytest

import fairdp.dataset as dataset_mod
from fairdp.cli import main, parse_keyvalue_file, parse_schema_file
from fairdp.dataset import RemoteFile

from toys import FIXTURE_DIR, GOLDEN_DIR

TOY_CSV = str(FIXTURE_DIR / "toy.csv")
TOY_SCHEMA = str(FIXTURE_DIR / "toy.schema")


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
        schema = parse_schema_file(TOY_SCHEMA)
        assert schema.label_column == "income"
        assert schema.protected_positive == "Male"
        kinds = {c.name: c.kind for c in schema.feature_columns}
        assert kinds == {"age": "numeric", "hours": "numeric", "dept": "categorical"}

    def test_schema_missing_keys(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("label = income\n")
        from fairdp.cli import CLIError

        with pytest.raises(CLIError, match="missing schema keys"):
            parse_schema_file(path)


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

    def test_adfc_without_delta_rejected(self, capsys):
        rc = main([
            "train", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
            "--method", "adfc", "--eps", "1.0",
        ])
        assert rc == 2
        assert "delta" in capsys.readouterr().err

    def test_bad_budget_rejected_before_data(self, tmp_path, capsys):
        # dataset path does not exist: budget validation must trip first
        rc = main([
            "train", "--dataset", str(tmp_path / "missing.csv"), "--schema",
            TOY_SCHEMA, "--method", "fm", "--eps", "-1.0",
        ])
        assert rc == 2
        assert "--eps" in capsys.readouterr().err

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

    def test_jobs_flag_matches_serial(self, tmp_path):
        base = [
            "sweep", "--dataset", TOY_CSV, "--schema", TOY_SCHEMA,
            "--methods", "fm,fairlr", "--eps", "0.5,2.0", "--runs", "2",
            "--seed", "8",
        ]
        assert main(base + ["--out", str(tmp_path / "s")]) == 0
        assert main(base + ["--jobs", "2", "--out", str(tmp_path / "p")]) == 0
        assert (tmp_path / "s/report.json").read_text() == \
            (tmp_path / "p/report.json").read_text()


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
