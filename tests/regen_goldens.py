"""Regenerate the frozen golden files under tests/golden/.

Run from the repository root:

    python3 tests/regen_goldens.py

Goldens freeze seeded noise streams and end-to-end outputs; regenerate them
only when an intentional change invalidates the old ones, and re-verify the
results before committing.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from fairdp.cli import main as cli_main
from fairdp.mechanisms import perturb
from fairdp.trainers import train_adfc, train_fm, train_pdfc

from toys import (
    FIXTURE_DIR,
    GOLDEN_DIR,
    MANIFEST_GOLDEN_RUNS,
    manifest_for_golden,
    perturb_golden_inputs,
    toy_d2,
    toy_d3,
)


def poly_dict(poly):
    """A PolyObjective's JSON layout: scalar c0, list c1, row-major nested list c2."""
    return {"c0": poly.c0, "c1": poly.c1.tolist(), "c2": poly.c2.tolist()}


def dump(name, obj):
    path = GOLDEN_DIR / name
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def regen_perturb():
    poly, s_index, seed = perturb_golden_inputs()
    out = perturb(poly, "laplace", 2.0, 0.5, s_index, np.random.default_rng(seed))
    dump("perturb_d3.json", poly_dict(out))


def regen_trainers():
    fm = train_fm(toy_d2(), epsilon=2.0, seed=7)
    dump("train_fm_d2.json", fm.to_dict())
    pdfc = train_pdfc(toy_d3(), eps_s=0.5, eps_n=1.0, s_index=1, alpha1=1.0, seed=11)
    dump("train_pdfc_d3.json", pdfc.to_dict())
    adfc = train_adfc(
        toy_d3(), eps_s=0.5, eps_n=1.0, delta_s=1e-3, delta_n=1e-4,
        s_index=1, alpha1=1.0, seed=13,
    )
    dump("train_adfc_d3.json", adfc.to_dict())


def regen_cli(tmp_base: Path):
    out_dir = tmp_base / "cli_train"
    rc = cli_main([
        "train",
        "--dataset", str(FIXTURE_DIR / "toy.csv"),
        "--schema", str(FIXTURE_DIR / "toy.schema"),
        "--method", "pdfc",
        "--eps", "1.0",
        "--s-attr", "hours",
        "--seed", "3",
        "--out", str(out_dir),
    ])
    assert rc == 0, rc
    (GOLDEN_DIR / "cli_train_model.json").write_text(
        (out_dir / "model.json").read_text()
    )
    print("wrote", GOLDEN_DIR / "cli_train_model.json")

    sweep_dir = tmp_base / "cli_sweep"
    rc = cli_main([
        "sweep",
        "--dataset", str(FIXTURE_DIR / "toy.csv"),
        "--schema", str(FIXTURE_DIR / "toy.schema"),
        "--methods", "lr,fm",
        "--eps", "0.1,1.0",
        "--runs", "2",
        "--seed", "5",
        "--out", str(sweep_dir),
    ])
    assert rc == 0, rc
    (GOLDEN_DIR / "cli_sweep_report.json").write_text(
        (sweep_dir / "report.json").read_text()
    )
    print("wrote", GOLDEN_DIR / "cli_sweep_report.json")

    rendered = subprocess.run(
        [sys.executable, "-m", "fairdp.cli", "report",
         str(sweep_dir / "report.json")],
        capture_output=True, text=True, check=True,
    ).stdout
    (GOLDEN_DIR / "cli_report_table.txt").write_text(rendered)
    print("wrote", GOLDEN_DIR / "cli_report_table.txt")

    for name, argv in MANIFEST_GOLDEN_RUNS.items():
        out_dir = tmp_base / name
        rc = cli_main(argv + ["--out", str(out_dir)])
        assert rc == 0, rc
        (GOLDEN_DIR / name).write_text(manifest_for_golden(out_dir))
        print("wrote", GOLDEN_DIR / name)


def main():
    GOLDEN_DIR.mkdir(exist_ok=True)
    regen_perturb()
    regen_trainers()
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        regen_cli(Path(tmp))


if __name__ == "__main__":
    main()
