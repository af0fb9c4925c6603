"""Command-line interface: subcommands, exit codes, file outputs."""

import hashlib
import json

import numpy as np
import pytest

from seusim.cli import main
from seusim.modelio import load_model


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def model_file(tmp_path):
    out = tmp_path / "model.bin"
    assert run_cli("gen", "--depth", 1, "--base-channels", 4, "--in-channels", 3,
                   "--classes", 6, "--seed", 3, "--out", out) == 0
    return out


@pytest.fixture
def config_file(tmp_path):
    cfg = tmp_path / "campaign.json"
    cfg.write_text(json.dumps({
        "seed": 5,
        "cap": 6,
        "included_kinds": ["ConvWeight", "BNGamma"],
        "inputs": [{"synthetic": {"height": 16, "width": 16, "seed": 1}}],
    }))
    return cfg


class TestGen:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        run_cli("gen", "--depth", 1, "--seed", 9, "--out", a)
        run_cli("gen", "--depth", 1, "--seed", 9, "--out", b)
        assert sha(a) == sha(b)

    def test_activation_recorded_in_header(self, tmp_path):
        out = tmp_path / "m.bin"
        run_cli("gen", "--depth", 1, "--activation", "hard_sigmoid", "--out", out)
        assert load_model(out).meta["activation"] == "hard_sigmoid"

    def test_invalid_depth_is_usage_error(self, tmp_path, capsys):
        code = run_cli("gen", "--depth", 0, "--out", tmp_path / "x.bin")
        assert code == 1
        assert "usage" in capsys.readouterr().err

    def test_manifest_lists_output_digest(self, tmp_path):
        out = tmp_path / "m.bin"
        run_cli("gen", "--depth", 1, "--out", out)
        manifest = json.loads((tmp_path / "m.bin.manifest.json").read_text())
        assert manifest["outputs"][0]["sha256"] == sha(out)


class TestPlanRun:
    def test_plan_prints_exhaustive_count(self, tmp_path, capsys, config_file):
        # a single-weight model plans n = 32 (one bit per position)
        from seusim.modelio import save_model
        from tests.test_model import single_conv_model

        g = single_conv_model(out_ch=1, in_ch=1)
        mpath = tmp_path / "one.bin"
        save_model(g, mpath)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"included_kinds": ["ConvWeight"],
                                   "inputs": [{"synthetic": {"height": 4, "width": 4}}]}))
        assert run_cli("plan", "--model", mpath, "--config", cfg) == 0
        out = capsys.readouterr().out
        assert "32  32" in out.replace("   ", "  ")

    def test_plan_reports_the_stratified_draws(self, tmp_path, capsys):
        # per-bit quotas above bit 7 are capped by the int32 biases
        from seusim.modelio import save_model
        from tests.test_campaign import readme_int8_unet

        mpath = tmp_path / "int8.bin"
        save_model(readme_int8_unet(), mpath)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"sampling": "stratified_per_bit", "cap": 1550,
                                   "included_kinds": ["ConvWeight", "ConvBias"]}))
        assert run_cli("plan", "--model", mpath, "--config", cfg) == 0
        assert "total injections: 3828" in capsys.readouterr().out

    def test_config_nulls_and_wrong_types(self, tmp_path, model_file, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"bits": None, "layers": None, "seed": None, "inputs": None}))
        assert run_cli("plan", "--model", model_file, "--config", cfg) == 0
        cfg.write_text(json.dumps({"bits": 30}))
        assert run_cli("plan", "--model", model_file, "--config", cfg) == 2
        assert "'bits'" in capsys.readouterr().err

    def test_run_is_seed_deterministic(self, tmp_path, model_file, config_file):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("run", "--model", model_file, "--config", config_file, "--out-dir", d1) == 0
        assert run_cli("run", "--model", model_file, "--config", config_file, "--out-dir", d2) == 0
        assert sha(d1 / "records.csv") == sha(d2 / "records.csv")
        assert sha(d1 / "matrix.csv") == sha(d2 / "matrix.csv")

    def test_jobs_do_not_change_records(self, tmp_path, model_file, config_file):
        dirs = [tmp_path / f"j{j}" for j in (1, 4, 8)]
        for d, j in zip(dirs, (1, 4, 8)):
            assert run_cli("run", "--model", model_file, "--config", config_file,
                           "--out-dir", d, "--jobs", j) == 0
        digests = {sha(d / "records.csv") for d in dirs}
        assert len(digests) == 1

    def test_matrix_means_in_unit_interval(self, tmp_path, model_file, config_file):
        from seusim.campaign import read_matrix_csv

        d = tmp_path / "r"
        run_cli("run", "--model", model_file, "--config", config_file, "--out-dir", d)
        for cell in read_matrix_csv(d / "matrix.csv").values():
            assert 0.0 <= cell.mean <= 1.0

    def test_manifest_covers_outputs(self, tmp_path, model_file, config_file):
        d = tmp_path / "r"
        run_cli("run", "--model", model_file, "--config", config_file, "--out-dir", d)
        manifest = json.loads((d / "manifest.json").read_text())
        recorded = {o["path"]: o["sha256"] for o in manifest["outputs"]}
        assert recorded == {"records.csv": sha(d / "records.csv"),
                            "matrix.csv": sha(d / "matrix.csv")}

    def test_missing_model_file_is_data_error(self, tmp_path, config_file):
        assert run_cli("run", "--model", tmp_path / "nope.bin", "--config", config_file,
                       "--out-dir", tmp_path / "r") == 2


class TestPredictCompare:
    def test_reference_row_relu(self, tmp_path):
        out = tmp_path / "p.json"
        assert run_cli("predict", "--freqs", "0,44.91,4.41,26.95,7.47,16.27",
                       "--signs", "n,p,n,p,n,p", "--k-sat", 17, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["expected_msb_error"] * 100 == pytest.approx(37.29, abs=0.01)

    def test_reference_row_hard_sigmoid_quantized(self, tmp_path):
        out = tmp_path / "p.json"
        assert run_cli("predict", "--freqs", "0,41.22,5.23,23.97,6.18,23.39",
                       "--signs", "n,p,n,p,p,p", "--k-sat", 19, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["expected_quantized_error"] * 100 == pytest.approx(51.75, abs=0.015)

    def test_uniform_all_negative(self, tmp_path):
        out = tmp_path / "p.json"
        freqs = ",".join(["0.1666667"] * 6)
        assert run_cli("predict", "--freqs", freqs, "--signs", "n,n,n,n,n,n", "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["expected_msb_error"] * 100 == pytest.approx(16.67, abs=0.01)

    def test_biases_give_signs(self, tmp_path):
        out = tmp_path / "p.json"
        # values starting with a dash need the --flag=value form
        assert run_cli("predict", "--freqs", "0,44.91,4.41,26.95,7.47,16.27",
                       "--biases=-0.85,0.32,-0.03,0.04,-0.17,0.11", "--out", out) == 0
        assert json.loads(out.read_text())["bias_signs"] == [
            "negative", "positive", "negative", "positive", "negative", "positive"]

    def test_predict_without_inputs_is_error(self, tmp_path):
        assert run_cli("predict", "--out", tmp_path / "p.json") == 2

    def _write_matrix(self, path, rows):
        lines = ["layer_id,bit,count,mean,std,mean_nonzero,max"]
        lines += [f"{l},{b},{c},{m},{s},{mn},{mx}" for (l, b, c, m, s, mn, mx) in rows]
        path.write_text("\n".join(lines) + "\n")

    def test_compare_flags_large_deviation(self, tmp_path, capsys):
        pred = tmp_path / "p.json"
        run_cli("predict", "--freqs", "0,44.91,4.41,26.95,7.47,16.27",
                "--signs", "n,p,n,p,n,p", "--out", pred)
        matrix = tmp_path / "matrix.csv"
        self._write_matrix(matrix, [(2, 30, 6, 0.34, 0.3, 0.4, 0.83)])
        out = tmp_path / "cmp.json"
        assert run_cli("compare", "--matrix", matrix, "--prediction", pred, "--out", out) == 0
        report = json.loads(out.read_text())
        c = report["comparisons"][0]
        assert c["abs_deviation"] == pytest.approx(0.0329, abs=1e-3)
        assert c["exceeds_halfwidth"] is True

    def test_compare_accepts_matching_values(self, tmp_path):
        pred = tmp_path / "p.json"
        run_cli("predict", "--freqs", "0,44.91,4.41,26.95,7.47,16.27",
                "--signs", "n,p,n,p,n,p", "--out", pred)
        matrix = tmp_path / "matrix.csv"
        self._write_matrix(matrix, [(2, 30, 6, 0.372917, 0.3, 0.4, 0.83)])
        out = tmp_path / "cmp.json"
        assert run_cli("compare", "--matrix", matrix, "--prediction", pred, "--out", out) == 0
        c = json.loads(out.read_text())["comparisons"][0]
        assert c["abs_deviation"] < 1e-4 and c["exceeds_halfwidth"] is False

    def test_compare_empty_overlap_is_error(self, tmp_path):
        pred = tmp_path / "p.json"
        run_cli("predict", "--freqs", "0,44.91,4.41,26.95,7.47,16.27",
                "--signs", "n,p,n,p,n,p", "--out", pred)
        matrix = tmp_path / "matrix.csv"
        self._write_matrix(matrix, [(2, 12, 6, 0.1, 0.0, 0.1, 0.1)])  # no bit-30 cell
        assert run_cli("compare", "--matrix", matrix, "--prediction", pred,
                       "--out", tmp_path / "cmp.json") == 2


class TestPruneQuantize:
    def test_zero_ratio_plan_preserves_digest(self, tmp_path, model_file):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"ratios": {}}))
        out = tmp_path / "pruned.bin"
        assert run_cli("prune", "--model", model_file, "--plan", plan, "--out", out) == 0
        assert sha(out) == sha(model_file)

    def test_positive_ratio_shrinks(self, tmp_path, model_file, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"ratios": {"0": 0.5}}))
        out = tmp_path / "pruned.bin"
        assert run_cli("prune", "--model", model_file, "--plan", plan, "--out", out) == 0
        stdout = capsys.readouterr().out
        before, after = stdout.split("parameters: ")[1].split("\n")[0].split(" -> ")
        assert int(after) < int(before)

    def test_prune_of_int8_model_is_data_error(self, tmp_path, model_file, capsys):
        q = tmp_path / "q.bin"
        assert run_cli("quantize", "--model", model_file, "--out", q,
                       "--calib-synthetic", 2, "--size", 16, 16) == 0
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"ratios": {"0": 0.5}}))
        out = tmp_path / "pruned.bin"
        assert run_cli("prune", "--model", q, "--plan", plan, "--out", out) == 2
        assert "f32" in capsys.readouterr().err
        assert not out.exists()

    def test_quantize_output_runs_int8_inference(self, tmp_path, model_file):
        out = tmp_path / "q.bin"
        assert run_cli("quantize", "--model", model_file, "--out", out,
                       "--calib-synthetic", 2, "--size", 16, 16) == 0
        q = load_model(out)
        assert q.dtype_mode == "int8"
        from seusim.model import predict_classes, synthetic_input

        x = synthetic_input(q, 16, 16, seed=4)
        assert predict_classes(q, x).shape == (16, 16)

    def test_quantize_accepts_npy_calibration(self, tmp_path, model_file):
        img = tmp_path / "img.npy"
        np.save(img, np.random.default_rng(0).normal(size=(3, 16, 16)).astype(np.float32))
        out = tmp_path / "q.bin"
        assert run_cli("quantize", "--model", model_file, "--out", out, "--calib", img) == 0


class TestCensus:
    def test_reports_written(self, tmp_path, model_file):
        d = tmp_path / "census"
        assert run_cli("census", "--model", model_file, "--out-dir", d) == 0
        ranges = (d / "census_ranges.csv").read_text().splitlines()
        assert ranges[0] == "layer_id,count,frac_lt1,frac_1to2,frac_ge2,frac_zero"
        assert len(ranges) > 1
        partial = (d / "census_partial_exponent.csv").read_text().splitlines()
        assert partial[0] == "layer_id,bit,count,frac_zero_at_bit,frac_one_flip_from_filled"
        bits = {int(line.split(",")[1]) for line in partial[1:]}
        assert bits == set(range(23, 30))

    def test_env_var_output_dir(self, tmp_path, model_file, monkeypatch):
        d = tmp_path / "via_env"
        monkeypatch.setenv("SEUSIM_OUT_DIR", str(d))
        assert run_cli("census", "--model", model_file) == 0
        assert (d / "census_ranges.csv").exists()


class TestExitCodes:
    def test_no_arguments_is_usage(self):
        assert run_cli() == 1

    def test_unknown_subcommand_is_usage(self):
        assert run_cli("frobnicate") == 1

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_corrupt_model_is_data_error(self, tmp_path, config_file):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a model at all")
        assert run_cli("census", "--model", bad) == 2
