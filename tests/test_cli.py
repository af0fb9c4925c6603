"""Command-line interface: subcommands, exit codes, file outputs."""

import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import seusim.campaign as camp
from seusim.cli import build_parser, cmd_run, main
from seusim.model import ParamKind
from seusim.modelio import load_model, save_model
from tests.test_campaign import SharedCount, deadline
from tests.test_model import UNLOADABLE_MODELS, save_unloadable_model


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(*args):
    return main([str(a) for a in args])


def live_processes(pgid: int) -> list[int]:
    """The processes of group `pgid` that are not zombies, read from /proc:
    an orphan's zombie is left to init, which may never reap it."""
    if not Path("/proc/self/stat").exists():
        pytest.skip("needs /proc")
    pids = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text() if entry.name.isdigit() else ""
        except (FileNotFoundError, ProcessLookupError):  # the process has gone
            continue  # (not OSError: a `deadline`'s TimeoutError is one)
        fields = stat.rpartition(")")[2].split()  # state, ppid, pgrp, ...
        if fields and fields[0] != "Z" and int(fields[2]) == pgid:
            pids.append(int(entry.name))
    return pids


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

    @pytest.mark.parametrize("command, option", [
        (["gen", "--depth", 1, "--seed", -1], "--seed"),
        (["quantize", "--model", "m.bin", "--calib-seed", -3], "--calib-seed"),
    ])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, command, option):
        code = run_cli(*command, "--out", tmp_path / "x.bin")
        assert code == 1
        assert f"argument {option}: must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "x.bin").exists()

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

    @pytest.mark.parametrize("config, named", [
        ({"seed": -1}, "'seed'"),
        ({"inputs": "m.npy"}, "'inputs'"),
        ({"inputs": [{"synthetic": {"height": 8.9, "width": 8}}]}, "8.9"),
        ({"inputs": [{"synthetic": {"height": 8, "width": 8, "seed": True}}]}, "True"),
        ([{"seed": 1}], "c.json"),
        ({"inputs": [{"synthetic": {"height": 8, "width": 8, "seed": -2}}]}, "field 'seed'"),
        ({"inputs": [{"synthetic": {"height": -8, "width": 8}}]}, "field 'height'"),
        ({"inputs": [{"synthetic": {"height": 0, "width": 8}}]}, "field 'height'"),
        ({"inputs": [{"synthetic": {"height": 8, "width": 0}}]}, "field 'width'"),
        ({"inputs": [{"synthetic": {"width": 8}}]}, "field 'height': missing"),
        ({"inputs": [{"synthetic": {"height": 8}}]}, "field 'width': missing"),
        ({"inputs": [{"synthetic": {"height": 8, "width": 8, "sead": 3}}]}, "field 'sead': unknown"),
        ({"inputs": [{"synthetic": 8}]}, "field 'synthetic': expected dict, got 8"),
        ({"e": 1.5}, "error margin e"),
        ({"p": 0}, "failure probability p"),
        ({"cap": 0}, "cap must be >= 1"),
        ({"inputs": [{"path": 0}]}, "input 0: field 'path': expected str, got 0"),
        ({"inputs": [{"path": True}]}, "input 0: field 'path': expected str, got True"),
        ({"inputs": [{"path": "x.npy", "sead": 3}]}, "input 0: field 'sead': unknown"),
        ({"inputs": [{"synthetic": {"height": 8, "width": 8}}, 5]}, "input 1: expected a JSON object, got 5"),
        ({"inputs": [{}]}, "input 0: expected one of the fields path and synthetic, got []"),
        ({"inputs": [{"path": "x.npy", "synthetic": {"height": 8, "width": 8}}]},
         "input 0: expected one of the fields path and synthetic, got ['path', 'synthetic']"),
        ({"bogus": 1}, "field 'bogus': unknown"),
    ])
    def test_config_errors_exit_2_on_plan_and_run(self, tmp_path, model_file, capsys, config, named):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        errors = []
        for command in (["plan"], ["run", "--out-dir", tmp_path / "r"]):
            assert run_cli(*command, "--model", model_file, "--config", cfg) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] and named in errors[0]
        assert not (tmp_path / "r").exists()

    def test_plan_out_writes_the_printed_plan(self, tmp_path, model_file, config_file, capsys):
        out = tmp_path / "plan.csv"
        assert run_cli("plan", "--model", model_file, "--config", config_file, "--out", out) == 0
        printed = capsys.readouterr().out.splitlines()
        rows = out.read_text().splitlines()
        assert rows[0] == "layer_id,fault_space,injections"
        assert [r.replace(",", "  ") for r in rows[1:]] == [
            line.strip() for line in printed[1:len(rows)]]
        total = sum(int(r.split(",")[2]) for r in rows[1:])
        assert f"total injections: {total}" in printed

    def test_npy_inputs_in_both_spellings(self, tmp_path, model_file):
        # a saved synthetic image gives the records of the synthetic spec itself
        from seusim.model import synthetic_input

        img = tmp_path / "x.npy"
        np.save(img, synthetic_input(load_model(model_file), 16, 16, seed=1).data)
        cfg = tmp_path / "c.json"
        digests = set()
        for spec in (str(img), {"path": str(img)}, {"synthetic": {"height": 16, "width": 16, "seed": 1}}):
            cfg.write_text(json.dumps({"seed": 5, "cap": 6, "inputs": [spec]}))
            d = tmp_path / f"r{len(digests)}"
            assert run_cli("run", "--model", model_file, "--config", cfg, "--out-dir", d) == 0
            digests.add(sha(d / "records.csv"))
        assert len(digests) == 1

    @pytest.mark.parametrize("name, save, named", [
        ("x.npy", lambda p: np.save(p, np.zeros((1, 3, 16, 16), np.float32)),
         "[C, H, W] array of numbers, got float32 shape (1, 3, 16, 16)"),
        ("x.npz", lambda p: np.savez(p, x=np.zeros((3, 16, 16), np.float32)), "[C, H, W] array, got a NpzFile"),
        ("x.npy", lambda p: np.save(p, np.full((3, 16, 16), "a")), "[C, H, W] array of numbers, got <U1"),
        ("x.npy", lambda p: p.write_text("3 16 16"), "is not a .npy file"),
    ], ids=["4d", "npz", "strings", "text"])
    @pytest.mark.parametrize("command", ["run", "quantize"])
    def test_input_array_must_be_chw(self, tmp_path, model_file, capsys, name, save, named, command):
        img = tmp_path / name
        save(img)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"inputs": [{"path": str(img)}]}))
        out = tmp_path / "out"
        args = (["run", "--config", cfg, "--out-dir", out] if command == "run"
                else ["quantize", "--calib", img, "--out", out])
        assert run_cli(*args, "--model", model_file) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: input {img} ") and named in err and not out.exists()

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

    @pytest.mark.parametrize("config, named", [
        ({"layers": [0, 99]}, "layers filter: no fault sites in layer 99 "),
        ({"layers": [0, 2]}, "layers filter: no fault sites in layer 2 "),
        ({"layers": []}, "layers filter must be a non-empty set of non-negative layer ids, got ()"),
        ({"layers": [0, -1]}, "layers filter must be a non-empty set of non-negative layer ids, got (0, -1)"),
        ({"bits": [30, 40]}, "bits filter must be a non-empty set of positions in 0..31, got (30, 40)"),
    ])
    def test_filters_that_select_nothing_exit_2(self, tmp_path, model_file, capsys, config, named):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("plan", "--model", model_file, "--config", cfg) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(UNLOADABLE_MODELS))
    def test_unloadable_model_exits_2(self, tmp_path, config_file, capsys, case):
        path = tmp_path / "m.bin"
        save_unloadable_model(path, case)
        assert run_cli("run", "--model", path, "--config", config_file, "--out-dir", tmp_path / "r") == 2
        assert re.search(UNLOADABLE_MODELS[case], capsys.readouterr().err)
        assert not (tmp_path / "r").exists()

    def test_config_error_keeps_an_earlier_runs_files(self, tmp_path, model_file, config_file, capsys):
        # the stream checks the config before records.csv is opened
        d = tmp_path / "r"
        assert run_cli("run", "--model", model_file, "--config", config_file, "--out-dir", d) == 0
        written = {p.name: p.read_bytes() for p in d.iterdir()}
        assert sorted(written) == ["manifest.json", "matrix.csv", "records.csv"]
        inputs = json.loads(config_file.read_text())["inputs"]
        cfg = tmp_path / "c.json"
        for config, named in (({"seed": 5}, "at least one input"), ({"layers": [99], "inputs": inputs}, "empty"),
                              ({"layers": [0, 99], "inputs": inputs}, "layer 99")):
            cfg.write_text(json.dumps(config))
            for out in (d, tmp_path / "fresh"):
                assert run_cli("run", "--model", model_file, "--config", cfg, "--out-dir", out) == 2
                assert named in capsys.readouterr().err
            assert {p.name: p.read_bytes() for p in d.iterdir()} == written
            assert not (tmp_path / "fresh").exists()

    @staticmethod
    def _interruptible_run(tmp_path, model_file, monkeypatch, where):
        """The argv of a 140-injection run, the records.csv it writes, and a
        counter of its injections; once this returns, a run with that argv
        meets Ctrl-C in the plan's 40th injection, or in the writer after 40
        rows."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 5, "cap": 20, "inputs": [{"synthetic": {"height": 16, "width": 16}}]}))
        args = ("run", "--model", model_file, "--config", cfg, "--out-dir", tmp_path / "r", "--jobs", 2)
        assert run_cli(*args) == 0
        full = (tmp_path / "r" / "records.csv").read_bytes()
        fortieth = camp.read_records_csv(tmp_path / "r" / "records.csv")[39].location
        calls = SharedCount(1)  # the forked workers count their calls in shared memory
        real_score, real_write = camp.faulted_changed_pixels, camp.write_records_csv

        def score(model, golden, fault):
            next(calls)
            if where == "worker" and fault.location == fortieth:  # whichever worker runs it
                raise KeyboardInterrupt
            return real_score(model, golden, fault)

        def write(path, records):
            def first_40():
                for k, r in enumerate(records):
                    if k == 40:
                        raise KeyboardInterrupt
                    yield r

            real_write(path, first_40() if where == "writer" else records)

        monkeypatch.setattr(camp, "faulted_changed_pixels", score)
        monkeypatch.setattr(camp, "write_records_csv", write)
        return [str(a) for a in args], full, calls

    @staticmethod
    def _check_interrupted(d, full, calls, where):
        n = full.count(b"\r\n") - 1
        assert n >= 100
        ran = next(calls)
        time.sleep(0.2)
        assert next(calls) == ran + 1 and ran - 1 < n // 2
        part = (d / "records.csv").read_bytes()
        assert full.startswith(part) and part.endswith(b"\r\n")
        assert part.count(b"\r\n") - 1 == (39 if where == "worker" else 40)
        assert sorted(p.name for p in d.iterdir()) == ["records.csv"]

    @pytest.mark.parametrize("where", ["worker", "writer"])
    def test_interrupted_run_leaves_complete_rows_and_no_matrix(self, tmp_path, model_file, monkeypatch, capsys,
                                                                where):
        args, full, calls = self._interruptible_run(tmp_path, model_file, monkeypatch, where)
        capsys.readouterr()
        assert main(args) == 130
        err = capsys.readouterr().err
        assert err.startswith("interrupted: run stopped") and err.count("\n") == 1
        self._check_interrupted(tmp_path / "r", full, calls, where)
        rows = 39 if where == "worker" else 40
        assert f"{tmp_path / 'r' / 'records.csv'} keeps {rows} complete rows, with no manifest" in err

    def test_interrupt_with_its_traceback_held_stops_the_stream(self, tmp_path, model_file, monkeypatch):
        # the traceback keeps cmd_run's frame, and so the stream, alive, as a
        # caller that keeps the exception does: only closing the stream stops it
        args, full, calls = self._interruptible_run(tmp_path, model_file, monkeypatch, "writer")
        with pytest.raises(KeyboardInterrupt) as interrupt:
            cmd_run(build_parser().parse_args(args))
        self._check_interrupted(tmp_path / "r", full, calls, "writer")
        del interrupt

    @staticmethod
    def _run_in_its_own_session(tmp_path, model_file):
        """`seusim run --jobs 2` on a 5201-injection campaign, started in its
        own session and process group once the run to compare with has
        finished, and left once both its processes are running and its
        records file holds complete rows: the running process, and the
        records its uninterrupted run wrote.  The file is block-buffered, so
        its first rows reach the disk 112 rows in, with 98% of the campaign
        still to run (about 0.85 s of a 1.25 s run on 2 vCPUs)."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 5, "cap": 1550, "inputs": [{"synthetic": {"height": 16, "width": 16}}]}))
        argv = ("run", "--model", model_file, "--config", cfg, "--jobs", 2, "--out-dir")
        assert run_cli(*argv, tmp_path / "full") == 0
        full = (tmp_path / "full" / "records.csv").read_bytes()
        assert full.count(b"\r\n") - 1 >= 5000
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        run = subprocess.Popen([sys.executable, "-m", "seusim.cli", *map(str, argv), str(tmp_path / "cut")],
                               env=env, start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        cut = tmp_path / "cut" / "records.csv"
        try:
            with deadline(60):
                while len(live_processes(run.pid)) < 2 or not (cut.exists() and cut.read_bytes().count(b"\r\n") > 1):
                    assert run.poll() is None, "the run ended before it wrote a complete row"
                    time.sleep(0.01)
        except BaseException:
            os.killpg(run.pid, signal.SIGKILL)
            run.wait()
            raise
        return run, full

    def test_sigint_to_the_process_group_stops_the_run_and_its_workers(self, tmp_path, model_file):
        # a real Ctrl-C reaches the caller and its forked workers alike: the
        # workers ignore it, and the caller stops and reaps them
        run, full = self._run_in_its_own_session(tmp_path, model_file)
        try:
            os.killpg(run.pid, signal.SIGINT)
            err = run.communicate(timeout=60)[1].decode()
        finally:
            if run.poll() is None:
                os.killpg(run.pid, signal.SIGKILL)
                run.wait()
        assert run.returncode == 130
        assert err.startswith("interrupted: run stopped") and err.count("\n") == 1
        part = (tmp_path / "cut" / "records.csv").read_bytes()
        assert full.startswith(part) and part.endswith(b"\r\n") and len(part) < len(full)
        with pytest.raises(ProcessLookupError):  # no process of the run's group is left
            os.killpg(run.pid, 0)

    def test_a_killed_run_leaves_no_worker_running(self, tmp_path, model_file):
        # SIGKILL runs no cleanup in the caller: its worker must notice that it is gone
        run, _ = self._run_in_its_own_session(tmp_path, model_file)
        os.kill(run.pid, signal.SIGKILL)
        run.wait()
        run.stderr.close()  # a worker may hold its write end still
        try:
            with deadline(20):
                while live_processes(run.pid):
                    time.sleep(0.01)
        finally:
            if live_processes(run.pid):
                os.killpg(run.pid, signal.SIGKILL)

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

    def test_rounded_p_fi_accepted(self, tmp_path):
        # six uniform probabilities rounded to four digits sum to 1.0002
        out = tmp_path / "p.json"
        assert run_cli("predict", "--freqs", "0,44.91,4.41,26.95,7.47,16.27", "--signs", "n,p,n,p,n,p",
                       "--p-fi", ",".join(["0.1667"] * 6), "--out", out) == 0
        assert json.loads(out.read_text())["expected_msb_error"] * 100 == pytest.approx(37.29, abs=0.01)

    def test_biases_give_signs(self, tmp_path):
        out = tmp_path / "p.json"
        # values starting with a dash need the --flag=value form
        assert run_cli("predict", "--freqs", "0,44.91,4.41,26.95,7.47,16.27",
                       "--biases=-0.85,0.32,-0.03,0.04,-0.17,0.11", "--out", out) == 0
        assert json.loads(out.read_text())["bias_signs"] == [
            "negative", "positive", "negative", "positive", "negative", "positive"]

    def test_predict_from_golden_map_and_model(self, tmp_path, model_file):
        from seusim.errormodel import bias_signs, class_frequencies
        from seusim.model import ParamKind, predict_classes, synthetic_input

        g = load_model(model_file)
        golden = predict_classes(g, synthetic_input(g, 16, 16, seed=1))
        path = tmp_path / "golden.npy"
        np.save(path, golden)
        out = tmp_path / "p.json"
        assert run_cli("predict", "--golden", path, "--out", out) == 2  # needs --model
        assert run_cli("predict", "--golden", path, "--model", model_file, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["class_frequencies"] == class_frequencies(golden, 6).tolist()
        assert report["bias_signs"] == list(bias_signs(g.nodes[-1].params[ParamKind.ConvBias].data))

    @pytest.mark.parametrize("name, save, named", [
        ("g.npz", lambda p: np.savez(p, g=np.zeros((16, 16), np.int64)), "[H, W] array, got a NpzFile"),
        ("g.npy", lambda p: np.save(p, np.full((16, 16), 2.7)), "[H, W] array of integers, got float64 shape (16, 16)"),
        ("g.npy", lambda p: np.save(p, np.zeros((1, 16, 16), np.int64)),
         "[H, W] array of integers, got int64 shape (1, 16, 16)"),
        ("g.npy", lambda p: np.save(p, np.zeros((16, 16), bool)), "[H, W] array of integers, got bool"),
        ("g.npy", lambda p: p.write_text("0 1 2"), "is not a .npy file"),
    ], ids=["npz", "float", "3d", "bool", "text"])
    def test_golden_map_must_be_integer_hw(self, tmp_path, model_file, capsys, name, save, named):
        golden = tmp_path / name
        save(golden)
        out = tmp_path / "p.json"
        assert run_cli("predict", "--golden", golden, "--model", model_file, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: golden map {golden} ") and named in err and not out.exists()

    @pytest.mark.parametrize("class_id", [-1, 6])
    def test_golden_class_out_of_range_names_file_and_class(self, tmp_path, model_file, capsys, class_id):
        golden = tmp_path / "g.npy"
        np.save(golden, np.full((4, 4), class_id))
        out = tmp_path / "p.json"
        assert run_cli("predict", "--golden", golden, "--model", model_file, "--out", out) == 2
        assert capsys.readouterr().err == f"error: golden map {golden}: class id {class_id} out of range for 6 classes\n"
        assert not out.exists()

    def test_predict_without_inputs_is_error(self, tmp_path):
        assert run_cli("predict", "--out", tmp_path / "p.json") == 2

    @pytest.mark.parametrize("args, option", [
        (["--freqs", "10,20"], "--freqs"),  # percent summing to 30
        (["--freqs=-0.5,1.5"], "--freqs"),
        (["--freqs", "0.3,0.7", "--p-fi=-0.5,1.5"], "--p-fi"),
        (["--freqs", ""], "--freqs"),
        (["--freqs", "0.3,0.7", "--p-fi", ""], "--p-fi"),
    ])
    def test_predict_takes_probabilities_only(self, tmp_path, capsys, args, option):
        out = tmp_path / "p.json"
        assert run_cli("predict", *args, "--signs", "n,p", "--out", out) == 2
        assert option in capsys.readouterr().err and not out.exists()

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
        [c] = report["comparisons"]  # no weighted comparison: the profile's bits are not all measured
        assert c["quantity"] == "exponent_msb_error"
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

    @pytest.mark.parametrize("halfwidth", ["nan", "-1", "inf"])
    def test_compare_halfwidth_must_be_finite_and_non_negative(self, tmp_path, capsys, halfwidth):
        # nan would flag nothing and write invalid JSON, -1 flag everything, inf nothing
        pred = tmp_path / "p.json"
        run_cli("predict", "--freqs", "0,44.91,4.41,26.95,7.47,16.27",
                "--signs", "n,p,n,p,n,p", "--out", pred)
        matrix = tmp_path / "matrix.csv"
        self._write_matrix(matrix, [(2, 30, 6, 0.34, 0.3, 0.4, 0.83)])
        out = tmp_path / "cmp.json"
        assert run_cli("compare", "--matrix", matrix, "--prediction", pred, "--out", out,
                       f"--halfwidth={halfwidth}") == 1
        assert f"argument --halfwidth: must be a finite number >= 0, got {halfwidth}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option, value", [("--bit-min", -1), ("--bit-max", 32), ("--bit-max", 40)])
    def test_predict_bit_range_must_be_bit_positions(self, tmp_path, capsys, option, value):
        # --bit-max 40 would weight bits no 32-bit bias has and exit 0
        out = tmp_path / "p.json"
        assert run_cli("predict", "--freqs", "0,44.91,4.41,26.95,7.47,16.27", "--signs", "n,p,n,p,n,p",
                       "--weighting", "linear_ramp", f"{option}={value}", "--out", out) == 1
        assert f"argument {option}: must be a bit position in 0..31, got {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_predict_bit_range_reaches_bit_31(self, tmp_path):
        out = tmp_path / "p.json"
        assert run_cli("predict", "--freqs", "0,44.91,4.41,26.95,7.47,16.27", "--signs", "n,p,n,p,n,p",
                       "--bit-max", 31, "--out", out) == 0
        assert json.loads(out.read_text())["profile"]["bit_range"] == [0, 31]

    def test_compare_weighted_quantized_error(self, tmp_path):
        # every bit of the profile's range measured: the weighted comparison joins the MSB one
        pred = tmp_path / "p.json"
        run_cli("predict", "--freqs", "0,41.22,5.23,23.97,6.18,23.39", "--signs", "n,p,n,p,p,p",
                "--k-sat", 19, "--out", pred)
        matrix = tmp_path / "matrix.csv"
        self._write_matrix(matrix, [(2, b, 6, 0.5 if b >= 19 else 0.0, 0.0, 0.5, 0.5) for b in range(31)])
        out = tmp_path / "cmp.json"
        assert run_cli("compare", "--matrix", matrix, "--prediction", pred, "--out", out) == 0
        by_quantity = {c["quantity"]: c for c in json.loads(out.read_text())["comparisons"]}
        weighted = by_quantity["weighted_quantized_error"]
        assert weighted["measured"] == 0.5  # saturated_only weights bits 19..30 alone
        assert weighted["expected"] == pytest.approx(0.5175, abs=1.5e-4)
        assert weighted["abs_deviation"] == pytest.approx(abs(0.5 - weighted["expected"]))
        assert set(by_quantity) == {"exponent_msb_error", "weighted_quantized_error"}

    def test_prediction_must_be_a_json_object(self, tmp_path, capsys):
        pred = tmp_path / "p.json"
        pred.write_text("0.5")
        matrix = tmp_path / "matrix.csv"
        self._write_matrix(matrix, [(2, 30, 6, 0.34, 0.3, 0.4, 0.83)])
        assert run_cli("compare", "--matrix", matrix, "--prediction", pred,
                       "--out", tmp_path / "cmp.json") == 2
        assert "p.json" in capsys.readouterr().err

    @pytest.mark.parametrize("change, named", [
        ({"profile": []}, "'profile'"),
        ({"profile": {"k_sat": 19, "weighting": "saturated_only"}}, "'profile.bit_range'"),
        ({"profile": {"k_sat": 19, "bit_range": [0, 30, 1], "weighting": "saturated_only"}},
         "'profile.bit_range'"),
        ({"profile": {"k_sat": 19.0, "bit_range": [0, 30], "weighting": "saturated_only"}}, "'profile.k_sat'"),
        ({"profile": {"k_sat": 19, "bit_range": [0, 30], "weighting": 1}}, "'profile.weighting'"),
        ({"expected_msb_error": "x"}, "'expected_msb_error'"),
        ({"expected_quantized_error": True}, "'expected_quantized_error'"),
    ])
    def test_malformed_prediction_field_is_data_error(self, tmp_path, capsys, change, named):
        pred = tmp_path / "p.json"
        run_cli("predict", "--freqs", "0,44.91,4.41,26.95,7.47,16.27",
                "--signs", "n,p,n,p,n,p", "--out", pred)
        pred.write_text(json.dumps({**json.loads(pred.read_text()), **change}))
        matrix = tmp_path / "matrix.csv"
        self._write_matrix(matrix, [(2, b, 6, 0.34, 0.3, 0.4, 0.83) for b in range(31)])
        capsys.readouterr()
        assert run_cli("compare", "--matrix", matrix, "--prediction", pred,
                       "--out", tmp_path / "cmp.json") == 2
        assert f"prediction {pred}: field {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("rows, named", [
        (["2,30,6,0.34"], ", line 2, column 'std': missing"),
        (["2,x,6,0.34,0.3,0.4,0.83"], ", line 2, column 'bit': expected int, got 'x'"),
        (["2,29,6,0,0,0,0", "2,30,6,0.34,0.3,0.4,high"], ", line 3, column 'max': expected float, got 'high'"),
        (["2,30,6,0.34,0.3,0.4,0.83,9"], ", line 2, column 8: unexpected value '9'"),
        (None, ": unexpected matrix header: None"),  # an empty file
        (["2,30,6,0.9,0,0.9,0.9", "2,30,6,0.3721,0.3,0.4,0.83"], ", line 3: cell (2, 30) repeats line 2"),
        (["2,30,6,nan,0.3,0.4,0.83"], ", line 2, column 'mean': nan outside [0, 1]"),
    ])
    def test_malformed_matrix_cell_is_data_error(self, tmp_path, capsys, rows, named):
        pred = tmp_path / "p.json"
        run_cli("predict", "--freqs", "0,44.91,4.41,26.95,7.47,16.27",
                "--signs", "n,p,n,p,n,p", "--out", pred)
        matrix = tmp_path / "matrix.csv"
        matrix.write_text("" if rows is None else "\n".join(["layer_id,bit,count,mean,std,mean_nonzero,max", *rows]))
        capsys.readouterr()
        assert run_cli("compare", "--matrix", matrix, "--prediction", pred,
                       "--out", tmp_path / "cmp.json") == 2
        assert capsys.readouterr().err == f"error: {matrix}{named}\n"

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

    @pytest.mark.parametrize("content, named", [
        ([0.5], "plan.json"),
        ({"ratios": [1]}, "'ratios'"),
        ({"ratios": {"0": "0.5"}}, "'ratios'"),
        ({"ratios": {"0": True}}, "'ratios'"),
        ({"ratios": {"x": 0.5}}, "plan.json: field 'ratios': layer id 'x'"),
        ({"ratios": {"1.0": 0.5}}, "plan.json: field 'ratios': layer id '1.0'"),
        ({"ratio": {"0": 0.5}}, "plan.json: field 'ratio': unknown"),
        ({"ratios": {"0": 0.5}, "seed": 1}, "plan.json: field 'seed': unknown"),
    ])
    def test_malformed_prune_plan_is_data_error(self, tmp_path, model_file, capsys, content, named):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(content))
        out = tmp_path / "pruned.bin"
        assert run_cli("prune", "--model", model_file, "--plan", plan, "--out", out) == 2
        assert named in capsys.readouterr().err and not out.exists()

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

    def test_quantize_manifest_records_the_input_hash(self, tmp_path, model_file):
        out = tmp_path / "q.bin"
        assert run_cli("quantize", "--model", model_file, "--out", out,
                       "--calib-synthetic", 1, "--size", 16, 16) == 0
        manifest = json.loads((tmp_path / "q.bin.manifest.json").read_text())
        assert manifest["model_sha256"] == sha(model_file)

    def test_quantize_accepts_npy_calibration(self, tmp_path, model_file):
        img = tmp_path / "img.npy"
        np.save(img, np.random.default_rng(0).normal(size=(3, 16, 16)).astype(np.float32))
        out = tmp_path / "q.bin"
        assert run_cli("quantize", "--model", model_file, "--out", out, "--calib", img) == 0

    def test_non_finite_calibration_image_is_data_error(self, tmp_path, model_file, capsys):
        good, bad = tmp_path / "good.npy", tmp_path / "bad.npy"
        image = np.random.default_rng(0).normal(size=(3, 16, 16)).astype(np.float32)
        np.save(good, image)
        image[1, 2, 3] = np.nan
        np.save(bad, image)
        out = tmp_path / "q.bin"
        assert run_cli("quantize", "--model", model_file, "--out", out, "--calib", good, bad) == 2
        assert capsys.readouterr().err == f"error: calibration input {bad} holds non-finite values\n"
        assert not out.exists()

    def test_non_finite_weight_is_data_error(self, tmp_path, model_file, capsys):
        g = load_model(model_file)
        g.nodes[4].params[ParamKind.ConvWeight].data[0, 0, 0, 0] = np.inf
        save_model(g, model_file)
        out = tmp_path / "q.bin"
        assert run_cli("quantize", "--model", model_file, "--out", out, "--calib-synthetic", 1,
                       "--size", 16, 16) == 2
        # named as the file numbers it, not as the folded model does
        assert capsys.readouterr().err == "error: conv 4 ConvWeight holds non-finite values\n"
        assert not out.exists()


    def test_error_after_folding_names_the_files_node(self, tmp_path, capsys):
        # the folded model's conv 3 is the file's conv 4, folded with batch_norm 5; node 3 is a max_pool2
        model = tmp_path / "m.bin"
        assert run_cli("gen", "--depth", 1, "--base-channels", 8, "--seed", 3, "--out", model) == 0
        g = load_model(model)
        g.nodes[4].params[ParamKind.ConvWeight].data[...] = 3e38
        save_model(g, model)
        capsys.readouterr()
        out = tmp_path / "q.bin"
        assert run_cli("quantize", "--model", model, "--out", out, "--calib-synthetic", 2,
                       "--size", 16, 16) == 2
        assert capsys.readouterr().err == ("error: conv 4 (folded with batch_norm 5) output on calibration "
                                           "input 0 spans [inf, inf], not a finite range\n")
        assert not out.exists()


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


class TestManifests:
    def test_every_written_file_is_in_a_manifest(self, tmp_path, monkeypatch):
        inputs, out = tmp_path / "in", tmp_path / "out"
        inputs.mkdir()
        out.mkdir()
        monkeypatch.chdir(out)
        cfg = inputs / "c.json"
        cfg.write_text(json.dumps({"seed": 5, "cap": 6, "bits": [30],
                                   "inputs": [{"synthetic": {"height": 16, "width": 16, "seed": 1}}]}))
        prune_plan = inputs / "plan.json"
        prune_plan.write_text(json.dumps({"ratios": {"0": 0.5}}))
        commands = [
            ["gen", "--depth", 1, "--base-channels", 4, "--out", "m.bin"],
            ["plan", "--model", "m.bin", "--config", cfg, "--out", "plan.csv"],
            ["run", "--model", "m.bin", "--config", cfg, "--out-dir", "run"],
            ["predict", "--freqs", "0,44.91,4.41,26.95,7.47,16.27", "--signs", "n,p,n,p,n,p",
             "--out", "p.json"],
            # the manifest of --out FILE is FILE.manifest.json, so it does not replace gen's
            ["predict", "--freqs", "0,44.91,4.41,26.95,7.47,16.27", "--signs", "n,p,n,p,n,p",
             "--out", "m.bin.json"],
            ["compare", "--matrix", "run/matrix.csv", "--prediction", "p.json", "--out", "cmp.json"],
            ["prune", "--model", "m.bin", "--plan", prune_plan, "--out", "pruned.bin"],
            ["quantize", "--model", "m.bin", "--out", "q.bin", "--calib-synthetic", 1, "--size", 16, 16],
            ["census", "--model", "m.bin", "--out-dir", "census"],
        ]
        for command in commands:
            assert run_cli(*command) == 0, command[0]
        written = {p for p in out.rglob("*") if p.is_file()}
        manifests = {p for p in written if p.name.endswith("manifest.json")}
        listed = {m.parent / o["path"] for m in manifests for o in json.loads(m.read_text())["outputs"]}
        assert len(manifests) == len(commands)
        assert written - manifests == listed


class TestExitCodes:
    def test_no_arguments_is_usage(self):
        assert run_cli() == 1

    @pytest.mark.parametrize("command, document", [
        (("plan", "--model", "{model}", "--config", "{doc}"), "campaign config"),
        (("prune", "--model", "{model}", "--plan", "{doc}", "--out", "{out}"), "prune plan"),
        (("compare", "--matrix", "{matrix}", "--prediction", "{doc}", "--out", "{out}"), "prediction"),
    ], ids=["config", "prune-plan", "prediction"])
    def test_text_that_is_not_json_names_the_document(self, tmp_path, model_file, capsys, command, document):
        paths = {"model": model_file, "doc": tmp_path / "d.json", "out": tmp_path / "out.bin",
                 "matrix": tmp_path / "matrix.csv"}
        paths["doc"].write_text('{"seed": 1,}')
        paths["matrix"].write_text("layer_id,bit,count,mean,std,mean_nonzero,max\n2,30,6,0.34,0.3,0.4,0.83\n")
        assert run_cli(*(a.format(**paths) for a in command)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {document} {paths['doc']}: not a JSON document: Expecting property name"), err
        assert not paths["out"].exists()

    def test_unknown_subcommand_is_usage(self):
        assert run_cli("frobnicate") == 1

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0

    def test_corrupt_model_is_data_error(self, tmp_path, config_file):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a model at all")
        assert run_cli("census", "--model", bad) == 2
