import json
import math
import os
import struct

import numpy as np
import pytest

from helpers import global_shift_pair, zero_restorer
from mvcodec import fixtures
from mvcodec.cli import main
from mvcodec.codec import decode_sequence
from mvcodec.frames import Frame, load_sequence, write_sequence
from mvcodec.restorer import ARCH_FIELDS, init_restorer, load_model, model_schedule, save_model


@pytest.fixture(scope="module")
def seq_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliseq")
    frames = fixtures.translating_texture(5, seed=7)
    manifest = write_sequence(root, frames)
    return root, manifest, frames


def _fail_replace_of(monkeypatch, target: str) -> None:
    """Make ``os.replace`` fail for destinations named ``target``."""
    real_replace = os.replace

    def replace(src, dst):
        if os.path.basename(dst) == target:
            raise OSError("simulated write failure")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)


class TestEncode:
    def test_creates_deterministic_stream(self, seq_dir, tmp_path, capsys):
        _, manifest, _ = seq_dir
        out1 = tmp_path / "a.mvc"
        out2 = tmp_path / "b.mvc"
        assert main(["encode", str(manifest), "--qp", "32", "-o", str(out1)]) == 0
        printed = capsys.readouterr().out
        assert "bits=" in printed and "bpp=" in printed
        assert main(["encode", str(manifest), "--qp", "32", "-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_qp_out_of_range_is_exit_2(self, seq_dir, tmp_path):
        _, manifest, _ = seq_dir
        assert main(["encode", str(manifest), "--qp", "60", "-o", str(tmp_path / "x.mvc")]) == 2

    def test_frame_wider_than_the_stream_header_is_exit_2(self, tmp_path, capsys):
        manifest = write_sequence(tmp_path / "wide", [Frame(np.full((16, 0x10000), 128, np.uint8))])
        out = tmp_path / "x.mvc"
        assert main(["encode", str(manifest), "--qp", "30", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "too large" in err and "Traceback" not in err
        assert not out.exists()

    def test_lower_qp_gives_bigger_file(self, seq_dir, tmp_path):
        _, manifest, _ = seq_dir
        lo = tmp_path / "lo.mvc"
        hi = tmp_path / "hi.mvc"
        main(["encode", str(manifest), "--qp", "16", "-o", str(lo)])
        main(["encode", str(manifest), "--qp", "40", "-o", str(hi)])
        assert lo.stat().st_size > hi.stat().st_size

    def test_missing_manifest_is_exit_1(self, tmp_path):
        assert main(["encode", str(tmp_path / "nope.txt"), "--qp", "20", "-o", str(tmp_path / "x.mvc")]) == 1

    def test_mutated_and_truncated_pgm_and_manifest_are_exit_0_1_or_2(self, tmp_path, capsys):
        manifest = write_sequence(tmp_path / "seq", fixtures.translating_texture(2, size=32))
        frame = manifest.parent / "frame_0000.pgm"
        originals = {manifest: manifest.read_bytes(), frame: frame.read_bytes()}
        pgm_header = len(b"P5\n32 32\n255\n")
        # header-like bytes make the mutations reach past the first token
        alphabet = b"0123456789 \t\n#-+.P5"
        rng = np.random.default_rng(29)
        out = tmp_path / "s.mvc"
        codes = set()
        for i in range(400):
            for path, data in originals.items():
                path.write_bytes(data)
            path = manifest if i % 2 else frame
            case = bytearray(originals[path])
            head = len(case) if path == manifest else pgm_header
            if i % 4 < 2:
                # a cut inside the header, or anywhere in the file
                case = case[: int(rng.integers(head if i % 8 < 4 else len(case)))]
            else:
                for _ in range(int(rng.integers(1, 4))):
                    pool = alphabet if rng.integers(2) else range(256)
                    case[int(rng.integers(head))] = pool[int(rng.integers(len(pool)))]
            path.write_bytes(bytes(case))
            code = main(["encode", str(manifest), "--qp", "36", "-o", str(out)])
            assert code in (0, 1, 2)
            assert "Traceback" not in capsys.readouterr().err
            codes.add(code)
        assert codes == {0, 1, 2}


class TestDecode:
    def test_round_trip_constant_frames_qp0(self, tmp_path):
        frames = [Frame(np.full((64, 64), 77, dtype=np.uint8)) for _ in range(3)]
        manifest = write_sequence(tmp_path / "in", frames)
        stream = tmp_path / "c.mvc"
        assert main(["encode", str(manifest), "--qp", "0", "-o", str(stream)]) == 0
        assert main(["decode", str(stream), "-o", str(tmp_path / "out")]) == 0
        decoded = load_sequence(tmp_path / "out" / "manifest.txt")
        for orig, dec in zip(frames, decoded):
            assert np.array_equal(orig.pixels, dec.pixels)

    def test_truncated_stream_is_exit_2(self, seq_dir, tmp_path, capsys):
        _, manifest, _ = seq_dir
        stream = tmp_path / "t.mvc"
        main(["encode", str(manifest), "--qp", "32", "-o", str(stream)])
        stream.write_bytes(stream.read_bytes()[:30])
        assert main(["decode", str(stream), "-o", str(tmp_path / "out")]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_output_manifest_loads_back(self, seq_dir, tmp_path):
        _, manifest, frames = seq_dir
        stream = tmp_path / "s.mvc"
        main(["encode", str(manifest), "--qp", "24", "-o", str(stream)])
        main(["decode", str(stream), "-o", str(tmp_path / "dec")])
        loaded = load_sequence(tmp_path / "dec" / "manifest.txt")
        assert len(loaded) == len(frames)


class TestExtract:
    def test_json_schema_and_prediction_dump(self, seq_dir, tmp_path):
        _, manifest, _ = seq_dir
        stream = tmp_path / "s.mvc"
        main(["encode", str(manifest), "--qp", "24", "-o", str(stream)])
        out = tmp_path / "side.json"
        pred_dir = tmp_path / "preds"
        assert main(["extract", str(stream), "-o", str(out), "--pred-dir", str(pred_dir)]) == 0
        doc = json.loads(out.read_text())
        _, sides = decode_sequence(stream.read_bytes())
        assert len(doc["frames"]) == len(sides)
        for fr, side in zip(doc["frames"], sides):
            assert len(fr["leaves"]) == len(list(side.leaves()))
        preds = load_sequence(pred_dir / "manifest.txt")
        assert len(preds) == len(sides)
        for pred, side in zip(preds, sides):
            assert np.array_equal(pred.pixels, side.prediction.pixels)

    def test_global_shift_motion_in_dump(self, tmp_path):
        ref, cur = global_shift_pair(shift=(2, 3))
        manifest = write_sequence(tmp_path / "pair", [ref, cur])
        stream = tmp_path / "p.mvc"
        main(["encode", str(manifest), "--qp", "8", "-o", str(stream)])
        out = tmp_path / "side.json"
        main(["extract", str(stream), "-o", str(out)])
        doc = json.loads(out.read_text())
        interior = [
            leaf
            for leaf in doc["frames"][1]["leaves"]
            if 8 <= leaf["x"] and leaf["x"] + leaf["size"] <= 56
            and 8 <= leaf["y"] and leaf["y"] + leaf["size"] <= 56
        ]
        assert interior and all(leaf["mv"] == [2, 3] for leaf in interior)


class TestRestore:
    def test_zero_model_with_projection_is_decoded(self, seq_dir, tmp_path):
        _, manifest, _ = seq_dir
        stream = tmp_path / "s.mvc"
        main(["encode", str(manifest), "--qp", "36", "-o", str(stream)])
        model_path = tmp_path / "zero.mvdr"
        save_model(zero_restorer(), model_path)
        assert main(["restore", str(stream), "--model", str(model_path), "-o", str(tmp_path / "r")]) == 0
        main(["decode", str(stream), "-o", str(tmp_path / "d")])
        restored = load_sequence(tmp_path / "r" / "manifest.txt")
        decoded = load_sequence(tmp_path / "d" / "manifest.txt")
        for a, b in zip(restored, decoded):
            assert np.array_equal(a.pixels, b.pixels)

    def test_reference_report_printed(self, seq_dir, tmp_path, capsys):
        _, manifest, _ = seq_dir
        stream = tmp_path / "s.mvc"
        main(["encode", str(manifest), "--qp", "36", "-o", str(stream)])
        model_path = tmp_path / "zero.mvdr"
        save_model(zero_restorer(), model_path)
        rc = main([
            "restore", str(stream), "--model", str(model_path),
            "--reference", str(manifest), "-o", str(tmp_path / "r2"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        report = json.loads(out[out.index("{"):])
        assert report["decoded"]["count"] == 5
        assert report["restored"]["mean_psnr"] == pytest.approx(
            report["decoded"]["mean_psnr"]
        )

    @pytest.mark.parametrize("case, code", [("missing", 1), ("short", 2), ("smaller", 2)])
    def test_bad_reference_fails_before_writing(self, seq_dir, tmp_path, capsys, case, code):
        _, manifest, frames = seq_dir
        stream = tmp_path / "s.mvc"
        main(["encode", str(manifest), "--qp", "36", "-o", str(stream)])
        model_path = tmp_path / "zero.mvdr"
        save_model(zero_restorer(), model_path)
        reference = {
            "missing": tmp_path / "absent" / "manifest.txt",
            "short": write_sequence(tmp_path / "short", frames[:3]),
            "smaller": write_sequence(
                tmp_path / "smaller", [Frame(f.pixels[:32, :32]) for f in frames]
            ),
        }[case]
        out = tmp_path / "r"
        capsys.readouterr()
        argv = ["restore", str(stream), "--model", str(model_path),
                "--reference", str(reference), "-o", str(out)]
        assert main(argv) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "manifest.txt").exists()

    def test_missing_model_flag_is_usage_error(self, seq_dir, tmp_path):
        _, manifest, _ = seq_dir
        stream = tmp_path / "s.mvc"
        main(["encode", str(manifest), "--qp", "36", "-o", str(stream)])
        assert main(["restore", str(stream), "-o", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize(
        "case",
        [
            "missing_field", "string_field", "list_header", "short_preamble", "huge_header",
            # consistent schedules whose fields are out of range, with the
            # payload the schedule declares where that count is non-negative
            "channels=10000000000", "half_window=-1", "channels=0", "offset_hidden=0",
            "kernel_size=4", "kernel_size=-1", "attn_kernel=6", "attn_kernel=0",
        ],
    )
    def test_malformed_model_header_is_exit_2(self, seq_dir, tmp_path, capsys, case):
        _, manifest, _ = seq_dir
        stream = tmp_path / "s.mvc"
        main(["encode", str(manifest), "--qp", "36", "-o", str(stream)])
        model_path = tmp_path / "bad.mvdr"
        save_model(zero_restorer(), model_path)
        data = model_path.read_bytes()
        hlen = struct.unpack("<HI", data[4:10])[1]
        header = json.loads(data[10 : 10 + hlen])
        payload = data[10 + hlen :]
        if case == "missing_field":
            del header["channels"]
        elif case == "string_field":
            header["channels"] = "8"
        elif case == "list_header":
            header = [header]
        elif "=" in case:
            name, value = case.split("=")
            header[name] = int(value)
            arch = {field: header[field] for field in ARCH_FIELDS}
            sched = model_schedule(**arch)
            header["schedule"] = [[n, list(shape)] for n, shape in sched]
            count = sum(math.prod(shape) for _, shape in sched)
            # 10**10 channels declare terabytes; the file carries 80 bytes
            payload = bytes(80) if count > 10**6 else bytes(8 * max(count, 0))
        blob = json.dumps(header).encode()
        bad = data[:4] + struct.pack("<HI", 1, len(blob)) + blob + payload
        if case == "short_preamble":
            bad = data[:5]
        elif case == "huge_header":
            bad = data[:4] + struct.pack("<HI", 1, 2**32 - 1) + data[10:]
        model_path.write_bytes(bad)
        with pytest.raises(ValueError):  # at load time, before any decoding
            load_model(model_path)
        capsys.readouterr()
        rc = main(["restore", str(stream), "--model", str(model_path), "-o", str(tmp_path / "r")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_model_is_exit_2_and_writes_no_sequence(
        self, seq_dir, tmp_path, capsys, value
    ):
        _, manifest, _ = seq_dir
        stream = tmp_path / "s.mvc"
        main(["encode", str(manifest), "--qp", "36", "-o", str(stream)])
        model = init_restorer(seed=1)
        model.params["rec2.b"][:] = value
        model_path = tmp_path / "bad.mvdr"
        save_model(model, model_path)
        capsys.readouterr()
        out = tmp_path / "r"
        assert main(["restore", str(stream), "--model", str(model_path), "-o", str(out)]) == 2
        assert "'rec2.b' is not finite" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("command", ["restore", "rdcurve"])
    def test_overflowing_model_is_exit_3_and_writes_nothing(self, tmp_path, capsys, command):
        # every parameter is finite, but the forward overflows to inf
        manifest = write_sequence(tmp_path / "seq", fixtures.translating_texture(3))
        stream = tmp_path / "s.mvc"
        assert main(["encode", str(manifest), "--qp", "36", "-o", str(stream)]) == 0
        model = init_restorer()
        model.params["rec2.w"][...] = 1e300
        model.params["vmix.w"][...] = 1e300
        model_path = tmp_path / "big.mvdr"
        save_model(model, model_path)
        capsys.readouterr()
        out = tmp_path / "out"
        argv = {
            "restore": ["restore", str(stream), "--model", str(model_path), "-o", str(out)],
            "rdcurve": ["rdcurve", str(manifest), "--qps", "36", "--model", str(model_path),
                        "-o", str(out)],
        }[command]
        assert main(argv) == 3
        # the error line alone: numpy's overflow warning does not reach stderr
        assert capsys.readouterr().err == "error: restored frame 0 is not finite\n"
        assert not out.exists()  # neither a sequence directory nor a csv

    def test_mutated_and_truncated_models_load_or_are_exit_2(self, tmp_path):
        manifest = write_sequence(tmp_path / "seq", fixtures.translating_texture(2, size=32))
        stream = tmp_path / "s.mvc"
        assert main(["encode", str(manifest), "--qp", "36", "-o", str(stream)]) == 0
        model_path = tmp_path / "m.mvdr"
        save_model(init_restorer(seed=3), model_path)
        data = model_path.read_bytes()
        params_at = 10 + struct.unpack("<HI", data[4:10])[1]
        floats = (len(data) - params_at) // 8
        rng = np.random.default_rng(23)
        truncated = [data[:n] for n in sorted(rng.choice(len(data), 16, replace=False))]
        mutated = []
        for i in range(72):
            case = bytearray(data)
            if i % 3 == 2:
                # the exponent of one parameter set to all ones: a NaN or an infinity
                at = params_at + 8 * int(rng.integers(floats)) + 6
                case[at : at + 2] = bytes([0xF8 if i % 2 else 0xF0, 0xFF if i % 4 == 1 else 0x7F])
            else:
                # a random byte of the magic, preamble and JSON header, or of the file
                case[int(rng.integers(params_at if i % 3 else len(data)))] = int(rng.integers(256))
            mutated.append(bytes(case))
        out = tmp_path / "r"
        rejected = 0
        for case in truncated + mutated:
            model_path.write_bytes(case)
            try:
                load_model(model_path)
            except ValueError:
                rejected += 1
            else:
                assert case in mutated, "a truncated model loaded"
                continue
            argv = ["restore", str(stream), "--model", str(model_path), "-o", str(out)]
            assert main(argv) == 2
            assert not (out / "manifest.txt").exists()
        assert rejected >= len(truncated) + 24


class TestMetrics:
    def test_identical_sequences(self, seq_dir, tmp_path, capsys):
        _, manifest, _ = seq_dir
        out = tmp_path / "report.json"
        assert main(["metrics", "--reference", str(manifest), "--test", str(manifest), "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["psnr"] == [99.0] * 5
        assert report["ssim"] == pytest.approx([1.0] * 5)

    def test_means_are_arithmetic_means(self, seq_dir, tmp_path):
        root, manifest, frames = seq_dir
        stream = tmp_path / "s.mvc"
        main(["encode", str(manifest), "--qp", "32", "-o", str(stream)])
        main(["decode", str(stream), "-o", str(tmp_path / "dec")])
        out = tmp_path / "report.json"
        main(["metrics", "--reference", str(manifest), "--test", str(tmp_path / "dec" / "manifest.txt"), "-o", str(out)])
        report = json.loads(out.read_text())
        assert report["mean_psnr"] == pytest.approx(float(np.mean(report["psnr"])), abs=1e-9)
        assert report["mean_ssim"] == pytest.approx(float(np.mean(report["ssim"])), abs=1e-9)

    def test_count_mismatch_is_exit_2(self, seq_dir, tmp_path):
        _, manifest, frames = seq_dir
        short = write_sequence(tmp_path / "short", frames[:3])
        assert main(["metrics", "--reference", str(manifest), "--test", str(short), "-o", str(tmp_path / "r.json")]) == 2


class TestRdCurve:
    def test_monotone_columns_and_passthrough(self, seq_dir, tmp_path):
        _, manifest, _ = seq_dir
        out = tmp_path / "curve.csv"
        assert main(["rdcurve", str(manifest), "--qps", "8,16,24,32,40", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "qp,bpp,psnr_dec,psnr_rest,ssim_dec,ssim_rest"
        rows = [line.split(",") for line in lines[1:]]
        qps = [int(r[0]) for r in rows]
        bpps = [float(r[1]) for r in rows]
        psnrs = [float(r[2]) for r in rows]
        assert qps == sorted(qps)
        assert all(a > b for a, b in zip(bpps, bpps[1:]))
        assert all(a > b for a, b in zip(psnrs, psnrs[1:]))
        # without a model the restored columns equal the decoded ones
        for r in rows:
            assert r[2] == r[3] and r[4] == r[5]

    def test_bad_qps_list_is_exit_2(self, seq_dir, tmp_path):
        _, manifest, _ = seq_dir
        assert main(["rdcurve", str(manifest), "--qps", "8,8", "-o", str(tmp_path / "c.csv")]) == 2


@pytest.mark.parametrize("command", ["encode", "rdcurve", "metrics", "restore", "train"])
def test_manifest_without_frames_is_exit_2(seq_dir, tmp_path, capsys, command):
    _, manifest, _ = seq_dir
    empty = tmp_path / "empty.txt"
    empty.write_text("64 64 25\n")
    if command == "restore":
        stream = tmp_path / "s.mvc"
        assert main(["encode", str(manifest), "--qp", "36", "-o", str(stream)]) == 0
        model = tmp_path / "zero.mvdr"
        save_model(zero_restorer(), model)
        argv = ["restore", str(stream), "--model", str(model), "--reference", str(empty)]
    elif command == "train":
        dataset = tmp_path / "dataset.txt"
        dataset.write_text(str(empty) + "\n")
        argv = ["train", str(dataset), "--iters", "1"]
    else:
        argv = {
            "encode": ["encode", str(empty), "--qp", "32"],
            "rdcurve": ["rdcurve", str(empty)],
            "metrics": ["metrics", "--reference", str(empty), "--test", str(empty)],
        }[command]
    inputs = set(tmp_path.iterdir())
    capsys.readouterr()
    assert main([*argv, "-o", str(tmp_path / "out")]) == 2
    assert "no frames" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == inputs  # no output, no loss trace


@pytest.mark.parametrize("tau", ["inf", "nan"])
@pytest.mark.parametrize("command", [["encode", "--qp", "32"], ["rdcurve"]])
def test_non_finite_tau_is_exit_2(seq_dir, tmp_path, capsys, command, tau):
    _, manifest, _ = seq_dir
    out = tmp_path / "out"
    argv = [command[0], str(manifest), *command[1:], "--tau", tau, "-o", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("tau", ["6553.55", "1e307", "1e308"])
@pytest.mark.parametrize("command", [["encode", "--qp", "32"], ["rdcurve"]])
def test_tau_beyond_the_stream_header_is_exit_2(seq_dir, tmp_path, capsys, command, tau):
    _, manifest, _ = seq_dir
    out = tmp_path / "out"
    argv = [command[0], str(manifest), *command[1:], "--tau", tau, "-o", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "too large" in err and "Traceback" not in err
    assert not out.exists()


class TestTrainCommand:
    def test_short_training_run_is_deterministic(self, tmp_path):
        frames = fixtures.translating_texture(5, seed=7)
        seq_manifest = write_sequence(tmp_path / "seq", frames)
        dataset = tmp_path / "dataset.txt"
        dataset.write_text(str(seq_manifest) + "\n")
        m1 = tmp_path / "m1.mvdr"
        m2 = tmp_path / "m2.mvdr"
        for out in (m1, m2):
            rc = main(["train", str(dataset), "--qp", "36", "--iters", "6", "--seed", "1", "-o", str(out)])
            assert rc == 0
        assert m1.read_bytes() == m2.read_bytes()
        loss_rows = (tmp_path / (m1.name + ".loss.csv")).read_text().strip().splitlines()
        assert loss_rows[0] == "iteration,loss"
        assert len(loss_rows) == 1 + 6

    def test_zero_iterations_write_the_initial_model_and_a_header_only_trace(
        self, tmp_path, capsys
    ):
        seq_manifest = write_sequence(tmp_path / "seq", fixtures.translating_texture(3, seed=7))
        dataset = tmp_path / "dataset.txt"
        dataset.write_text(str(seq_manifest) + "\n")
        out = tmp_path / "m.mvdr"
        assert main(["train", str(dataset), "--iters", "0", "--seed", "2", "-o", str(out)]) == 0
        # no loss was computed, and "nan" would read as a numerical abort
        assert capsys.readouterr().out.splitlines()[0] == "trained on 12 samples; final loss n/a"
        initial = init_restorer(seed=2)
        for name, p in load_model(out).params.items():
            assert np.array_equal(p, initial.params[name]), name
        assert (tmp_path / "m.mvdr.loss.csv").read_text() == "iteration,loss\n"

    def test_empty_dataset_is_exit_2(self, tmp_path):
        dataset = tmp_path / "dataset.txt"
        dataset.write_text("")
        assert main(["train", str(dataset), "--iters", "2", "-o", str(tmp_path / "m.mvdr")]) == 2


class TestUsage:
    def test_unknown_command_is_exit_2(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_numerical_abort_is_exit_3(self, tmp_path, monkeypatch):
        frames = fixtures.translating_texture(5, seed=7)
        seq_manifest = write_sequence(tmp_path / "seq", frames)
        dataset = tmp_path / "dataset.txt"
        dataset.write_text(str(seq_manifest) + "\n")
        from mvcodec import cli
        from mvcodec.restorer import TrainingDiverged

        def explode(*args, **kwargs):
            raise TrainingDiverged("loss became non-finite at iteration 0")

        monkeypatch.setattr(cli, "train_restorer", explode)
        assert main(["train", str(dataset), "--iters", "1", "-o", str(tmp_path / "m.mvdr")]) == 3

    @pytest.mark.parametrize("command, target", [
        ("encode", "out.mvc"), ("train", "m.mvdr"), ("train", "m.mvdr.loss.csv"),
        ("extract", "side.json"), ("metrics", "report.json"), ("rdcurve", "rd.csv"),
    ])
    def test_failed_write_leaves_no_output(self, seq_dir, tmp_path, monkeypatch, command, target):
        # the last step of an atomic write fails for one output: that output
        # must not exist, and no temp file may be left beside it
        _, manifest, _ = seq_dir
        dataset = tmp_path / "dataset.txt"
        dataset.write_text(str(manifest) + "\n")
        stream = tmp_path / "in.mvc"
        assert main(["encode", str(manifest), "--qp", "32", "-o", str(stream)]) == 0
        _fail_replace_of(monkeypatch, target)
        before = set(tmp_path.iterdir())
        out = str(tmp_path / target)
        argv = {
            "encode": ["encode", str(manifest), "--qp", "32", "-o", out],
            "train": ["train", str(dataset), "--iters", "1", "-o", str(tmp_path / "m.mvdr")],
            "extract": ["extract", str(stream), "-o", out],
            "metrics": ["metrics", "--reference", str(manifest), "--test", str(manifest), "-o", out],
            "rdcurve": ["rdcurve", str(manifest), "--qps", "16,36", "-o", out],
        }[command]
        assert main(argv) == 1
        assert not (tmp_path / target).exists()
        assert not any(p.name.endswith(".tmp") for p in set(tmp_path.iterdir()) - before)

    @pytest.mark.parametrize("command", ["decode", "restore"])
    def test_failed_manifest_write_leaves_no_sequence_that_loads(
        self, seq_dir, tmp_path, monkeypatch, command
    ):
        # a longer sequence already sits in the output directory; rewriting it
        # with fewer frames fails at the manifest, so neither the old manifest
        # (over a mix of old and new frames) nor a shorter one may load
        _, manifest, frames = seq_dir
        short = write_sequence(tmp_path / "short", frames[:3])
        stream = tmp_path / "short.mvc"
        assert main(["encode", str(short), "--qp", "32", "-o", str(stream)]) == 0
        model = tmp_path / "m.mvdr"
        save_model(zero_restorer(), model)
        out = tmp_path / "out"
        write_sequence(out, frames)
        _fail_replace_of(monkeypatch, "manifest.txt")
        argv = [command, str(stream), "-o", str(out)]
        if command == "restore":
            argv += ["--model", str(model)]
        assert main(argv) == 1
        assert not (out / "manifest.txt").exists()
        assert not any(p.name.endswith(".tmp") for p in out.iterdir())

    def test_repeated_invocations_are_byte_identical(self, seq_dir, tmp_path):
        _, manifest, _ = seq_dir
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            main(["metrics", "--reference", str(manifest), "--test", str(manifest), "-o", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
