import gzip
import math
import subprocess
import sys

import pytest

import casgd.cli
from casgd.cli import build_parser, main
from casgd.costs import DEFAULT_OMEGA
from casgd.datagen import synthetic_dataset
from casgd.sparse import serialize_libsvm


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    d = synthetic_dataset(64, 16, 4, seed=3, label_noise=0.05)
    path = tmp_path_factory.mktemp("data") / "small.svm"
    path.write_text(serialize_libsvm(d))
    return str(path)


def _read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestTrain:
    def test_basic_run(self, data_file, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(
            ["train", "--data", data_file, "--algo", "sgd", "--epochs", "3", "--eta", "1.0",
             "--seed", "4", "--trace", str(out)]
        )
        assert code == 0
        header, rows = _read_rows(out)
        assert header == "epoch,loss,accuracy,flops,words,messages,collectives"
        assert len(rows) == 4
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        captured = capsys.readouterr()
        assert "final_loss=" in captured.out

    def test_epochs_zero_single_row(self, data_file, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["train", "--data", data_file, "--epochs", "0", "--trace", str(out)]) == 0
        _, rows = _read_rows(out)
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(math.log(2), abs=1e-15)
        assert rows[0][3:] == ["0", "0", "0", "0"]

    def test_gd_equals_full_batch_sgd(self, data_file, tmp_path):
        a = tmp_path / "gd.csv"
        b = tmp_path / "sgd.csv"
        common = ["--data", data_file, "--epochs", "3", "--eta", "0.5", "--seed", "9"]
        assert main(["train", *common, "--algo", "gd", "--trace", str(a)]) == 0
        assert main(["train", *common, "--algo", "sgd", "--batch", "64", "--trace", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_byte_identical_reruns(self, data_file, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code = main(
                ["train", "--data", data_file, "--algo", "casgd", "--s-step", "4", "--epochs", "4",
                 "--eta", "1.0", "--seed", "11", "--trace", str(path)]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_gzip_detected_from_its_first_bytes(self, tmp_path, capsys):
        text = serialize_libsvm(synthetic_dataset(20, 8, 3, seed=1))
        plain = tmp_path / "plain.svm"
        plain.write_text(text)
        # Gzipped, under a name without a .gz suffix.
        packed = tmp_path / "packed.svm"
        with gzip.open(packed, "wt") as fh:
            fh.write(text)
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for data, out in zip([plain, packed], outs):
            assert main(["train", "--data", str(data), "--epochs", "1", "--trace", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        # There is no flag to force it.
        for command in (["train"], ["compare", "--s-list", "2"]):
            assert main([*command, "--data", str(packed), "--gzip", "--trace", str(tmp_path / "c.csv")]) == 2
        capsys.readouterr()

    def test_zero_one_labels_train_as_minus_one(self, data_file, tmp_path):
        """A {0, 1} copy of a {-1, +1} file, gzipped, gives the same CSV."""
        text = open(data_file).read()
        zero_one = "".join(("0" + line[2:] if line.startswith("-1 ") else line) for line in text.splitlines(True))
        assert zero_one != text
        gz = tmp_path / "zero-one.svm.gz"
        with gzip.open(gz, "wt") as fh:
            fh.write(zero_one)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for data, path in zip([data_file, str(gz)], paths):
            code = main(["train", "--data", data, "--algo", "casgd", "--s-step", "4", "--epochs", "2", "--trace", str(path)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_num_features_flag(self, tmp_path):
        data = tmp_path / "d.svm"
        data.write_text("+1 1:1.0\n-1 2:1.0\n")
        out = tmp_path / "t.csv"
        code = main(
            ["train", "--data", str(data), "--num-features", "9", "--epochs", "1", "--trace", str(out)]
        )
        assert code == 0


class TestExitCodes:
    def test_bad_flags_exit_2(self, data_file, tmp_path, capsys):
        assert main(["train", "--data", data_file, "--algo", "newton", "--trace", str(tmp_path / "t.csv")]) == 2
        assert main(["train"]) == 2
        assert main(["bench", "--data", data_file, "--trace", str(tmp_path / "b.csv")]) == 2
        capsys.readouterr()

    def test_parse_error_exit_1_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.svm"
        bad.write_text("+1 1:1.0\n-1 oops\n")
        code = main(["train", "--data", str(bad), "--epochs", "1", "--trace", str(tmp_path / "t.csv")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_config_error_exit_1(self, data_file, tmp_path, capsys):
        code = main(
            ["train", "--data", data_file, "--layout", "row", "--procs", "2", "--batch", "3",
             "--epochs", "1", "--trace", str(tmp_path / "t.csv")]
        )
        assert code == 1
        assert "divide" in capsys.readouterr().err

    @pytest.mark.parametrize("algo,s_step", [("sgd", "8"), ("gd", "0"), ("gd", "2")])
    def test_s_step_without_casgd_exit_1(self, data_file, tmp_path, capsys, algo, s_step):
        out = tmp_path / "t.csv"
        code = main(["train", "--data", data_file, "--algo", algo, "--s-step", s_step, "--epochs", "1", "--trace", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: --s-step {s_step} applies only to --algo casgd\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("eta", ["nan", "inf", "-1"])
    def test_bad_eta_exit_1(self, data_file, tmp_path, capsys, command, eta):
        extra = {"train": [], "compare": ["--s-list", "2"]}[command]
        out = tmp_path / "out.csv"
        code = main([command, "--data", data_file, "--epochs", "1", f"--eta={eta}", "--trace", str(out), *extra])
        assert code == 1
        assert "eta0" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_feature_exit_1_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.svm"
        bad.write_text("+1 1:1.0\n-1 1:nan 2:inf\n")
        code = main(["train", "--data", str(bad), "--trace", str(tmp_path / "t.csv")])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            ("+1 1:1.0\n-1 99999999999999999999:1\n", "line 2: feature index 99999999999999999999 must be <="),
            ("1 1:1.0\n2 1:1.0\nnan 2:1.0\n3 1:1.0\n", "line 3: non-finite label 'nan'"),
            ("+1 1:1.0\n-1 1:1e999\n", "line 2: non-finite feature value '1e999'"),
            ("1 1:1.0\n2 1:1.0\n-1 2:1.0\n", "line 2: label 2.0 fits neither {-1, +1} nor {0, 1}"),
            ("1 1:1.0\n-1 1:1.0\n2 2:1.0\n", "line 3: label 2.0 not in {-1, +1}"),
            ("1 1:1.0\n0 1:1.0\n-1 2:1.0\n", "line 3: label -1.0 not in {0, 1}"),
        ],
    )
    def test_escaping_parse_errors_exit_1_with_line(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.svm"
        bad.write_text(text)
        code = main(["train", "--data", str(bad), "--epochs", "1", "--trace", str(tmp_path / "t.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_no_partial_csv_on_error(self, data_file, tmp_path):
        out = tmp_path / "t.csv"
        code = main(
            ["train", "--data", data_file, "--layout", "row", "--procs", "3", "--batch", "4",
             "--epochs", "1", "--trace", str(out)]
        )
        assert code == 1
        assert not out.exists()

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nope.svm"), "--epochs", "1",
                     "--trace", str(tmp_path / "t.csv")]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("damage", ["truncated", "corrupt"])
    def test_damaged_gzip_exit_1(self, data_file, tmp_path, capsys, damage):
        packed = bytearray(gzip.compress(open(data_file, "rb").read(), mtime=0))
        if damage == "truncated":
            # The first half: the stream ends before its end marker (EOFError).
            packed = packed[: len(packed) // 2]
        else:
            # Flipped bytes inside the deflate stream, past the 10-byte header
            # (zlib.error).
            for k in range(12, 40):
                packed[k] ^= 0xFF
        path = tmp_path / "damaged.svm.gz"
        path.write_bytes(bytes(packed))
        out = tmp_path / "t.csv"
        assert main(["train", "--data", str(path), "--epochs", "1", "--trace", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


class TestCompare:
    def test_s_list_one_is_exact(self, data_file, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(
            ["compare", "--data", data_file, "--s-list", "1", "--epochs", "3", "--eta", "1.0",
             "--seed", "2", "--trace", str(out)]
        )
        assert code == 0
        header, rows = _read_rows(out)
        assert header == "epoch,s,rel_solution_error,loss_sgd,loss_casgd,acc_sgd,acc_casgd"
        assert all(float(r[2]) <= 1e-15 for r in rows)

    def test_multiple_s_within_default_tolerance(self, data_file, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(
            ["compare", "--data", data_file, "--s-list", "2,8", "--epochs", "3", "--eta", "1.0",
             "--seed", "2", "--trace", str(out)]
        )
        assert code == 0
        _, rows = _read_rows(out)
        assert {r[1] for r in rows} == {"2", "8"}
        assert all(float(r[2]) <= 1e-10 for r in rows)

    def test_tolerance_violation_exit_3(self, data_file, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = main(
            ["compare", "--data", data_file, "--s-list", "2", "--epochs", "2", "--tolerance", "0",
             "--trace", str(out)]
        )
        assert code == 3
        assert out.exists()  # the trace is still written
        capsys.readouterr()

    def test_row_layout_compare(self, data_file, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(
            ["compare", "--data", data_file, "--s-list", "2,4", "--epochs", "2", "--layout", "row",
             "--procs", "2", "--batch", "4", "--seed", "5", "--trace", str(out)]
        )
        assert code == 0
        _, rows = _read_rows(out)
        assert all(float(r[2]) <= 1e-10 for r in rows)

    def test_row_layout_compares_every_epoch(self, data_file, tmp_path, capsys):
        # 64 rows, b=4: 16 iterations per epoch; at s=5 the last epoch end
        # (48) rounds up to 50, past epochs*ceil(m/b), and must be compared.
        out = tmp_path / "cmp.csv"
        code = main(
            ["compare", "--data", data_file, "--s-list", "5", "--epochs", "3", "--layout", "row",
             "--procs", "2", "--batch", "4", "--seed", "5", "--trace", str(out)]
        )
        assert code == 0, capsys.readouterr().err
        _, rows = _read_rows(out)
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]

    @pytest.mark.parametrize("layout", ["row", "col"])
    def test_one_sgd_run_serves_every_s(self, data_file, tmp_path, monkeypatch, layout):
        # 64 rows, b=4: epoch ends at 16, 32 and 48.  In the row layout s=3
        # and s=5 round them up to different points, and s=64 takes all
        # three to iteration 64.
        calls = []
        real = casgd.cli.run_sgd

        def spy(*args, **kwargs):
            calls.append(kwargs["schedule"])
            return real(*args, **kwargs)

        monkeypatch.setattr(casgd.cli, "run_sgd", spy)
        common = ["compare", "--data", data_file, "--epochs", "3", "--layout", layout, "--procs", "2",
                  "--batch", "4", "--seed", "5"]
        combined = tmp_path / "all.csv"
        assert main([*common, "--s-list", "3,5,64", "--trace", str(combined)]) == 0
        assert len(calls) == 1
        if layout == "row":
            assert calls[0][-3:] == [(1, 64), (2, 64), (3, 64)]
        singles = []
        for s in (3, 5, 64):
            out = tmp_path / f"s{s}.csv"
            assert main([*common, "--s-list", str(s), "--trace", str(out)]) == 0
            singles += out.read_text().splitlines()[1:]
        assert combined.read_text().splitlines()[1:] == singles
        assert len(calls) == 4

    def test_huge_eta_reports_the_real_error(self, data_file, tmp_path, capsys):
        # Solutions near 1e306 overflow an unscaled norm, which read as error 0.
        # At s = 2 sig saturates and both runs apply the same two ``daxpy``s
        # per round, so the error is exactly 0 either way; s = 3 differs.
        code = main(
            ["compare", "--data", data_file, "--s-list", "3", "--epochs", "2", "--eta", "1e308",
             "--trace", str(tmp_path / "cmp.csv")]
        )
        assert code == 0
        worst = float(capsys.readouterr().out.strip().split("=")[1])
        assert 0.0 < worst <= 1e-10

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
    def test_non_finite_trajectory_fails(self, tmp_path, capsys):
        data = tmp_path / "huge.svm"
        data.write_text("+1 1:1e300 2:1\n-1 1:1e300 3:1\n+1 2:1e300 3:1\n-1 1:1 2:1e300\n")
        out = tmp_path / "cmp.csv"
        code = main(
            ["compare", "--data", str(data), "--s-list", "2", "--epochs", "3", "--eta", "1e300",
             "--trace", str(out)]
        )
        assert code == 3
        stdout, stderr = capsys.readouterr()
        assert "max_rel_solution_error=nan" in stdout
        assert "non-finite" in stderr
        assert out.exists()

    @pytest.mark.parametrize("layout", ["col", "row"])
    def test_zero_batch_exit_1(self, data_file, tmp_path, capsys, layout):
        out = tmp_path / "cmp.csv"
        code = main(
            ["compare", "--data", data_file, "--s-list", "2", "--epochs", "1", "--batch", "0", "--layout", layout,
             "--trace", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: batch size must be at least 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_exit_1(self, data_file, tmp_path, capsys, tolerance):
        out = tmp_path / "cmp.csv"
        code = main(
            ["compare", "--data", data_file, "--s-list", "2", "--epochs", "1", f"--tolerance={tolerance}",
             "--trace", str(out)]
        )
        assert code == 1
        assert "--tolerance" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_tolerance_exit_1(self, data_file, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = main(
            ["compare", "--data", data_file, "--s-list", "2", "--epochs", "1", "--tolerance=-1",
             "--trace", str(out)]
        )
        assert code == 1
        assert "--tolerance" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_s_list(self, data_file, tmp_path, capsys):
        code = main(["compare", "--data", data_file, "--s-list", "2,x", "--trace", str(tmp_path / "c.csv")])
        assert code == 1
        capsys.readouterr()


class TestTunedSgdBeatsGd:
    def test_sgd_eta10_beats_gd_eta1_at_epoch_100(self, tmp_path, capsys):
        d = synthetic_dataset(200, 20, 5, seed=15, label_noise=0.05)
        data = tmp_path / "toy.svm"
        data.write_text(serialize_libsvm(d))
        sgd_out = tmp_path / "sgd.csv"
        gd_out = tmp_path / "gd.csv"
        assert main(["train", "--data", str(data), "--algo", "sgd", "--eta", "10", "--epochs", "100",
                     "--seed", "1", "--trace", str(sgd_out)]) == 0
        assert main(["train", "--data", str(data), "--algo", "gd", "--eta", "1", "--epochs", "100",
                     "--seed", "1", "--trace", str(gd_out)]) == 0
        capsys.readouterr()
        _, sgd_rows = _read_rows(sgd_out)
        _, gd_rows = _read_rows(gd_out)
        assert float(sgd_rows[100][1]) < float(gd_rows[100][1])


class TestCosts:
    def test_prints_table_and_crossover(self, capsys):
        code = main(["costs", "--m", "1000", "--n", "100", "--f", "0.1", "--p", "4", "--b", "1",
                     "--s", "8", "--epochs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sgd" in out and "casgd" in out
        assert "crossover_s=" in out

    def test_zero_alpha_crossover_is_one(self, capsys):
        code = main(["costs", "--m", "100", "--n", "10", "--f", "0.5", "--s", "8", "--epochs", "1",
                     "--alpha", "0"])
        assert code == 0
        assert "crossover_s=1" in capsys.readouterr().out

    def test_invalid_params_exit_1(self, capsys):
        assert main(["costs", "--m", "100", "--n", "10", "--f", "0", "--epochs", "1"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--alpha", "--beta", "--gamma", "--omega"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_machine_parameter_exit_1(self, capsys, flag, value):
        code = main(["costs", "--m", "100", "--n", "10", "--f", "0.5", "--epochs", "1", f"{flag}={value}"])
        assert code == 1
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and flag[2:] in err
        assert "crossover_s" not in out

    def test_zero_batch_exit_1(self, capsys):
        assert main(["costs", "--m", "100", "--n", "10", "--f", "0.5", "--b", "0", "--epochs", "1"]) == 1
        assert capsys.readouterr().err == "error: batch size must be at least 1\n"

    def test_batch_above_m_exit_1(self, capsys):
        # As ``train --batch 11`` on 10 rows does.
        assert main(["costs", "--m", "10", "--n", "3", "--f", "0.5", "--b", "11"]) == 1
        out, err = capsys.readouterr()
        assert err == "error: batch size 11 exceeds m=10\n"
        assert "crossover_s" not in out

    def test_zero_epochs_names_the_flag(self, capsys):
        assert main(["costs", "--m", "10", "--n", "3", "--f", "0.5", "--epochs", "0"]) == 1
        out, err = capsys.readouterr()
        assert err == "error: --epochs must be at least 1, got 0\n"
        assert out == ""

    def test_omega_defaults_to_the_cost_model_constant(self):
        args = build_parser().parse_args(["costs", "--m", "100", "--n", "10", "--f", "0.5"])
        assert args.omega is DEFAULT_OMEGA


class TestRunThenReport:
    def test_measured_counters_match_costs_prediction(self, tmp_path, capsys):
        # fully dense rows make every closed-form term exact, flops included
        m, n, b, s, epochs = 32, 8, 2, 4, 1
        d = synthetic_dataset(m, n, n, seed=2)
        data = tmp_path / "dense.svm"
        data.write_text(serialize_libsvm(d))
        out = tmp_path / "t.csv"
        code = main(["train", "--data", str(data), "--algo", "casgd", "--s-step", str(s),
                     "--batch", str(b), "--epochs", str(epochs), "--seed", "3", "--trace", str(out)])
        assert code == 0
        _, rows = _read_rows(out)
        measured = [int(v) for v in rows[-1][3:]]  # flops, words, messages, collectives

        code = main(["costs", "--m", str(m), "--n", str(n), "--f", "1.0", "--p", "1",
                     "--b", str(b), "--s", str(s), "--epochs", str(epochs)])
        assert code == 0
        table = capsys.readouterr().out
        line = next(l for l in table.splitlines() if l.startswith("casgd") and "block_column" in l)
        predicted = line.split()
        assert measured == [int(predicted[2]), int(predicted[3]), int(predicted[4]), int(predicted[5])]


def test_console_entry_point(data_file, tmp_path):
    out = tmp_path / "t.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "casgd.cli", "train", "--data", data_file, "--epochs", "1",
         "--trace", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "final_loss=" in proc.stdout
