import gzip
import math
import subprocess
import sys

import pytest

from casgd.cli import main
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

    def test_gzip_input(self, tmp_path):
        d = synthetic_dataset(20, 8, 3, seed=1)
        gz = tmp_path / "data.svm.gz"
        with gzip.open(gz, "wt") as fh:
            fh.write(serialize_libsvm(d))
        out = tmp_path / "t.csv"
        assert main(["train", "--data", str(gz), "--epochs", "1", "--trace", str(out)]) == 0
        explicit = tmp_path / "t2.csv"
        assert main(["train", "--data", str(gz), "--gzip", "--epochs", "1", "--trace", str(explicit)]) == 0
        assert out.read_bytes() == explicit.read_bytes()

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

    @pytest.mark.parametrize("command", ["train", "compare", "bench"])
    @pytest.mark.parametrize("eta", ["nan", "inf", "-1"])
    def test_bad_eta_exit_1(self, data_file, tmp_path, capsys, command, eta):
        extra = {"train": [], "compare": ["--s-list", "2"], "bench": []}[command]
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

    def test_huge_eta_reports_the_real_error(self, data_file, tmp_path, capsys):
        # Solutions near 1e306 overflow an unscaled norm, which read as error 0.
        code = main(
            ["compare", "--data", data_file, "--s-list", "2", "--epochs", "2", "--eta", "1e308",
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


class TestBench:
    def test_single_repeat(self, data_file, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--data", data_file, "--algo", "casgd", "--s-step", "4",
                     "--epochs", "2", "--repeats", "1", "--trace", str(out)])
        assert code == 0
        header, rows = _read_rows(out)
        assert header == "phase,mean_seconds,stddev_seconds"
        phases = [r[0] for r in rows]
        assert phases == ["sampling", "score_matvec", "gram", "sig", "gradient", "update",
                          "collectives", "total"]
        assert all(float(r[2]) == 0.0 for r in rows)
        capsys.readouterr()

    def test_repeats_populate_stddev_and_phase_sum(self, data_file, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--data", data_file, "--algo", "sgd", "--epochs", "2",
                     "--repeats", "3", "--trace", str(out)])
        assert code == 0
        _, rows = _read_rows(out)
        by_phase = {r[0]: (float(r[1]), float(r[2])) for r in rows}
        phase_sum = sum(mean for name, (mean, _) in by_phase.items() if name != "total")
        assert phase_sum <= by_phase["total"][0] * 1.05
        capsys.readouterr()

    @pytest.mark.parametrize(
        "algo,layout,gram",
        [("casgd", "row", True), ("casgd", "col", True), ("sgd", "col", False), ("sgd", "row", False)],
    )
    def test_gram_phase_only_with_a_gram(self, data_file, tmp_path, capsys, algo, layout, gram):
        # The Gram is formed once per block of rounds, in either layout, and
        # its time lands in ``gram``; SGD forms none.
        out = tmp_path / "bench.csv"
        code = main(["bench", "--data", data_file, "--algo", algo, "--s-step", "4" if gram else "1",
                     "--layout", layout, "--procs", "2", "--batch", "2", "--epochs", "2",
                     "--repeats", "1", "--trace", str(out)])
        assert code == 0
        _, rows = _read_rows(out)
        seconds = {r[0]: float(r[1]) for r in rows}
        assert (seconds["gram"] > 0) == gram
        capsys.readouterr()

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_repeats_below_one_exit_1(self, data_file, tmp_path, capsys, repeats):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--data", data_file, "--epochs", "1", f"--repeats={repeats}", "--trace", str(out)])
        assert code == 1
        assert "--repeats" in capsys.readouterr().err
        assert not out.exists()


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
