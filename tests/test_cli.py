
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skelgest
from skelgest import serialize_skeleton_stream
from skelgest.cli import main
from skelgest.harness import GestureTemplate, generate_sequence
from skelgest.skeleton import SkeletonSequence

from conftest import (
    WORKED_COSINE_TOLERANCE,
    WORKED_DIRECTION_COSINES,
    WORKED_FRAME_JOINTS,
    make_frame,
)
from test_model_io import GOLDEN_EDT, GOLDEN_KNN, GOLDEN_SVM
from test_svm import THREE_BLOBS, blobs


def write_blob_csvs(tmp_path, rng, n=10):
    X, y = blobs(rng, THREE_BLOBS, n)
    features = tmp_path / "features.csv"
    labels = tmp_path / "labels.csv"
    features.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in X) + "\n")
    labels.write_text("\n".join(f"row{i},{lab}" for i, lab in enumerate(y)) + "\n")
    return features, labels


def run_cli(*argv, timeout=60):
    """The skelgest CLI in a fresh interpreter; returns the CompletedProcess."""
    env = dict(os.environ, PYTHONPATH=str(Path(skelgest.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "skelgest.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def write_sequence(path, seq):
    path.write_text(serialize_skeleton_stream(seq))


@pytest.fixture
def skeleton_file(tmp_path):
    seq = generate_sequence(GestureTemplate("static"), 90, seed=1, noise_std=0.005)
    path = tmp_path / "gesture.txt"
    write_sequence(path, seq)
    return path


class TestExtractFeatures:
    def test_single_mode_csv(self, skeleton_file, tmp_path, capsys):
        out = tmp_path / "feats.csv"
        code = main(["extract-features", "--input", str(skeleton_file),
                     "--mode", "single", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "d1,d2,d3,d4,d5,d6"
        assert len(lines) == 91
        assert len(lines[1].split(",")) == 6
        assert capsys.readouterr().out == ""  # data went to the file

    def test_stdout_when_no_out(self, skeleton_file, capsys):
        code = main(["extract-features", "--input", str(skeleton_file), "--mode", "single"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == "d1,d2,d3,d4,d5,d6"

    def test_two_person_mode_reproduces_worked_frame(self, tmp_path, capsys):
        frames = [make_frame(default=(0.2, 0.3, 2.0)).joints] * 90
        frames[47] = make_frame(WORKED_FRAME_JOINTS).joints  # 1-based frame 48
        seq = SkeletonSequence(np.stack(frames))
        path = tmp_path / "person_right.txt"
        write_sequence(path, seq)
        code = main(["extract-features", "--input", str(path), "--mode", "two-person"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        angles = [float(v) for v in lines[48].split(",")]
        got = np.cos(np.radians(angles))
        want = np.concatenate([WORKED_DIRECTION_COSINES[k] for k in ("J1", "J2", "J3", "J4")])
        np.testing.assert_allclose(got, want, atol=WORKED_COSINE_TOLERANCE)

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0 3.0")
        code = main(["extract-features", "--input", str(path), "--mode", "single"])
        assert code == 2
        assert "3" in capsys.readouterr().err  # token count named

    def test_bad_token_position_reported(self, tmp_path, capsys):
        tokens = ["1.0"] * 60
        tokens[32] = "oops"
        path = tmp_path / "bad.txt"
        path.write_text(" ".join(tokens))
        code = main(["extract-features", "--input", str(path), "--mode", "single"])
        assert code == 2
        assert "33" in capsys.readouterr().err

    def test_flatten_single_row(self, skeleton_file, capsys):
        code = main(["extract-features", "--input", str(skeleton_file),
                     "--mode", "single", "--flatten"])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 1
        assert len(rows[0].split(",")) == 540

    def test_manifest_batch(self, tmp_path):
        for i, name in enumerate(("a_0.txt", "b_0.txt")):
            seq = generate_sequence(GestureTemplate("static"), 5, seed=i, noise_std=0.01)
            write_sequence(tmp_path / name, seq)
        manifest = tmp_path / "labels.csv"
        manifest.write_text("a_0.txt,alpha\nb_0.txt,beta\n")
        out = tmp_path / "matrix.csv"
        labels_out = tmp_path / "y.csv"
        code = main(["extract-features", "--manifest", str(manifest), "--mode", "single",
                     "--out", str(out), "--labels-out", str(labels_out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 2 and len(rows[0].split(",")) == 30
        assert labels_out.read_text().splitlines() == ["a_0.txt,alpha", "b_0.txt,beta"]


class TestTrainPredictEvaluate:
    def test_train_svm_reports_accuracy(self, tmp_path, capsys):
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(90))
        model = tmp_path / "m.model"
        code = main(["train", "--features", str(features), "--labels", str(labels),
                     "--model", "svm", "--out", str(model)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("training accuracy: ")
        assert float(out.split(":")[1]) >= 0.99
        assert model.exists()

    def test_train_edt_same_seed_identical_files(self, tmp_path):
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(91))
        m1, m2 = tmp_path / "a.model", tmp_path / "b.model"
        for out in (m1, m2):
            code = main(["train", "--features", str(features), "--labels", str(labels),
                         "--model", "edt", "--out", str(out), "--seed", "42", "--trees", "10"])
            assert code == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_seed_env_var_default(self, tmp_path, monkeypatch):
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(92))
        m1, m2 = tmp_path / "a.model", tmp_path / "b.model"
        monkeypatch.setenv("SKELGEST_SEED", "1234")
        main(["train", "--features", str(features), "--labels", str(labels),
              "--model", "edt", "--out", str(m1), "--trees", "5"])
        main(["train", "--features", str(features), "--labels", str(labels),
              "--model", "edt", "--out", str(m2), "--seed", "1234", "--trees", "5"])
        assert m1.read_bytes() == m2.read_bytes()

    def test_train_single_class_exits_3(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        labels = tmp_path / "l.csv"
        features.write_text("0.0,0.0\n1.0,1.0\n")
        labels.write_text("r0,same\nr1,same\n")
        code = main(["train", "--features", str(features), "--labels", str(labels),
                     "--model", "svm", "--out", str(tmp_path / "m.model")])
        assert code == 3
        assert "classes" in capsys.readouterr().err

    def test_predict_labels(self, tmp_path, capsys):
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(93))
        model = tmp_path / "m.model"
        main(["train", "--features", str(features), "--labels", str(labels),
              "--model", "knn", "--out", str(model)])
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--features", str(features)])
        assert code == 0
        predicted = capsys.readouterr().out.splitlines()
        assert predicted == [ln.split(",")[-1] for ln in Path(labels).read_text().splitlines()]

    def test_evaluate_perfect_model(self, tmp_path, capsys):
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(94))
        model = tmp_path / "m.model"
        main(["train", "--features", str(features), "--labels", str(labels),
              "--model", "knn", "--out", str(model)])
        capsys.readouterr()
        code = main(["evaluate", "--model", str(model), "--features", str(features),
                     "--labels", str(labels)])
        assert code == 0
        out = capsys.readouterr().out
        assert "confusion matrix" in out
        for name in ("precision", "recall", "specificity", "npv", "accuracy", "error_rate", "f1"):
            assert name in out
        assert "1.000000" in out

    def test_evaluate_report_file_and_macro_tally(self, tmp_path, capsys):
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(95))
        model = tmp_path / "m.model"
        main(["train", "--features", str(features), "--labels", str(labels),
              "--model", "svm", "--out", str(model)])
        capsys.readouterr()
        report = tmp_path / "report.csv"
        code = main(["evaluate", "--model", str(model), "--features", str(features),
                     "--labels", str(labels), "--report", str(report)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ""  # data went to the report file
        # recompute the macro row from the confusion matrix printed on stderr
        lines = captured.err.splitlines()
        start = lines.index("confusion matrix (rows true, columns predicted)") + 2
        matrix = np.array([[int(v) for v in ln.split()[1:]] for ln in lines[start:start + 3]])
        total = matrix.sum()
        accs = []
        for k in range(3):
            tp = matrix[k, k]
            fn = matrix[k].sum() - tp
            fp = matrix[:, k].sum() - tp
            tn = total - tp - fn - fp
            accs.append((tp + tn) / total)
        csv_lines = report.read_text().splitlines()
        macro = dict(zip(csv_lines[0].split(","), csv_lines[-1].split(",")))
        assert macro["class"] == "macro"
        assert float(macro["accuracy"]) == pytest.approx(np.mean(accs), abs=1e-12)

    def test_dimension_mismatch_exits_3(self, tmp_path, capsys):
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(96))
        model = tmp_path / "m.model"
        main(["train", "--features", str(features), "--labels", str(labels),
              "--model", "knn", "--out", str(model)])
        wide = tmp_path / "wide.csv"
        wide.write_text("1.0,2.0,3.0\n")
        code = main(["predict", "--model", str(model), "--features", str(wide)])
        assert code == 3

    def test_corrupt_model_exits_2(self, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("skelgest-model v1\nkind svm\n")
        features = tmp_path / "f.csv"
        features.write_text("0.0,0.0\n")
        assert main(["predict", "--model", str(bad), "--features", str(features)]) == 2


# GOLDEN_EDT cut to zero trees, so only its n_trees scalar can reject it
EDT_WITHOUT_TREES = GOLDEN_EDT[: GOLDEN_EDT.index("tree 0")] + "end\n"


class TestMalformedModelFiles:
    """Model files that parse line by line but break a structural rule or
    carry a constructor parameter the classifier would refuse."""

    @pytest.mark.parametrize(
        "golden, old, new",
        [
            (GOLDEN_EDT, "tree 0 3", "tree x 3"),
            (GOLDEN_KNN, "0 1 1", "0 1 2"),
            (GOLDEN_KNN, "scalar k 1", "scalar k 0"),
            (GOLDEN_KNN, "scalar k 1", "scalar k 2"),
            (GOLDEN_KNN, "scalar k 1", "scalar k 5"),
            (EDT_WITHOUT_TREES, "scalar n_trees 2", "scalar n_trees 0"),
            (GOLDEN_EDT, "bootstrap_fraction 0.3", "bootstrap_fraction 0.0"),
            (GOLDEN_EDT, "bootstrap_fraction 0.3", "bootstrap_fraction 1.5"),
            (GOLDEN_EDT, "bootstrap_fraction 0.3", "bootstrap_fraction nan"),
            (GOLDEN_SVM, "scalar sigma 0.5", "scalar sigma 0.0"),
            (GOLDEN_SVM, "scalar sigma 0.5", "scalar sigma inf"),
            (GOLDEN_SVM, "scalar C 2.0", "scalar C -2.0"),
            (GOLDEN_SVM, "scalar tol 0.001", "scalar tol nan"),
        ],
        ids=[
            "non-integer-tree-index", "knn-label-index-past-K",
            "knn-k-0", "knn-k-even", "knn-k-past-stored-rows", "edt-n_trees-0",
            "edt-bootstrap-0", "edt-bootstrap-above-1", "edt-bootstrap-nan",
            "svm-sigma-0", "svm-sigma-inf", "svm-C-negative", "svm-tol-nan",
        ],
    )
    def test_exits_2_without_traceback(self, tmp_path, golden, old, new):
        model = tmp_path / "bad.model"
        model.write_text(golden.replace(old, new))
        features = tmp_path / "f.csv"
        features.write_text("0.5,0.5\n")
        done = run_cli("predict", "--model", str(model), "--features", str(features))
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr

    def test_tree_cycle_exits_2_instead_of_hanging(self, tmp_path):
        model = tmp_path / "cycle.model"
        # the root's children point back at the root
        model.write_text(GOLDEN_EDT.replace("0 0.5 1 2 -1", "0 0.5 0 0 -1"))
        features = tmp_path / "f.csv"
        features.write_text("0.5,0.5\n")
        done = run_cli("predict", "--model", str(model), "--features", str(features), timeout=30)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr


class TestNonAsciiInput:
    # UnicodeDecodeError is a ValueError, which would otherwise exit 3
    @pytest.mark.parametrize("bad", ["skeleton-round-trip", "skeleton-extract", "model", "features"])
    def test_exits_2(self, bad, skeleton_file, tmp_path, capsys):
        model = tmp_path / "m.model"
        model.write_text(GOLDEN_KNN)
        features = tmp_path / "f.csv"
        features.write_text("0.5,0.5\n")
        target = {"model": model, "features": features}.get(bad, skeleton_file)
        target.write_bytes(target.read_bytes() + "caf\u00e9\n".encode("utf-8"))
        argv = {
            "skeleton-round-trip": ["round-trip-check", "--input", str(skeleton_file)],
            "skeleton-extract": ["extract-features", "--input", str(skeleton_file), "--mode", "single"],
        }.get(bad, ["predict", "--model", str(model), "--features", str(features)])
        assert main(argv) == 2
        assert "ascii" in capsys.readouterr().err


class TestFriedmanCommand:
    def test_reference_grid(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "SVM,0.9,0.9,0.9\nkNN,0.5,0.5,0.5\nEDT,0.7,0.7,0.6\nLMA-NN,0.6,0.6,0.7\n"
        )
        code = main(["friedman", "--scores", str(scores)])
        assert code == 0
        out = capsys.readouterr().out
        assert "8.2000" in out and "reject" in out and "7.815" in out

    def test_equal_scores_fail_to_reject(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("0.5,0.5\n0.5,0.5\n0.5,0.5\n")
        assert main(["friedman", "--scores", str(scores)]) == 0
        out = capsys.readouterr().out
        assert "0.0000" in out and "fail to reject" in out

    def test_two_by_one_grid_uses_df1_critical(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("0.9\n0.1\n")
        assert main(["friedman", "--scores", str(scores)]) == 0
        assert "3.841" in capsys.readouterr().out

    def test_twelve_algorithms_use_df11_critical(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        rows = np.random.default_rng(86).uniform(size=(12, 4))
        scores.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()))
        assert main(["friedman", "--scores", str(scores)]) == 0
        assert "critical 19.675 (df=11" in capsys.readouterr().out

    def test_malformed_grid_exits_2(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("0.9,0.8\nonlyone\n")
        assert main(["friedman", "--scores", str(scores)]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_score_exits_2(self, tmp_path, capsys, bad):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"0.9,0.8,0.7\n0.5,{bad},0.6\n0.1,0.2,0.3\n")
        assert main(["friedman", "--scores", str(scores)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err and "Traceback" not in captured.err


class TestGenSynthAndRoundTrip:
    def test_gen_synth_writes_dataset(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        code = main(["gen-synth", "--out-dir", str(out_dir), "--classes", "waving,clap",
                     "--samples-per-class", "2", "--frames", "6", "--seed", "3"])
        assert code == 0
        manifest = out_dir / "labels.csv"
        lines = manifest.read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            filename, label = line.split(",")
            assert (out_dir / filename).exists()
            assert label in ("waving", "clap")

    def test_round_trip_check_ok(self, skeleton_file, capsys):
        code = main(["round-trip-check", "--input", str(skeleton_file)])
        assert code == 0
        assert "round-trip OK: 90 frames" in capsys.readouterr().out

    def test_round_trip_check_malformed(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3 4")
        assert main(["round-trip-check", "--input", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["round-trip-check", "--input", str(tmp_path / "ghost.txt")]) == 2


class TestUsageErrors:
    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["friedman", "--scores", "x.csv", "--bogus"])
        assert exc.value.code == 1

    def test_no_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["dance"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--model", "svm"])
        assert exc.value.code == 1
