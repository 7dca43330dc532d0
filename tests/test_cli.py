
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skelgest
from skelgest import serialize_skeleton_stream
from skelgest.base import feature_matrix
from skelgest.classifiers import dumps_model
from skelgest.cli import _load_matrix, main
from skelgest.features import FEATURE_MODULES
from skelgest.harness import ExperimentConfig, GestureTemplate, export_dataset, generate_sequence, get_template
from skelgest.harness.experiment import CLASSIFIERS
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


def run_cli(*argv, code=None, timeout=60, **env):
    """The skelgest CLI, or the Python program `code`, run on argv in a fresh interpreter
    that turns warnings into errors, as tier-1 does in-process; env adds environment
    variables. Returns the CompletedProcess."""
    env = dict(os.environ, PYTHONPATH=str(Path(skelgest.__file__).parents[1]), **env)
    program = ["-m", "skelgest.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, "-W", "error", *program, *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def dir_bytes(path):
    """{file name: bytes} of every file in a directory."""
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())}


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

    HEADERS = {"single": "d1,d2,d3,d4,d5,d6",
               "two-person": "aJ1,bJ1,gJ1,aJ2,bJ2,gJ2,aJ3,bJ3,gJ3,aJ4,bJ4,gJ4"}

    @pytest.mark.parametrize("frame_column", [False, True], ids=["plain", "frame-column"])
    @pytest.mark.parametrize("mode", sorted(HEADERS))
    def test_csv_header_and_frame_column(self, skeleton_file, capsys, mode, frame_column):
        argv = ["extract-features", "--input", str(skeleton_file), "--mode", mode]
        assert main(argv + ["--frame-column"] * frame_column) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "frame," * frame_column + self.HEADERS[mode]
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 90
        assert {len(r) for r in rows} == {len(self.HEADERS[mode].split(",")) + frame_column}
        if frame_column:
            assert [r[0] for r in rows] == [str(t) for t in range(90)]

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

    @pytest.mark.parametrize("mode, part", [("single", "triangle 1"), ("two-person", "mean joint J1")])
    @pytest.mark.parametrize("flatten", [[], ["--flatten"]], ids=["per-frame", "flatten"])
    def test_overflowing_coordinates_exit_3(self, tmp_path, capsys, mode, part, flatten):
        # squared lengths overflow from about 1e154 on: the features would read
        # inf (single) or every angle 90.0 (two-person)
        path = tmp_path / "huge.txt"
        path.write_text(" ".join(repr(float(v)) for v in np.linspace(1e200, 2.2e201, 120)))
        code = main(["extract-features", "--input", str(path), "--mode", mode, *flatten])
        assert code == 3
        captured = capsys.readouterr()
        assert f"({part}, frame 0)" in captured.err and captured.out == ""

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


    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_manifest_exits_2(self, tmp_path, capsys, text):
        manifest = tmp_path / "e.csv"
        manifest.write_text(text)
        assert main(["extract-features", "--manifest", str(manifest), "--mode", "single"]) == 2
        err = capsys.readouterr().err
        assert "e.csv holds no entries" in err and "differing" not in err

    # SHA-256 of the stdout bytes of each flattened-row mode, over three
    # 9-frame recordings (the --flatten input is the first of them)
    PINNED_ROWS = [
        ("single", "--manifest", "f1a6e38c02f3af9d7e0d3f55f97cea67df840e914dc3759b32deadcc9286a15f"),
        ("single", "--flatten", "384780dcb3e69777b418aafd2cd2bd18aac3138b5963841a887e6af16a438453"),
        ("two-person", "--manifest", "6c041a633b008d9b2f17e73d50cf117d9adb180b30f3b1596ad6bdf545bb263a"),
        ("two-person", "--flatten", "335c42034220040c509be80263afa249cc4787dc6a1cc425928c5db449833113"),
    ]

    @pytest.mark.parametrize("mode, source, digest", PINNED_ROWS,
                             ids=[f"{mode}{source}" for mode, source, _ in PINNED_ROWS])
    def test_flattened_rows_are_pinned(self, tmp_path, capsys, mode, source, digest):
        names = ("waving", "clap", "hugging")
        for i, name in enumerate(names):
            seq = generate_sequence(get_template(name), 9, seed=30 + i, noise_std=0.02)
            write_sequence(tmp_path / f"{name}.txt", seq)
        manifest = tmp_path / "labels.csv"
        manifest.write_text("".join(f"{name}.txt,{name}\n" for name in names))
        argv = {"--manifest": ["--manifest", str(manifest)],
                "--flatten": ["--input", str(tmp_path / "waving.txt"), "--flatten"]}[source]
        assert main(["extract-features", *argv, "--mode", mode]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest

    def test_manifest_label_that_is_not_one_token_exits_2_before_writing(self, skeleton_file, tmp_path,
                                                                          capsys):
        manifest = tmp_path / "labels.csv"
        manifest.write_text(f"{skeleton_file.name},static\n{skeleton_file.name},has space\n")
        out, labels_out = tmp_path / "matrix.csv", tmp_path / "y.csv"
        assert main(["extract-features", "--manifest", str(manifest), "--mode", "single",
                     "--out", str(out), "--labels-out", str(labels_out)]) == 2
        assert "labels.csv line 2: label 'has space'" in capsys.readouterr().err
        assert not out.exists() and not labels_out.exists()

    # a flag the chosen rows would ignore is a usage error, raised before the (missing)
    # input is read or anything is written
    @pytest.mark.parametrize("flag, argv", [
        ("--labels-out", ["--input", "ghost.txt", "--labels-out", "y.csv"]),
        ("--labels-out", ["--input", "ghost.txt", "--flatten", "--labels-out", "y.csv"]),
        ("--frame-column", ["--input", "ghost.txt", "--flatten", "--frame-column"]),
        ("--frame-column", ["--manifest", "ghost.csv", "--frame-column"]),
    ], ids=["labels-out-without-manifest", "labels-out-with-flatten", "frame-column-with-flatten",
            "frame-column-with-manifest"])
    def test_ignored_flag_exits_1(self, tmp_path, monkeypatch, capsys, flag, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["extract-features", *argv, "--mode", "single", "--out", "x.csv"])
        assert exc.value.code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: skelgest extract-features")
        assert err[-1].startswith(f"skelgest extract-features: error: {flag} needs")
        assert list(tmp_path.iterdir()) == []

    def test_manifest_of_differing_lengths_exits_2(self, tmp_path):
        for name, frames in (("a.txt", 5), ("b.txt", 7)):
            write_sequence(tmp_path / name, generate_sequence(GestureTemplate("static"), frames, seed=1))
        manifest = tmp_path / "labels.csv"
        manifest.write_text("a.txt,alpha\nb.txt,beta\n")
        result = run_cli("extract-features", "--manifest", str(manifest), "--mode", "single")
        assert result.returncode == 2
        assert result.stdout == ""
        err = result.stderr.splitlines()
        assert len(err) == 1 and "differing lengths" in err[0]
        assert "Traceback" not in result.stderr

    # the feature reader returns, bit for bit, the matrix each CSV was written from
    @pytest.mark.parametrize("source", ["per-frame", "frame-column", "flatten", "manifest"])
    @pytest.mark.parametrize("mode", ["single", "two-person"])
    def test_feature_reader_reads_back_what_was_written(self, tmp_path, mode, source):
        featurize = FEATURE_MODULES[mode.replace("-", "_")].sequence_features
        names = ("waving", "clap", "hugging")
        seqs = [generate_sequence(get_template(name), 9, seed=40 + i, noise_std=0.02)
                for i, name in enumerate(names)]
        for name, seq in zip(names, seqs):
            write_sequence(tmp_path / f"{name}.txt", seq)
        manifest = tmp_path / "labels.csv"
        manifest.write_text("".join(f"{name}.txt,{name}\n" for name in names))
        first = ["--input", str(tmp_path / "waving.txt")]
        argv, want = {
            "per-frame": (first, featurize(seqs[0])),
            "frame-column": (first + ["--frame-column"], featurize(seqs[0])),
            "flatten": (first + ["--flatten"], feature_matrix(featurize, seqs[:1])),
            "manifest": (["--manifest", str(manifest)], feature_matrix(featurize, seqs)),
        }[source]
        out = tmp_path / "features.csv"
        assert main(["extract-features", *argv, "--mode", mode, "--out", str(out)]) == 0
        assert np.array_equal(_load_matrix(str(out)), want)


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

    @pytest.mark.parametrize("kind", ["svm", "edt", "knn"])
    def test_train_without_flags_uses_constructor_defaults(self, tmp_path, monkeypatch, kind):
        monkeypatch.delenv("SKELGEST_SEED", raising=False)
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(94))
        model = tmp_path / "m.model"
        assert main(["train", "--features", str(features), "--labels", str(labels),
                     "--model", kind, "--out", str(model)]) == 0
        X = np.loadtxt(features, delimiter=",")
        y = [ln.split(",")[-1] for ln in labels.read_text().splitlines()]
        params = {"seed": 0} if kind == "edt" else {}  # train's seed when none is given
        assert model.read_text() == dumps_model(CLASSIFIERS[kind](**params).fit(X, y))

    @pytest.mark.parametrize("kind, flags, params", [
        ("svm", ["--sigma", "2", "--cost", "3", "--tol", "1e-4"], dict(sigma=2.0, C=3.0, tol=1e-4)),
        ("edt", ["--trees", "3", "--bootstrap-fraction", "0.5", "--seed", "5"],
         dict(n_trees=3, bootstrap_fraction=0.5, seed=5)),
        ("knn", ["--k", "3"], dict(k=3)),
    ])
    def test_train_flags_set_constructor_parameters(self, tmp_path, kind, flags, params):
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(94))
        model = tmp_path / "m.model"
        assert main(["train", "--features", str(features), "--labels", str(labels),
                     "--model", kind, "--out", str(model), *flags]) == 0
        X = np.loadtxt(features, delimiter=",")
        y = [ln.split(",")[-1] for ln in labels.read_text().splitlines()]
        assert model.read_bytes() == dumps_model(CLASSIFIERS[kind](**params).fit(X, y)).encode()

    @pytest.mark.parametrize("kind, flags", [("svm", ["--k", "3"]), ("knn", ["--sigma", "2"])])
    def test_train_ignores_another_models_flag(self, tmp_path, kind, flags):
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(94))
        plain, flagged = tmp_path / "plain.model", tmp_path / "flagged.model"
        for out, extra in ((plain, []), (flagged, flags)):
            assert main(["train", "--features", str(features), "--labels", str(labels),
                         "--model", kind, "--out", str(out), *extra]) == 0
        assert flagged.read_bytes() == plain.read_bytes()

    def test_bad_seed_env_var_exits_2_for_every_model(self, tmp_path, monkeypatch, capsys):
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(94))
        monkeypatch.setenv("SKELGEST_SEED", "seven")
        model = tmp_path / "m.model"
        assert main(["train", "--features", str(features), "--labels", str(labels),
                     "--model", "svm", "--out", str(model)]) == 2
        assert "SKELGEST_SEED" in capsys.readouterr().err
        assert not model.exists()

    def test_train_single_class_exits_3(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        labels = tmp_path / "l.csv"
        features.write_text("0.0,0.0\n1.0,1.0\n")
        labels.write_text("r0,same\nr1,same\n")
        code = main(["train", "--features", str(features), "--labels", str(labels),
                     "--model", "svm", "--out", str(tmp_path / "m.model")])
        assert code == 3
        assert "classes" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["row3,a b", "x,"])
    def test_label_that_is_not_one_token_exits_2_without_model(self, tmp_path, line):
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(98))
        rows = labels.read_text().splitlines()
        rows[3] = line
        labels.write_text("\n".join(rows) + "\n")
        model = tmp_path / "m.model"
        result = run_cli("train", "--features", str(features), "--labels", str(labels),
                         "--model", "knn", "--out", str(model))
        assert result.returncode == 2
        assert "single comma-free token" in result.stderr and "Traceback" not in result.stderr
        assert not model.exists()

    def test_labels_line_of_three_fields_exits_2_without_model(self, tmp_path, capsys):
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(98))
        rows = labels.read_text().splitlines()
        rows[3] = "a,b,a"
        labels.write_text("\n".join(rows) + "\n")
        model = tmp_path / "m.model"
        assert main(["train", "--features", str(features), "--labels", str(labels),
                     "--model", "knn", "--out", str(model)]) == 2
        assert "labels.csv line 4: expected 'filename,label' or 'label'" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_more_labels_than_feature_rows_exits_2(self, tmp_path, capsys, command):
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(98))
        labels.write_text(labels.read_text() + "row30,a\n")
        model = tmp_path / "m.model"
        if command == "evaluate":
            model.write_text(GOLDEN_KNN)
        argv = [command, "--features", str(features), "--labels", str(labels), "--model"]
        argv += [str(model)] if command == "evaluate" else ["knn", "--out", str(model)]
        assert main(argv) == 2
        assert "30 feature rows but 31 labels" in capsys.readouterr().err
        assert model.exists() == (command == "evaluate")

    def test_evaluate_rejects_a_label_that_is_not_one_token(self, tmp_path, capsys):
        features = tmp_path / "f.csv"
        features.write_text("0.5,0.5\n0.1,0.1\n")
        model = tmp_path / "m.model"
        model.write_text(GOLDEN_KNN)
        labels = tmp_path / "l.csv"
        labels.write_text("r0,left\nr1,has space\n")
        assert main(["evaluate", "--model", str(model), "--features", str(features),
                     "--labels", str(labels)]) == 2
        captured = capsys.readouterr()
        assert "l.csv line 2: label 'has space'" in captured.err and captured.out == ""

    # bad hyperparameters are bad input (2); k above the 30 rows is a failed fit (3)
    @pytest.mark.parametrize("kind, flag, value, code", [
        ("knn", "--k", "2", 2),
        ("svm", "--sigma", "0", 2),
        ("svm", "--sigma", "1e-200", 2),
        ("edt", "--trees", "0", 2),
        ("edt", "--bootstrap-fraction", "2", 2),
        ("knn", "--k", "31", 3),
    ])
    def test_bad_hyperparameter_flag_exit_code(self, tmp_path, capsys, kind, flag, value, code):
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(99))
        model = tmp_path / "m.model"
        assert main(["train", "--features", str(features), "--labels", str(labels),
                     "--model", kind, "--out", str(model), flag, value]) == code
        assert capsys.readouterr().err.startswith("skelgest: ")
        assert not model.exists()

    HUGE = ["1e308,1e200", "-1e308,-1e200", "1e308,-1e200", "-1e308,1e200"]
    ENSEMBLE = ["--trees", "5", "--bootstrap-fraction", "1.0"]

    # each trains without a warning and within the per-test time limit; predict gives
    # the training labels back (exact) or some of them
    @pytest.mark.parametrize("kind, flags, rows, labels, exact", [
        # adjacent doubles, whose midpoint rounds onto the upper one: the ensemble still splits them
        ("edt", ENSEMBLE, ["1.0000000000000002", "1.0000000000000004"], ["a", "b"], True),
        # 40 classes of 1 to 40 rows: the split search's bound, the largest class against
        # the rest, stays cheap at any class count (a search over the splits of whole
        # classes would take minutes here)
        ("edt", ENSEMBLE, [f"{i},{i % 7}" for i in range(820)],
         [f"c{c}" for c in range(40) for _ in range(c + 1)], False),
        # features near the float range's ends, whose squares and first-column gaps overflow
        ("knn", [], HUGE, list("abab"), True),
        ("svm", [], HUGE, list("abab"), True),
        # a sigma whose d / (2 sigma^2) overflows: kernel values of 0 off the diagonal,
        # so the model file holds them and loads
        ("svm", ["--sigma", "1e-156"], ["0", "1", "2", "3"], list("abab"), True),
    ], ids=["edt-adjacent-doubles", "edt-40-classes", "knn-huge", "svm-huge", "svm-narrow-sigma"])
    def test_train_then_predict(self, tmp_path, capsys, kind, flags, rows, labels, exact):
        features, y, model = tmp_path / "f.csv", tmp_path / "y.csv", tmp_path / "m.model"
        features.write_text("\n".join(rows) + "\n")
        y.write_text("\n".join(labels) + "\n")
        assert main(["train", "--features", str(features), "--labels", str(y), "--model", kind,
                     "--out", str(model), *flags]) == 0
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--features", str(features)]) == 0
        predicted = capsys.readouterr().out.splitlines()
        assert len(predicted) == len(labels) and set(predicted) <= set(labels)
        if exact:
            assert predicted == labels

    def test_fresh_processes_write_the_same_bytes(self, tmp_path):
        # gen-synth, each kind's model file and the ensemble's predictions and report, in two
        # interpreters whose hash seeds order the class names apart, as the first line each
        # prints shows: 1 and 13 do under Python 3.10's SipHash-2-4 and 3.11's SipHash-1-3
        program = ("import json, sys\nfrom skelgest.cli import main\nprint(*set(['waving', 'clap']))\n"
                   "for argv in json.loads(sys.argv[1]):\n    assert main(argv) == 0, argv\n")
        orders = []
        for hash_seed in ("1", "13"):
            d = tmp_path / hash_seed
            train = ["train", "--features", f"{d}/x.csv", "--labels", f"{d}/y.csv", "--model"]
            commands = [
                ["gen-synth", "--out-dir", str(d), "--classes", "waving,clap", "--samples-per-class", "3",
                 "--frames", "5"],
                ["extract-features", "--manifest", f"{d}/labels.csv", "--mode", "single", "--out", f"{d}/x.csv",
                 "--labels-out", f"{d}/y.csv"],
                [*train, "svm", "--out", f"{d}/svm.model"],
                [*train, "knn", "--out", f"{d}/knn.model"],
                [*train, "edt", "--out", f"{d}/edt.model", *self.ENSEMBLE],
                ["predict", "--model", f"{d}/edt.model", "--features", f"{d}/x.csv", "--out", f"{d}/edt.csv"],
                ["evaluate", "--model", f"{d}/edt.model", "--features", f"{d}/x.csv", "--labels", f"{d}/y.csv",
                 "--report", f"{d}/report.csv"],
            ]
            done = run_cli(json.dumps(commands), code=program, PYTHONHASHSEED=hash_seed)
            assert done.returncode == 0, done.stderr
            orders.append(done.stdout.splitlines()[0])
        assert sorted(orders) == ["clap waving", "waving clap"]
        assert dir_bytes(tmp_path / "1") == dir_bytes(tmp_path / "13")

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

    def test_report_csv_is_pinned(self, tmp_path, capsys):
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(97))
        model = tmp_path / "m.model"
        main(["train", "--features", str(features), "--labels", str(labels),
              "--model", "knn", "--out", str(model)])
        # relabel four rows so the metrics are fractions, not all 1.0
        truth = Path(labels).read_text().splitlines()
        for i, wrong in ((0, "b"), (1, "b"), (2, "c"), (25, "a")):
            truth[i] = f"row{i},{wrong}"
        relabeled = tmp_path / "truth.csv"
        relabeled.write_text("\n".join(truth) + "\n")
        report = tmp_path / "report.csv"
        assert main(["evaluate", "--model", str(model), "--features", str(features),
                     "--labels", str(relabeled), "--report", str(report)]) == 0
        data = report.read_bytes()
        assert b"0.8666666666666667" in data
        assert hashlib.sha256(data).hexdigest() == (
            "dc7691b54e02c4c855ae64d79b2ca2971dabde401b87cd576993769beb3151bf")

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
# GOLDEN_EDT with its split tree cut to a leaf, so no split feature bounds n_features
EDT_OF_LEAVES = GOLDEN_EDT.replace("tree 0 3\n0 0.5 1 2 -1\n-1 0.0 -1 -1 0\n", "tree 0 1\n")


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
            (GOLDEN_SVM, "scalar sigma 0.5", "scalar sigma 1e-200"),
            (GOLDEN_SVM, "scalar C 2.0", "scalar C -2.0"),
            (GOLDEN_SVM, "scalar tol 0.001", "scalar tol nan"),
            (GOLDEN_KNN, "scalar k 1", "scalar k 1\nscalar k 1"),
            (GOLDEN_KNN, "scalar k 1", "scalar j 1"),
            (EDT_OF_LEAVES, "scalar n_features 2", "scalar n_features 0"),
            (GOLDEN_KNN, "0 1 1\nend\n", "0 1 1\nend\njunk\n"),
            (GOLDEN_KNN, "scalar k 1", "scalar k 0_3"),
            (GOLDEN_SVM, "-1.0 0.1", "-1_0.0 0.1"),
        ],
        ids=[
            "non-integer-tree-index", "knn-label-index-past-K",
            "knn-k-0", "knn-k-even", "knn-k-past-stored-rows", "edt-n_trees-0",
            "edt-bootstrap-0", "edt-bootstrap-above-1", "edt-bootstrap-nan",
            "svm-sigma-0", "svm-sigma-inf", "svm-sigma-1e-200", "svm-C-negative", "svm-tol-nan",
            "repeated-parameter", "unknown-parameter", "edt-n_features-0", "junk-after-end",
            "underscore-in-scalar", "underscore-in-array-value",
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


class TestBadFeatureValues:
    @pytest.mark.parametrize("command", ["predict", "evaluate", "train"])
    @pytest.mark.parametrize("token", ["nan", "inf", "1e999"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, command, token):
        model = tmp_path / "m.model"
        model.write_text(GOLDEN_KNN)
        features = tmp_path / "f.csv"
        features.write_text(f"0.5,0.5\n0.1,{token}\n")
        labels = tmp_path / "l.csv"
        labels.write_text("r0,left\nr1,right\n")
        argv = {
            "predict": ["--model", str(model)],
            "evaluate": ["--model", str(model), "--labels", str(labels)],
            "train": ["--model", "knn", "--labels", str(labels), "--out", str(tmp_path / "new.model")],
        }[command]
        assert main([command, "--features", str(features), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2: non-finite value" in captured.err and "Traceback" not in captured.err

    def test_header_only_csv_holds_no_rows(self, tmp_path, capsys):
        model = tmp_path / "m.model"
        model.write_text(GOLDEN_KNN)
        features = tmp_path / "f.csv"
        features.write_text("d1,d2\n")
        assert main(["predict", "--model", str(model), "--features", str(features)]) == 2
        assert "holds no rows" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["svm", "edt", "knn"])
    def test_frame_column_only_csv_has_no_features(self, tmp_path, capsys, model):
        features = tmp_path / "f.csv"
        features.write_text("frame\n0\n1\n2\n")
        labels = tmp_path / "l.csv"
        labels.write_text("left\nright\nleft\n")
        out = tmp_path / "new.model"
        argv = ["train", "--features", str(features), "--labels", str(labels), "--model", model]
        assert main([*argv, "--out", str(out)]) == 2
        assert "at least one column" in capsys.readouterr().err
        assert not out.exists()


class TestLineNumbers:
    """Every "line N" names the line as numbered in the file, blank lines counted."""

    @pytest.mark.parametrize("text, where", [
        ("0.5,0.5\n\n\n0.1,nan\n", "line 4: non-finite value"),
        ("\nd1,d2\n\n0.5,0.5\n0.1,x\n", "line 5: non-numeric value"),
        # \f and \v end no line
        ("0.5,0.5\f\n0.5,0.5\v\n0.1,nan\n", "line 3: non-finite value"),
    ])
    def test_feature_matrix(self, tmp_path, capsys, text, where):
        model = tmp_path / "m.model"
        model.write_text(GOLDEN_KNN)
        features = tmp_path / "f.csv"
        features.write_text(text)
        assert main(["predict", "--model", str(model), "--features", str(features)]) == 2
        assert f"f.csv {where}" in capsys.readouterr().err

    def test_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "labels.csv"
        manifest.write_text("\na_0.txt,alpha\n\nb_0.txt\n")
        assert main(["extract-features", "--manifest", str(manifest), "--mode", "single"]) == 2
        assert "labels.csv line 4: expected 'filename,label'" in capsys.readouterr().err

    def test_friedman_scores(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("\n\nalgorithm,d1,d2\nSVM,0.9,0.8\n\nkNN,0.5,x\n")
        assert main(["friedman", "--scores", str(scores)]) == 2
        assert "scores.csv line 6: non-numeric score" in capsys.readouterr().err
        scores.write_text("\n\nalgorithm,d1,d2\nSVM,0.9,0.8\n\nkNN,0.5,0.4\n")
        assert main(["friedman", "--scores", str(scores)]) == 0

    # a first line holding or starting a number is data, so its bad field is
    # reported, not dropped as a header
    @pytest.mark.parametrize("text", ["0.5x,1.0\n0.2,0.3\n", "x,1.0\n0.2,0.3\n", "0.5x\n0.2\n"])
    def test_corrupt_first_feature_row(self, tmp_path, capsys, text):
        # a model as wide as the rows after the first, which a wrongly dropped header would pass
        width = len(text.splitlines()[-1].split(","))
        model = tmp_path / "m.model"
        X = np.arange(2.0 * width).reshape(2, width)
        model.write_text(dumps_model(CLASSIFIERS["knn"]().fit(X, ["a", "b"])))
        features = tmp_path / "f.csv"
        features.write_text(text)
        assert main(["predict", "--model", str(model), "--features", str(features)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "f.csv line 1: non-numeric value" in captured.err

    def test_corrupt_first_score_row(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        # the second grid's first row has no field that parses as a float
        for text in ["svm,0.9x,0.8\nedt,0.5,0.6\nknn,0.8,0.7\n", "svm,0.9x\nedt,0.5\nknn,0.8\n"]:
            scores.write_text(text)
            assert main(["friedman", "--scores", str(scores)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "scores.csv line 1: non-numeric score" in captured.err


class TestNonAsciiInput:
    # every text reader names the file and keeps the codec's message
    @pytest.mark.parametrize("bad", ["skeleton-round-trip", "skeleton-extract", "skeleton-manifest",
                                     "model", "features"])
    def test_exits_2(self, bad, skeleton_file, tmp_path, capsys):
        model = tmp_path / "m.model"
        model.write_text(GOLDEN_KNN)
        features = tmp_path / "f.csv"
        features.write_text("0.5,0.5\n")
        manifest = tmp_path / "labels.csv"
        manifest.write_text(f"{skeleton_file.name},static\n")
        target = {"model": model, "features": features}.get(bad, skeleton_file)
        target.write_bytes(target.read_bytes() + "caf\u00e9\n".encode("utf-8"))
        argv = {
            "skeleton-round-trip": ["round-trip-check", "--input", str(skeleton_file)],
            "skeleton-extract": ["extract-features", "--input", str(skeleton_file), "--mode", "single"],
            "skeleton-manifest": ["extract-features", "--manifest", str(manifest), "--mode", "single"],
        }.get(bad, ["predict", "--model", str(model), "--features", str(features)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"skelgest: {target}: ") and "ascii" in err


class TestMissingInputFile:
    @pytest.mark.parametrize("command, flag", [
        ("train", "--features"),
        ("train", "--labels"),
        ("predict", "--features"),
        ("predict", "--model"),
        ("evaluate", "--labels"),
        ("friedman", "--scores"),
        ("extract-features", "--manifest"),
    ])
    def test_exits_2_naming_the_path(self, tmp_path, capsys, command, flag):
        features, labels = write_blob_csvs(tmp_path, np.random.default_rng(91))
        model = tmp_path / "m.model"
        model.write_text(GOLDEN_KNN)
        out = tmp_path / "out.model"
        argv = {
            "train": ["--features", str(features), "--labels", str(labels), "--model", "knn", "--out", str(out)],
            "predict": ["--model", str(model), "--features", str(features)],
            "evaluate": ["--model", str(model), "--features", str(features), "--labels", str(labels)],
            "friedman": ["--scores", None],
            "extract-features": ["--manifest", None, "--mode", "single"],
        }[command]
        ghost = tmp_path / "ghost.csv"
        argv[argv.index(flag) + 1] = str(ghost)
        assert main([command, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and str(ghost) in captured.err
        assert "Traceback" not in captured.err
        assert not out.exists()


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

    # flags left out take ExperimentConfig's defaults: frames and seed, then samples_per_class
    @pytest.mark.parametrize("flags, given", [
        (["--classes", "waving,clap", "--samples-per-class", "2"],
         {"classes": ("waving", "clap"), "samples_per_class": 2}),
        (["--classes", "waving", "--frames", "3"], {"classes": ("waving",), "frames": 3}),
    ], ids=["frames-and-seed", "samples"])
    def test_flags_left_out_take_the_config_defaults(self, tmp_path, monkeypatch, flags, given):
        monkeypatch.delenv("SKELGEST_SEED", raising=False)
        assert main(["gen-synth", "--out-dir", str(tmp_path / "cli"), *flags]) == 0
        export_dataset(ExperimentConfig(**given), tmp_path / "api")
        assert dir_bytes(tmp_path / "cli") == dir_bytes(tmp_path / "api")

    def test_seed_env_var_sets_the_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SKELGEST_SEED", "5")
        assert main(["gen-synth", "--out-dir", str(tmp_path / "cli"), "--classes", "waving,clap",
                     "--samples-per-class", "2", "--frames", "3"]) == 0
        export_dataset(ExperimentConfig(classes=("waving", "clap"), samples_per_class=2, frames=3, seed=5),
                       tmp_path / "api")
        assert dir_bytes(tmp_path / "cli") == dir_bytes(tmp_path / "api")

    def test_bad_seed_env_var_exits_2_before_writing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SKELGEST_SEED", "seven")
        out_dir = tmp_path / "data"
        assert main(["gen-synth", "--out-dir", str(out_dir), "--classes", "waving,clap",
                     "--samples-per-class", "2", "--frames", "3"]) == 2
        assert "SKELGEST_SEED" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_class_exits_2_without_traceback(self, tmp_path):
        out_dir = tmp_path / "data"
        done = run_cli("gen-synth", "--out-dir", str(out_dir), "--classes", "waving,nosuch")
        assert done.returncode == 2, done.stderr
        assert "'nosuch'" in done.stderr and "Traceback" not in done.stderr
        assert not out_dir.exists()

    def test_repeated_class_exits_2_before_writing(self, tmp_path, capsys):
        out_dir = tmp_path / "data"
        code = main(["gen-synth", "--out-dir", str(out_dir), "--classes", "waving,waving",
                     "--samples-per-class", "2", "--frames", "6"])
        assert code == 2
        assert "named more than once: 'waving'" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--samples-per-class", "0"),
        ("--samples-per-class", "-3"),
        ("--frames", "0"),
        ("--noise-std", "nan"),
        ("--noise-std", "-1"),
        ("--noise-std", "inf"),
    ])
    def test_bad_size_or_noise_exits_2_before_writing(self, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "data"
        code = main(["gen-synth", "--out-dir", str(out_dir), "--classes", "waving,clap",
                     "--samples-per-class", "2", "--frames", "6", f"{flag}={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and flag[2:].replace("-", "_") in err
        assert not out_dir.exists()

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
