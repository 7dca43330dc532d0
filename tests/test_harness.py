from pathlib import Path

import numpy as np
import pytest

from skelgest import parse_skeleton_stream, serialize_skeleton_stream
from skelgest.errors import ConfigError, DepthRangeViolationError, StratifyError
from skelgest.classifiers import LabeledDataset
from skelgest.harness import (
    BENCHMARK_CLASSES,
    ExperimentConfig,
    GestureTemplate,
    INTERACTION_PAIRS,
    INTERACTION_TEMPLATES,
    SINGLE_PERSON_TEMPLATES,
    build_dataset,
    dumps_config,
    export_dataset,
    generate_sequence,
    loads_config,
    make_sequences,
    run_experiment,
    stratified_split,
)
from skelgest.harness.templates import BASE_POSE, DEPTH_RANGE, get_template


def static_template(noise_std=0.0):
    return GestureTemplate("static", moves={}, noise_std=noise_std)


class TestTemplates:
    def test_catalog_sizes(self):
        assert len(SINGLE_PERSON_TEMPLATES) == 20
        assert len(INTERACTION_TEMPLATES) == 8
        assert len(INTERACTION_PAIRS) == 10
        assert set(BENCHMARK_CLASSES) <= set(SINGLE_PERSON_TEMPLATES)

    def test_pairs_reference_known_actions(self):
        for left, right in INTERACTION_PAIRS:
            assert left in INTERACTION_TEMPLATES
            assert right in INTERACTION_TEMPLATES

    def test_all_templates_respect_depth_range(self):
        ts = np.linspace(0.0, 1.0, 200)
        lo, hi = DEPTH_RANGE
        for template in list(SINGLE_PERSON_TEMPLATES.values()) + list(INTERACTION_TEMPLATES.values()):
            depths = template.trajectory(ts)[:, :, 2]
            assert depths.min() >= lo and depths.max() <= hi, template.name

    def test_get_template_lookup(self):
        assert get_template("waving").name == "waving"
        assert get_template("hugging").name == "hugging"
        with pytest.raises(KeyError):
            get_template("moonwalk")


class TestGenerateSequence:
    def test_zero_noise_static_template_gives_identical_frames(self):
        seq = generate_sequence(static_template(), 10, seed=1)
        assert np.array_equal(seq.joints, np.tile(BASE_POSE, (10, 1, 1)))

    def test_same_seed_same_sequence(self):
        t = get_template("waving")
        a = generate_sequence(t, 30, seed=99)
        b = generate_sequence(t, 30, seed=99)
        assert np.array_equal(a.joints, b.joints)

    def test_different_seed_differs(self):
        t = get_template("waving")
        a = generate_sequence(t, 30, seed=1)
        b = generate_sequence(t, 30, seed=2)
        assert not np.array_equal(a.joints, b.joints)

    def test_noise_std_statistics(self):
        seq = generate_sequence(static_template(), 1000, seed=5, noise_std=0.01)
        residual = seq.joints - BASE_POSE[None, :, :]
        stds = residual.std(axis=0)  # per coordinate over 1000 frames
        assert stds.min() >= 0.008 and stds.max() <= 0.012

    def test_depth_violation(self):
        from skelgest import Joint

        bad = GestureTemplate(
            "runaway",
            moves={j: ((0.0, (0, 0, 0)), (1.0, (0, 0, 1.5))) for j in Joint},
        )
        with pytest.raises(DepthRangeViolationError):
            generate_sequence(bad, 20, seed=0)

    def test_single_frame_uses_t_zero(self):
        t = get_template("move_down")  # starts away from the base pose
        seq = generate_sequence(t, 1, seed=0, noise_std=0.0)
        assert np.array_equal(seq.joints[0], t.pose_at(0.0))

    def test_round_trip_through_skeleton_io(self):
        seq = generate_sequence(get_template("punching"), 15, seed=3)
        again = parse_skeleton_stream(serialize_skeleton_stream(seq))
        assert np.array_equal(seq.joints, again.joints)


class TestBuildDataset:
    def test_paper_scale_single(self):
        cfg = ExperimentConfig(
            classes=tuple(sorted(SINGLE_PERSON_TEMPLATES)), samples_per_class=2,
            frames=9, noise_std=0.0,
        )
        data = build_dataset(cfg, "single")
        assert data.vectors.shape == (40, 54)

    def test_feature_kind_two_person(self):
        cfg = ExperimentConfig(classes=("waving", "clap"), samples_per_class=2, frames=5)
        data = build_dataset(cfg, "two_person")
        assert data.vectors.shape == (4, 60)
        assert data.label_set == ("waving", "clap")

    def test_deterministic_per_seed(self):
        cfg = ExperimentConfig(classes=("waving", "clap"), samples_per_class=3, frames=6, seed=11)
        a = build_dataset(cfg)
        b = build_dataset(cfg)
        assert np.array_equal(a.vectors, b.vectors) and a.labels == b.labels

    def test_single_class_builds_but_training_rejects(self):
        cfg = ExperimentConfig(classes=("waving",), samples_per_class=2, frames=5)
        data = build_dataset(cfg)
        assert len(data) == 2
        from skelgest.classifiers import GaussianKernelSVM
        from skelgest.errors import TrainingDegenerateError

        with pytest.raises(TrainingDegenerateError):
            GaussianKernelSVM().fit(data.vectors, data.labels)

    def test_unknown_feature_kind(self):
        cfg = ExperimentConfig(classes=("waving",), samples_per_class=1, frames=2)
        with pytest.raises(ValueError):
            build_dataset(cfg, "volumetric")


class TestSplit:
    def make_data(self, counts):
        vectors, labels = [], []
        i = 0
        for lab, n in counts.items():
            for _ in range(n):
                vectors.append([float(i), 0.0])
                labels.append(lab)
                i += 1
        return LabeledDataset(np.array(vectors), labels)

    def test_80_20_proportions(self):
        data = self.make_data({"a": 50, "b": 30, "c": 20})
        train, test = stratified_split(data, 0.8, seed=1)
        assert len(train) == 80 and len(test) == 20
        assert train.class_counts() == {"a": 40, "b": 24, "c": 16}

    def test_same_seed_same_split(self):
        data = self.make_data({"a": 10, "b": 10})
        t1, s1 = stratified_split(data, 0.7, seed=4)
        t2, s2 = stratified_split(data, 0.7, seed=4)
        assert np.array_equal(t1.vectors, t2.vectors)
        assert np.array_equal(s1.vectors, s2.vectors)

    def test_disjoint_and_exhaustive(self):
        data = self.make_data({"a": 13, "b": 9})
        train, test = stratified_split(data, 0.6, seed=2)
        train_ids = {int(v[0]) for v in train.vectors}
        test_ids = {int(v[0]) for v in test.vectors}
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == set(range(22))

    def test_both_sides_nonempty_per_class(self):
        data = self.make_data({"a": 2, "b": 40})
        train, test = stratified_split(data, 0.9, seed=3)
        assert train.class_counts()["a"] == 1 and test.class_counts()["a"] == 1

    def test_stratify_error_on_singleton_class(self):
        data = self.make_data({"a": 1, "b": 5})
        with pytest.raises(StratifyError):
            stratified_split(data, 0.5, seed=0)

    def test_fraction_validation(self):
        data = self.make_data({"a": 4, "b": 4})
        with pytest.raises(ValueError):
            stratified_split(data, 1.0, seed=0)


class TestRunExperiment:
    def test_two_distinct_templates_zero_noise_perfect(self):
        from skelgest import Joint

        arms = (Joint.ELBOW_LEFT, Joint.WRIST_LEFT, Joint.HAND_LEFT,
                Joint.ELBOW_RIGHT, Joint.WRIST_RIGHT, Joint.HAND_RIGHT)
        up = GestureTemplate("arms_up", {j: ((0.0, (0, 0.5, 0)),) for j in arms}, noise_std=0.0)
        down = GestureTemplate("arms_down", {j: ((0.0, (0, -0.2, 0)),) for j in arms}, noise_std=0.0)
        cfg = ExperimentConfig(
            classes=("arms_up", "arms_down"), samples_per_class=5, frames=10,
            seed=2, classifier="knn", params={"k": 1}, split_fraction=0.6,
            templates={"arms_up": up, "arms_down": down}, noise_std=0.0,
        )
        report = run_experiment(cfg)
        assert report.macro.accuracy == 1.0

    def test_identical_seed_identical_summary(self):
        cfg = ExperimentConfig(classes=("waving", "punching"), samples_per_class=6,
                               frames=12, seed=9, classifier="knn", params={"k": 1})
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.summary() == r2.summary()
        assert r1.timings.keys() == {"build_dataset", "train", "predict"}

    def test_edt_classifier_inherits_config_seed(self):
        cfg = ExperimentConfig(classes=("waving", "punching"), samples_per_class=4,
                               frames=8, seed=13, classifier="edt", params={"n_trees": 5})
        report = run_experiment(cfg)
        assert report.matrix.total == 2  # 20% of 8


class TestExportDataset:
    def test_files_manifest_and_round_trip(self, tmp_path):
        cfg = ExperimentConfig(classes=("waving", "clap"), samples_per_class=2, frames=5, seed=3)
        manifest = export_dataset(cfg, tmp_path)
        lines = Path(manifest).read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == "waving_000.txt,waving"
        sequences, _ = make_sequences(cfg)
        for line, seq in zip(lines, sequences):
            filename = line.split(",")[0]
            text = (tmp_path / filename).read_text()
            parsed = parse_skeleton_stream(text)
            assert np.array_equal(parsed.joints, seq.joints)


class TestConfigFiles:
    def test_round_trip(self):
        cfg = ExperimentConfig(classes=("waving", "push"), samples_per_class=4, frames=30,
                               seed=5, noise_std=0.02, classifier="edt",
                               params={"n_trees": 10, "bootstrap_fraction": 0.5})
        text = dumps_config(cfg)
        assert text.startswith("skelgest-config v1\n")
        loaded = loads_config(text)
        assert loaded.classes == cfg.classes
        assert loaded.params == cfg.params
        assert loaded.noise_std == cfg.noise_std

    def test_comments_and_blank_lines_ignored(self):
        text = "skelgest-config v1\n# comment\n\nclasses = a,b\nclassifier = knn\n"
        cfg = loads_config(text)
        assert cfg.classes == ("a", "b")

    @pytest.mark.parametrize("bad", [
        "",
        "not-a-config v1\nclasses = a\n",
        "skelgest-config v2\nclasses = a\n",
        "skelgest-config v1\nmystery = 3\n",
        "skelgest-config v1\nframes = many\n",
        "skelgest-config v1\nno equals sign here\n",
        "skelgest-config v1\nclassifier = perceptron\n",
    ])
    def test_bad_configs(self, bad):
        with pytest.raises(ConfigError):
            loads_config(bad)


class TestConfigValidation:
    def test_needs_classes(self):
        with pytest.raises(ValueError):
            ExperimentConfig(classes=())

    def test_split_fraction_bounds(self):
        with pytest.raises(ValueError):
            ExperimentConfig(classes=("a",), split_fraction=1.0)

    def test_default_is_benchmark(self):
        cfg = ExperimentConfig()
        assert cfg.classes == BENCHMARK_CLASSES
        assert cfg.samples_per_class == 30
        assert cfg.frames == 90
        assert cfg.seed == 7
