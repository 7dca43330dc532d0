import dataclasses
import hashlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from skelgest import Joint, parse_skeleton_stream, serialize_skeleton_stream
from skelgest.base import feature_matrix
from skelgest.errors import DepthRangeViolationError, StratifyError
from skelgest.features import FEATURE_MODULES
from skelgest.classifiers import LabeledDataset
from skelgest.harness import (
    BENCHMARK_CLASSES,
    ExperimentConfig,
    GestureTemplate,
    INTERACTION_TEMPLATES,
    SINGLE_PERSON_TEMPLATES,
    build_dataset,
    export_dataset,
    generate_sequence,
    make_classifier,
    make_sequences,
    run_experiment,
    stratified_split,
)
from skelgest.harness.experiment import CLASSIFIERS
import skelgest.harness.synthesis as synthesis
from skelgest.harness.templates import BASE_POSE, DEPTH_RANGE, get_template
from skelgest.rng import PortableRNG


def static_template():
    return GestureTemplate("static", moves={})


class TestTemplates:
    def test_catalog_sizes(self):
        assert len(SINGLE_PERSON_TEMPLATES) == 20
        assert len(INTERACTION_TEMPLATES) == 8
        assert set(BENCHMARK_CLASSES) <= set(SINGLE_PERSON_TEMPLATES)

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
        seq = generate_sequence(static_template(), 10, seed=1, noise_std=0.0)
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

    @pytest.mark.parametrize("noise_std", [-1.0, float("nan"), float("inf")])
    def test_bad_noise_std_rejected(self, noise_std):
        with pytest.raises(ValueError, match="noise_std"):
            generate_sequence(static_template(), 5, seed=0, noise_std=noise_std)

    def test_single_frame_uses_t_zero(self):
        t = get_template("move_down")  # starts away from the base pose
        seq = generate_sequence(t, 1, seed=0, noise_std=0.0)
        assert np.array_equal(seq.joints[0], t.trajectory([0.0])[0])

    def test_round_trip_through_skeleton_io(self):
        seq = generate_sequence(get_template("punching"), 15, seed=3)
        again = parse_skeleton_stream(serialize_skeleton_stream(seq))
        assert np.array_equal(seq.joints, again.joints)

    @pytest.mark.parametrize("noise_std", [0.01, 0.0, 0.2])
    def test_each_row_of_a_block_is_its_seeds_sequence(self, noise_std):
        config = ExperimentConfig(classes=("clap",), samples_per_class=3, frames=13, seed=5,
                                  noise_std=noise_std)
        sequences, _ = make_sequences(config)
        assert len(sequences) == 3
        for i, seq in enumerate(sequences):
            seed = PortableRNG(config.seed).spawn(i).seed
            assert np.array_equal(generate_sequence(get_template("clap"), 13, seed, noise_std).joints,
                                  seq.joints)

    @pytest.mark.parametrize("rows", [(0,), (1, 2, 4, 5), (3, 19), tuple(range(20))])
    @pytest.mark.parametrize("frames", [1, 4])
    def test_row_subset_jitter_matches_the_full_draw(self, rows, frames):
        # every value in a drawn pair is jittered as the full draw would; the
        # pairs cover the listed rows, and every other value stays clean
        clean = get_template("waving").trajectory(np.linspace(0.0, 1.0, frames))
        seeds = [7, 2**64 - 1]
        out = synthesis._jitter(clean, 0.2, seeds, rows)
        full = synthesis._jitter(clean, 0.2, seeds, range(20))
        drawn = np.zeros((frames, 60), dtype=bool)
        for r in rows:
            for p in range(3 * r // 2, (3 * r + 2) // 2 + 1):
                drawn[:, 2 * p : 2 * p + 2] = True
        drawn = np.broadcast_to(drawn.reshape(clean.shape), out.shape)
        assert np.array_equal(out[drawn], full[drawn])
        assert np.array_equal(out[~drawn], np.broadcast_to(clean, out.shape)[~drawn])


class TestBuildDataset:
    def test_paper_scale_single(self):
        cfg = ExperimentConfig(
            classes=tuple(sorted(SINGLE_PERSON_TEMPLATES)), samples_per_class=2,
            frames=9, noise_std=0.0, feature_kind="single",
        )
        data = build_dataset(cfg)
        assert data.vectors.shape == (40, 54)

    def test_feature_kind_two_person(self):
        cfg = ExperimentConfig(classes=("waving", "clap"), samples_per_class=2, frames=5,
                               feature_kind="two_person")
        data = build_dataset(cfg)
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
        with pytest.raises(ValueError, match="feature_kind"):
            ExperimentConfig(classes=("waving",), samples_per_class=1, frames=2, feature_kind="volumetric")


# SHA-256 of build_dataset(config).vectors and of the stacked make_sequences
# joints: the generated data, byte for byte, at each workload shape
PINNED_DATA = [
    (
        ExperimentConfig(samples_per_class=8, seed=21, noise_std=0.1),
        "b3b7368bd961d428d33cf6aa2bb575157a13e0306a6a8dc0ef5ce42ebd20b0c6",
        "fee38d3c0a4e83d03504a52c3e4514c9f78594734c968699eca40c20985e7efb",
    ),
    (
        ExperimentConfig(
            classes=tuple(INTERACTION_TEMPLATES), templates=dict(INTERACTION_TEMPLATES),
            feature_kind="two_person", samples_per_class=15, seed=22, noise_std=0.3,
        ),
        "22021145ecd12f79c9ed5434c73451a5f9986ea7420b4bfccc5c89d30498f5cf",
        "262957a16307e82a9204d896ce73aca815e7c9afb773a553c55d3ae8000392a3",
    ),
    (
        ExperimentConfig(classes=("waving", "clap", "stop"), samples_per_class=3, frames=1, seed=23),
        "d8ff732e993207ce59c9639c76211a06979f3da5ce0454780cc604e4edb3c2bf",
        "d1fd41110edb7e5dcaa5643a6c69cd5f9e506eb8d6d9ffd623d32626615c0023",
    ),
]


@pytest.mark.parametrize("config, vectors_digest, joints_digest", PINNED_DATA,
                         ids=["single", "two_person", "one_frame_template_noise"])
def test_generated_data_is_pinned(config, vectors_digest, joints_digest):
    data = build_dataset(config)
    assert hashlib.sha256(data.vectors.tobytes()).hexdigest() == vectors_digest
    sequences, labels = make_sequences(config)
    joints = np.stack([seq.joints for seq in sequences])
    assert hashlib.sha256(joints.tobytes()).hexdigest() == joints_digest
    assert labels == data.labels == [c for c in config.classes for _ in range(config.samples_per_class)]
    # the public path, one recording at a time, gives the class-block matrix bit for bit
    public = feature_matrix(FEATURE_MODULES[config.feature_kind].sequence_features, sequences)
    assert public.shape == data.vectors.shape and public.tobytes() == data.vectors.tobytes()


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
        assert Counter(train.labels) == {"a": 40, "b": 24, "c": 16}

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
        assert Counter(train.labels)["a"] == 1 and Counter(test.labels)["a"] == 1

    def test_stratify_error_on_singleton_class(self):
        data = self.make_data({"a": 1, "b": 5})
        with pytest.raises(StratifyError):
            stratified_split(data, 0.5, seed=0)

    def test_fraction_validation(self):
        data = self.make_data({"a": 4, "b": 4})
        with pytest.raises(ValueError):
            stratified_split(data, 1.0, seed=0)


@pytest.fixture
def builds(monkeypatch):
    """The configs whose dataset run_experiment builds, from an empty memo."""
    built = []
    build = synthesis._dataset_from

    def counting(config, cleans):
        built.append(config)
        return build(config, cleans)

    monkeypatch.setattr(synthesis, "_last", None)
    monkeypatch.setattr(synthesis, "_dataset_from", counting)
    return built


def count_calls(monkeypatch, owner, name):
    """The argument tuples of each call of owner.name from now on."""
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def editable_template(name):
    """A copy of a catalog template whose moves and base pose can be edited."""
    template = get_template(name)
    return dataclasses.replace(template, moves=dict(template.moves), base_pose=BASE_POSE.copy())


SMALL = ExperimentConfig(classes=("waving", "punching", "clap"), samples_per_class=6, frames=12,
                         seed=5, noise_std=0.05)


def _moved_hand(t):
    t.moves[Joint.HAND_LEFT] = ((0.0, (0.0, 0.1, 0.0)),)


def _shifted_pose(t):
    t.base_pose[Joint.HIP_CENTER.row, 0] += 0.01


class TestRunExperiment:
    def test_two_distinct_templates_zero_noise_perfect(self):
        arms = (Joint.ELBOW_LEFT, Joint.WRIST_LEFT, Joint.HAND_LEFT,
                Joint.ELBOW_RIGHT, Joint.WRIST_RIGHT, Joint.HAND_RIGHT)
        up = GestureTemplate("arms_up", {j: ((0.0, (0, 0.5, 0)),) for j in arms})
        down = GestureTemplate("arms_down", {j: ((0.0, (0, -0.2, 0)),) for j in arms})
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

    # expected: the parameters that differ from the constructor's defaults
    @pytest.mark.parametrize("kind, params, expected", [
        ("edt", {}, {"seed": 13}),
        ("edt", {"seed": 4}, {"seed": 4}),
        ("svm", {}, {}),
        ("knn", {"k": 3}, {"k": 3}),
    ])
    def test_make_classifier_seeds_only_a_seeded_model(self, kind, params, expected):
        model = make_classifier(ExperimentConfig(seed=13, classifier=kind, params=params))
        assert type(model) is CLASSIFIERS[kind]
        assert model.get_params() == {**CLASSIFIERS[kind]().get_params(), **expected}

    @pytest.mark.parametrize("kind", ["svm", "edt", "knn"])
    def test_reused_dataset_gives_the_built_summary(self, builds, kind):
        config = dataclasses.replace(SMALL, classifier=kind)
        cold = run_experiment(config).summary()
        warm = run_experiment(config).summary()
        assert len(builds) == 1
        assert warm == cold

    def test_classifier_params_and_split_share_one_build(self, builds):
        for change in [{}, {"classifier": "edt", "params": {"n_trees": 3}},
                       {"classifier": "knn", "params": {"k": 1}}, {"split_fraction": 0.5}]:
            run_experiment(dataclasses.replace(SMALL, **change))
        assert len(builds) == 1

    @pytest.mark.parametrize("change", [
        {"seed": 6},
        {"noise_std": 0.06},
        {"frames": 13},
        {"samples_per_class": 5},
        {"classes": ("clap", "punching", "waving")},
        {"feature_kind": "two_person"},
    ], ids=lambda change: next(iter(change)))
    def test_a_new_problem_rebuilds(self, builds, monkeypatch, change):
        run_experiment(SMALL)
        changed = dataclasses.replace(SMALL, **change)
        rebuilt = run_experiment(changed).summary()
        assert len(builds) == 2
        monkeypatch.setattr(synthesis, "_last", None)
        assert run_experiment(changed).summary() == rebuilt

    @pytest.mark.parametrize("edit", [_moved_hand, _shifted_pose])
    def test_an_edited_template_rebuilds(self, builds, monkeypatch, edit):
        templates = {"waving": editable_template("waving")}
        config = dataclasses.replace(SMALL, classes=("waving", "clap"), templates=templates)
        run_experiment(config)
        edit(templates["waving"])
        rebuilt = run_experiment(config).summary()
        assert len(builds) == 2
        monkeypatch.setattr(synthesis, "_last", None)
        assert run_experiment(config).summary() == rebuilt

    def test_a_trajectory_equal_in_value_but_not_in_bytes_rebuilds(self, builds):
        # the key is the trajectory's bytes, so the sign of a zero counts
        template = editable_template("waving")
        config = dataclasses.replace(SMALL, classes=("waving", "clap"), templates={"waving": template})
        before = synthesis._clean(template, config.frames)
        run_experiment(config)
        template.base_pose[template.base_pose == 0.0] = -0.0
        after = synthesis._clean(template, config.frames)
        assert np.array_equal(after, before) and after.tobytes() != before.tobytes()
        run_experiment(config)
        assert len(builds) == 2

    @pytest.mark.parametrize("change", [{"classifier": "knn"}, {"seed": 6}], ids=["reuse", "seed"])
    def test_the_same_templates_sample_no_trajectory(self, builds, monkeypatch, change):
        run_experiment(SMALL)
        trajectories = count_calls(monkeypatch, GestureTemplate, "trajectory")
        changed = dataclasses.replace(SMALL, **change)
        summary = run_experiment(changed).summary()
        assert trajectories == [] and len(builds) == 1 + ("seed" in change)
        monkeypatch.setattr(synthesis, "_last", None)
        assert run_experiment(changed).summary() == summary

    def test_a_reused_call_splits_nothing(self, builds, monkeypatch):
        run_experiment(SMALL)
        splits = count_calls(monkeypatch, synthesis, "stratified_split")
        run_experiment(dataclasses.replace(SMALL, classifier="edt", params={"n_trees": 3}))
        assert splits == [] and len(builds) == 1

    def test_a_reused_split_is_the_fresh_split(self, builds):
        for kind in CLASSIFIERS:  # a fit that edited its training rows would show below
            run_experiment(dataclasses.replace(SMALL, classifier=kind))
        _, reused = synthesis.reuse_or_build(SMALL)
        assert len(builds) == 1
        fresh = stratified_split(build_dataset(SMALL), SMALL.split_fraction, SMALL.seed)
        for kept, split in zip(reused, fresh):
            assert np.array_equal(kept.vectors, split.vectors) and kept.labels == split.labels

    def test_a_new_split_fraction_resplits_without_a_rebuild(self, builds, monkeypatch):
        run_experiment(SMALL)
        splits = count_calls(monkeypatch, synthesis, "stratified_split")
        halved = dataclasses.replace(SMALL, split_fraction=0.5)
        resplit = run_experiment(halved).summary()
        assert len(splits) == 1 and len(builds) == 1
        monkeypatch.setattr(synthesis, "_last", None)
        assert run_experiment(halved).summary() == resplit

    def test_an_in_place_edit_of_a_shared_keyframe_list_rebuilds(self, builds, monkeypatch):
        keys = [(0.0, (0.0, 0.0, 0.0)), (1.0, (0.0, 0.3, -0.1))]
        template = GestureTemplate("raise", dict.fromkeys((Joint.WRIST_RIGHT, Joint.HAND_RIGHT), keys))
        config = dataclasses.replace(SMALL, classes=("raise", "clap"), templates={"raise": template})
        run_experiment(config)
        keys[1] = (1.0, (0.0, 0.5, -0.1))  # the same list object, so the same track id
        rebuilt = run_experiment(config).summary()
        assert len(builds) == 2
        monkeypatch.setattr(synthesis, "_last", None)
        assert run_experiment(config).summary() == rebuilt

    def test_a_negative_zero_offset_over_a_negative_zero_pose_rebuilds(self, builds):
        # -0.0 + 0.0 is 0.0 but -0.0 + -0.0 is -0.0: the key holds the offsets' bytes
        keys = [(0.0, (0.0, 0.0, 0.0))]
        template = GestureTemplate("still", {Joint.HIP_CENTER: keys}, base_pose=BASE_POSE.copy())
        template.base_pose[Joint.HIP_CENTER.row, 0] = -0.0
        config = dataclasses.replace(SMALL, classes=("still", "clap"), templates={"still": template})
        before = synthesis._clean(template, config.frames)
        run_experiment(config)
        keys[0] = (0.0, (-0.0, 0.0, 0.0))
        after = synthesis._clean(template, config.frames)
        assert np.array_equal(after, before) and after.tobytes() != before.tobytes()
        run_experiment(config)
        assert len(builds) == 2

    def test_a_template_out_of_depth_range_raises_on_every_call(self, builds):
        far = GestureTemplate("far", {Joint.HAND_RIGHT: ((0.0, (0.0, 0.0, 2.0)),)})
        config = dataclasses.replace(SMALL, classes=("far", "clap"), templates={"far": far})
        for _ in range(2):
            with pytest.raises(DepthRangeViolationError):
                run_experiment(config)
        assert builds == []


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


class TestConfigValidation:
    def test_needs_classes(self):
        with pytest.raises(ValueError):
            ExperimentConfig(classes=())

    def test_split_fraction_bounds(self):
        with pytest.raises(ValueError):
            ExperimentConfig(classes=("waving",), split_fraction=1.0)

    def test_repeated_class_rejected(self):
        with pytest.raises(ValueError, match="more than once: 'waving'$"):
            ExperimentConfig(classes=("waving", "waving", "clap"))

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="'nosuch'"):
            ExperimentConfig(classes=("waving", "nosuch"))

    @pytest.mark.parametrize("name", ["has space", "caf\u00e9"])
    def test_class_name_that_is_not_one_token_rejected(self, name):
        with pytest.raises(ValueError, match="single comma-free token"):
            ExperimentConfig(classes=("waving", name), templates={name: static_template()})

    def test_param_the_classifier_does_not_take_rejected(self):
        with pytest.raises(ValueError, match="svm takes no parameter.* 'k'$"):
            ExperimentConfig(classifier="svm", params={"k": 3})

    def test_template_override_names_a_class(self):
        cfg = ExperimentConfig(classes=("static",), templates={"static": static_template()})
        assert cfg.classes == ("static",)

    @pytest.mark.parametrize("field, value", [
        ("samples_per_class", 0),
        ("samples_per_class", -3),
        ("frames", 0),
        ("noise_std", -1.0),
        ("noise_std", float("nan")),
        ("noise_std", float("inf")),
    ])
    def test_bad_size_or_noise_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(classes=("waving",), **{field: value})

    # an int field takes integers and a float field real numbers, neither a bool
    @pytest.mark.parametrize("field, value", [
        ("samples_per_class", 2.5),
        ("samples_per_class", True),
        ("frames", 2.5),
        ("seed", 1.5),
        ("noise_std", True),
        ("split_fraction", "0.5"),
    ])
    def test_value_of_the_wrong_type_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an? (integer|real number), got"):
            ExperimentConfig(classes=("waving",), **{field: value})

    def test_default_is_benchmark(self):
        cfg = ExperimentConfig()
        assert cfg.classes == BENCHMARK_CLASSES
        assert cfg.samples_per_class == 30
        assert cfg.frames == 90
        assert cfg.seed == 7
