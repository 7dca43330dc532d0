"""The benchmark's workloads.

Each workload is a closed loop with one caller: a pass starts only when the
previous one has finished. A workload object owns its inputs, its set-up,
one timed pass and the checks that run after the loop. Every pass and
check takes a recorder (see spans.py); the untraced recorder turns spans
into no-ops, so the same code serves the untraced and the traced run.

The workload seed reaches skelgest only through ExperimentConfig.seed.
"""

import contextlib
import io
import os
import time

import numpy as np

from skelgest import cli
from skelgest.classifiers import LabeledDataset, load_model, save_model
from skelgest.classifiers.svm import gaussian_kernel
from skelgest.evaluation import ConfusionMatrix, binary_reduce, class_metrics, evaluate, macro_average
from skelgest.harness import (
    BENCHMARK_CLASSES,
    INTERACTION_TEMPLATES,
    ExperimentConfig,
    export_dataset,
    make_classifier,
    make_sequences,
    run_experiment,
    stratified_split,
)
from skelgest.harness.synthesis import FEATURE_KINDS
from skelgest.rng import PortableRNG
from skelgest.skeleton import read_skeleton_file, serialize_skeleton_stream
from reference import reference_s
from spans import NullRecorder

CLASSIFIERS = ("svm", "edt", "knn")
_CLI_MODE = {"single": "single", "two_person": "two-person"}

# Spans whose durations are per-layer metrics; any other span is glue.
LAYER_SPANS = (
    "synthesis.build_dataset_s",
    "synthesis.make_sequences_s",
    "synthesis.split_s",
    "features_s",
    "svm.kernel_s",
    "svm.fit_s",
    "svm.predict_s",
    "edt.fit_s",
    "edt.predict_s",
    "knn.fit_s",
    "knn.predict_s",
    *(f"model_io.dump_s.{c}" for c in CLASSIFIERS),
    *(f"model_io.load_s.{c}" for c in CLASSIFIERS),
    "evaluation.evaluate_s",
    "skeleton.serialize_s",
    "skeleton.parse_s",
    "cli.extract_features_s",
    *(f"cli.predict_s.{c}" for c in CLASSIFIERS),
)
LAYER_COUNTS = (
    "svm.support_vectors",
    "svm.machines",
    "edt.nodes",
    "edt.max_depth",
    "edt.bootstrap_rows",
    *(f"model_io.bytes.{c}" for c in CLASSIFIERS),
    "skeleton.bytes",
    "skeleton.frames",
)


class Tally:
    """Operations attempted and failed: timed calls and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self):
        self.attempted += 1

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(name)


class QualityPool:
    """Confusion counts per classifier, summed over the quality passes."""

    def __init__(self, labels):
        self.labels = list(labels)
        self.counts = {c: np.zeros((len(labels), len(labels)), dtype=np.int64) for c in CLASSIFIERS}

    def add(self, clf, report):
        self.counts[clf] += report.matrix.counts

    def metrics(self):
        out = {}
        for clf, counts in self.counts.items():
            cm = ConfusionMatrix(self.labels, counts)
            macro = macro_average([class_metrics(binary_reduce(cm, lab)) for lab in self.labels])
            out[f"macro_f1.{clf}"] = macro.f1
            out[f"accuracy.{clf}"] = float(np.trace(counts) / counts.sum())
        return out


def build(config, rec):
    """build_dataset(config), step by step, with a span per layer."""
    with rec.span("synthesis.build_dataset_s"):
        with rec.span("synthesis.make_sequences_s"):
            sequences, labels = make_sequences(config)
        featurize = FEATURE_KINDS[config.feature_kind]
        with rec.span("features_s"):
            vectors = np.stack([featurize(seq).reshape(-1) for seq in sequences])
        data = LabeledDataset(vectors, labels, tuple(config.classes))
    return sequences, data


def tree_depth(tree):
    depth, frontier = 0, [0]
    while True:
        frontier = [c for i in frontier if tree.feature[i] >= 0 for c in tree.children[i]]
        if not frontier:
            return depth
        depth += 1


def fit(config, train, rec):
    """make_classifier(config).fit on the training split."""
    model = make_classifier(config)
    with rec.span(f"{config.classifier}.fit_s"):
        model.fit(train.vectors, train.labels)
    return model


def reproduce_experiment(config, rec):
    """run_experiment(config), step by step: build_dataset, stratified_split,
    make_classifier(...).fit, predict, evaluate. Returns the fitted model,
    the training split, the dataset and its sequences, and the report."""
    clf = config.classifier
    with rec.span(f"experiment.{clf}"):
        sequences, data = build(config, rec)
        with rec.span("synthesis.split_s"):
            train, test = stratified_split(data, config.split_fraction, config.seed)
        model = fit(config, train, rec)
        with rec.span(f"{clf}.predict_s"):
            predicted = model.predict(test.vectors)
        with rec.span("evaluation.evaluate_s"):
            report = evaluate(test.labels, predicted, labels=list(data.label_set))
    return model, train, sequences, data, report


def save_models(models, model_dir, rec):
    """save_model for each fitted model; returns {classifier: path}."""
    os.makedirs(model_dir, exist_ok=True)
    paths = {}
    for clf, model in models.items():
        paths[clf] = os.path.join(model_dir, f"{clf}.model")
        with rec.span(f"model_io.dump_s.{clf}"):
            save_model(model, paths[clf])
        rec.count(f"model_io.bytes.{clf}", os.path.getsize(paths[clf]))
    return paths


def _export(config, out_dir, rec):
    """export_dataset(config, out_dir); traced, it is done step by step so
    that serialization gets spans of its own."""
    if not rec.tracing:
        return export_dataset(config, out_dir)
    os.makedirs(out_dir, exist_ok=True)
    with rec.span("synthesis.make_sequences_s"):
        sequences, labels = make_sequences(config)
    counter, lines = {}, []
    for seq, label in zip(sequences, labels):
        i = counter.get(label, 0)
        counter[label] = i + 1
        filename = f"{label}_{i:03d}.txt"
        with rec.span("skeleton.serialize_s"):
            text = serialize_skeleton_stream(seq)
        with open(os.path.join(out_dir, filename), "w", encoding="ascii") as fh:
            fh.write(text)
        rec.count("skeleton.bytes", len(text))
        rec.count("skeleton.frames", len(seq))
        lines.append(f"{filename},{label}")
    manifest = os.path.join(out_dir, "labels.csv")
    with open(manifest, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def _cli(argv, tally):
    """cli.main(argv) with its output captured; a non-zero exit is a failure."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    tally.check(f"cli {argv[0]} exit code {code}: {err.getvalue().strip()}", code == 0)


def classify_recordings(config, work_dir, model_paths, sequences, expected, rec, tally):
    """Export config's recordings as skeleton text, read them back,
    classify them with each saved model and again through the CLI; every
    result is checked.

    sequences are the generated recordings (for the read-back check);
    expected holds, per classifier, the labels the in-memory model predicts.
    """
    data_dir = os.path.join(work_dir, "recordings")
    manifest = _export(config, data_dir, rec)
    featurize = FEATURE_KINDS[config.feature_kind]
    with open(manifest, encoding="ascii") as fh:
        entries = [ln.split(",") for ln in fh.read().split()]
    rows = []
    for (filename, _), seq in zip(entries, sequences):
        with rec.span("skeleton.parse_s"):
            read = read_skeleton_file(os.path.join(data_dir, filename))
        tally.check(f"read back {filename}", np.array_equal(read.joints, seq.joints))
        rows.append(featurize(read).reshape(-1))
    X = np.stack(rows)
    predictions = {}
    for clf, path in model_paths.items():
        with rec.span(f"model_io.load_s.{clf}"):
            model = load_model(path)
        predictions[clf] = model.predict(X)
        tally.check(f"loaded {clf} predicts as in memory", predictions[clf] == expected[clf])

    features_csv = os.path.join(work_dir, "features.csv")
    with rec.span("cli.extract_features_s"):
        _cli(["extract-features", "--manifest", manifest, "--mode",
              _CLI_MODE[config.feature_kind], "--out", features_csv], tally)
    for clf, path in model_paths.items():
        out = os.path.join(work_dir, f"predicted_{clf}.txt")
        with rec.span(f"cli.predict_s.{clf}"):
            _cli(["predict", "--model", path, "--features", features_csv, "--out", out], tally)
        with open(out, encoding="ascii") as fh:
            tally.check(f"cli {clf} labels", fh.read().split() == predictions[clf])


class ExperimentWorkload:
    """Each pass calls run_experiment once per classifier on a fresh
    problem; problem i has seed PortableRNG(seed).spawn(i).seed. Quality is
    pooled over passes 0 to quality_passes - 1, which every run completes."""

    def __init__(self, seed, work_dir, tally, quality_passes, **config):
        self.seed = seed
        self.dir = work_dir
        self.tally = tally
        self.quality_passes = quality_passes
        self.config_fields = config
        self.quality = QualityPool(config.get("classes", BENCHMARK_CLASSES))
        self.summaries = {}  # (pass, classifier) -> summary() of run_experiment
        self.fitted = {}  # classifier -> (training split, model) of the last traced pass

    def config(self, i, clf, **overrides):
        fields = dict(self.config_fields, seed=PortableRNG(self.seed).spawn(i).seed, classifier=clf)
        fields.update(overrides)
        return ExperimentConfig(**fields)

    def setup(self):
        # first-call warm-up: one experiment per classifier at the workload's
        # size, on a problem the timed passes do not use
        for clf in CLASSIFIERS:
            run_experiment(self.config(-1, clf))

    def run_pass(self, i, rec):
        """Untraced: run_experiment per classifier, timed, each call after a
        timed run of the reference task. Traced: the same experiments step
        by step, checked against the untraced summaries. Returns the
        (name, seconds) of each timing."""
        t = []
        for clf in CLASSIFIERS:
            config = self.config(i, clf)
            if not rec.tracing:
                t.append(("ref_s", reference_s()))
            start = time.perf_counter()
            if rec.tracing:
                model, train, _, _, report = reproduce_experiment(config, rec)
                self.fitted[clf] = (train, model)
                self.tally.check(f"pass {i} {clf}: traced summary", report.summary() == self.summaries.get((i, clf)))
            else:
                report = run_experiment(config)
                self.summaries[(i, clf)] = report.summary()
                if i < self.quality_passes:
                    self.quality.add(clf, report)
            t.append((f"{clf}_s", time.perf_counter() - start))
            self.tally.op()
        # keep pass 0 for the checks; later summaries only until traced
        for key in [k for k in self.summaries if 0 < k[0] < i]:
            del self.summaries[key]
        return t

    def record_model_facts(self, rec):
        """The counts read from the last traced pass's models, and for svm
        the kernel alone on its training rows. Called after the traced pass,
        so that it differs from the untraced pass only by its spans."""
        train, model = self.fitted["svm"]
        with rec.span("svm.kernel_s"):
            gaussian_kernel(train.vectors, train.vectors, model.sigma)
        rec.count("svm.support_vectors", int(np.any(model.dual_coef_ != 0.0, axis=0).sum()))
        rec.count("svm.machines", len(model.classes_))
        train, model = self.fitted["edt"]
        rec.count("edt.nodes", sum(len(t.feature) for t in model.trees_))
        rec.count("edt.max_depth", max(tree_depth(t) for t in model.trees_))
        rec.count("edt.bootstrap_rows", int(np.ceil(model.bootstrap_fraction * len(train))))

    def check(self, rec):
        """Pass 0 again, step by step: same seed, same summary. Its models
        are saved, and two recordings per class are exported and
        classified again through model_io and the CLI."""
        models = {}
        for clf in CLASSIFIERS:
            model, _, _, _, report = reproduce_experiment(self.config(0, clf), rec)
            self.tally.check(f"{clf}: same seed, same summary", report.summary() == self.summaries[(0, clf)])
            models[clf] = model
        paths = save_models(models, os.path.join(self.dir, "models"), rec)
        config = self.config(0, "svm", samples_per_class=2)
        sequences, data = build(config, NullRecorder())
        expected = {clf: model.predict(data.vectors) for clf, model in models.items()}
        classify_recordings(config, self.dir, paths, sequences, expected, rec, self.tally)


# name -> (quality passes, ExperimentConfig fields); the quality passes are
# 30 to 40 seconds of work on a 2-core Xeon
WORKLOADS = {
    "paper-single": (40, dict(samples_per_class=8, noise_std=0.1)),
    "interaction-wide": (
        10,
        dict(
            classes=tuple(INTERACTION_TEMPLATES),
            templates=dict(INTERACTION_TEMPLATES),
            feature_kind="two_person",
            noise_std=0.3,
            samples_per_class=15,
        ),
    ),
}


def make_workload(name, seed, work_dir, tally, **overrides):
    """The named workload; overrides change its ExperimentConfig fields
    (the tests use them to shrink the inputs)."""
    quality_passes, config = WORKLOADS[name]
    return ExperimentWorkload(seed, work_dir, tally, quality_passes, **dict(config, **overrides))
