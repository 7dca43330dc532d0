"""End-to-end experiment orchestration.

An experiment is: generate synthetic sequences, featurize and flatten,
stratified train/test split, train one classifier, predict, evaluate.
Every artifact is a pure function of the config (including its seed);
wall-clock timings ride along in the report but stay out of its
deterministic summary.
"""

import time
from dataclasses import dataclass, field, fields

from ..base import check_labels, check_param_types
from ..classifiers import CLASSIFIERS
from ..evaluation import evaluate
from .synthesis import FEATURE_KINDS, check_noise_std, reuse_or_build
from .templates import BENCHMARK_CLASSES, INTERACTION_TEMPLATES, SINGLE_PERSON_TEMPLATES


@dataclass
class ExperimentConfig:
    classes: tuple = BENCHMARK_CLASSES
    samples_per_class: int = 30
    frames: int = 90
    seed: int = 7
    noise_std: float = 0.01
    feature_kind: str = "single"
    classifier: str = "svm"
    split_fraction: float = 0.8
    params: dict = field(default_factory=dict)
    templates: dict | None = None  # overrides for class -> GestureTemplate

    def __post_init__(self):
        check_param_types(self, {f.name: f.default for f in fields(self) if type(f.default) in (int, float)})
        self.classes = tuple(self.classes)
        if not self.classes:
            raise ValueError("config needs at least one class")
        check_labels(self.classes, len(self.classes))  # class names become manifest labels
        repeated = sorted({name for name in self.classes if self.classes.count(name) > 1})
        if repeated:
            raise ValueError(f"class(es) named more than once: {', '.join(map(repr, repeated))}")
        known = SINGLE_PERSON_TEMPLATES.keys() | INTERACTION_TEMPLATES.keys() | set(self.templates or ())
        unknown = [name for name in self.classes if name not in known]
        if unknown:
            raise ValueError(f"no template for class(es) {', '.join(map(repr, unknown))}")
        if self.samples_per_class < 1:
            raise ValueError(f"samples_per_class must be >= 1, got {self.samples_per_class}")
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames}")
        self.noise_std = check_noise_std(self.noise_std)
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError(f"split_fraction must be in (0, 1), got {self.split_fraction}")
        if self.feature_kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature_kind {self.feature_kind!r}")
        if self.classifier not in CLASSIFIERS:
            raise ValueError(f"unknown classifier {self.classifier!r}")
        unknown = [key for key in self.params if key not in CLASSIFIERS[self.classifier]._defaults()]
        if unknown:
            raise ValueError(f"{self.classifier} takes no parameter(s) {', '.join(map(repr, unknown))}")


def make_classifier(config):
    """The config's classifier; one with a seed parameter gets config.seed
    unless config.params sets it."""
    cls = CLASSIFIERS[config.classifier]
    seed = {"seed": config.seed} if "seed" in cls._defaults() else {}
    return cls(**{**seed, **config.params})


def run_experiment(config):
    """Generate, split, train, predict, evaluate; returns the report.

    The report's summary() is byte-identical across runs with the same
    config; report.timings carries the wall-clock seconds per stage. The
    last call's trajectories, dataset and split stay alive, and a call reuses
    those its config shares (see synthesis.reuse_or_build): the trajectories
    across seeds, the dataset when only classifier, params or split_fraction
    differ, the split when only classifier or params do. Every artifact is still a
    pure function of the config; report.timings["build_dataset"] times the
    build and the split, or only the lookups.
    """
    timings = {}
    t0 = time.perf_counter()
    data, (train, test) = reuse_or_build(config)
    timings["build_dataset"] = time.perf_counter() - t0

    model = make_classifier(config)
    t0 = time.perf_counter()
    model.fit(train.vectors, train.labels)
    timings["train"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    predicted = model.predict(test.vectors)
    timings["predict"] = time.perf_counter() - t0

    report = evaluate(test.labels, predicted, labels=list(data.label_set))
    report.timings = timings
    return report

