from .experiment import (
    ExperimentConfig,
    make_classifier,
    run_experiment,
)
from .synthesis import (
    build_dataset,
    export_dataset,
    generate_sequence,
    make_sequences,
    stratified_split,
)
from .templates import (
    BASE_POSE,
    BENCHMARK_CLASSES,
    DEPTH_RANGE,
    GestureTemplate,
    INTERACTION_TEMPLATES,
    SINGLE_PERSON_TEMPLATES,
    get_template,
)

__all__ = [
    "ExperimentConfig",
    "run_experiment",
    "make_classifier",
    "build_dataset",
    "export_dataset",
    "generate_sequence",
    "make_sequences",
    "stratified_split",
    "GestureTemplate",
    "BASE_POSE",
    "BENCHMARK_CLASSES",
    "DEPTH_RANGE",
    "INTERACTION_TEMPLATES",
    "SINGLE_PERSON_TEMPLATES",
    "get_template",
]
