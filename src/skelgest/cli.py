"""Command-line front end.

Subcommands: extract-features, train, predict, evaluate, friedman,
gen-synth, round-trip-check. Exit codes are a stable contract, decided in
main alone: 0 success, 1 usage error, 2 bad input (InputFormatError, OSError
or any ValueError), 3 computation error (ComputationError). Result data goes
to stdout only when no output file is given; diagnostics go to stderr.
The SKELGEST_SEED environment variable supplies the default seed.
"""

import argparse
import dataclasses
import itertools
import math
import os
import sys

import numpy as np

from . import evaluation
from .base import check_labels, feature_matrix
from .classifiers import CLASSIFIERS, load_model, save_model
from .errors import ComputationError, InputFormatError
from .features import FEATURE_MODULES
from .harness import ExperimentConfig, export_dataset
from .skeleton import (
    format_floats,
    matrix_to_csv,
    parse_skeleton_stream,
    read_ascii,
    read_skeleton_file,
    serialize_skeleton_stream,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_COMPUTE = 3


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_seed():
    """SKELGEST_SEED as an int, or None when it is unset."""
    env = os.environ.get("SKELGEST_SEED")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise InputFormatError(f"SKELGEST_SEED must be an integer, got {env!r}") from None


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_lines(path):
    """Iterator of (line number, stripped fields) over the non-blank lines of a
    CSV input file; a line is split only when it is reached."""
    lines = read_ascii(path).split("\n")  # splitlines() would also split at \v, \f, \x1c-\x1e
    return ((ln_no, [f.strip() for f in ln.split(",")]) for ln_no, ln in enumerate(lines, start=1) if ln.strip())


def _is_number(field):
    try:
        float(field)
    except ValueError:
        return False
    return True


def _split_header(lines):
    """(header fields or None, iterator of data lines) of a numeric CSV's lines:
    the first line is a header exactly when none of its fields parses as a float
    or starts as a number does, so a corrupt first data row stays data."""
    first = next(lines, None)
    if first and not any(_is_number(f) or f.startswith(tuple("0123456789+-.")) for f in first[1]):
        return first[1], lines
    return None, itertools.chain([first] if first else [], lines)


def _floats(path, lines, what):
    """Float matrix of (line number, fields) rows; names the line of a
    non-numeric or non-finite value and rejects ragged rows."""
    rows = []
    for ln_no, fields in lines:
        try:
            row = [float(v) for v in fields]
        except ValueError:
            raise InputFormatError(f"{path} line {ln_no}: non-numeric {what}") from None
        if not all(map(math.isfinite, row)):
            raise InputFormatError(f"{path} line {ln_no}: non-finite {what}")
        rows.append(row)
    if not rows:
        raise InputFormatError(f"{path} holds no rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputFormatError(f"{path}: ragged rows with widths {sorted(widths)}")
    return np.asarray(rows, dtype=np.float64)


def _load_matrix(path):
    """Feature CSV as a float matrix; a header and its `frame` column are dropped."""
    header, lines = _split_header(_csv_lines(path))
    skip = int(header is not None and header[0].lower() == "frame")
    return _floats(path, ((ln_no, fields[skip:]) for ln_no, fields in lines), "value")


def _load_labels(path, need_filename=False):
    """(filename or None, label) per line of a labels manifest: `filename,label`,
    or a bare `label` unless need_filename. Each label is checked as it is read."""
    pairs = []
    for ln_no, fields in _csv_lines(path):
        if len(fields) not in ((2,) if need_filename else (1, 2)):
            expected = "'filename,label'" if need_filename else "'filename,label' or 'label'"
            raise InputFormatError(f"{path} line {ln_no}: expected {expected}")
        try:
            check_labels(fields[-1:], 1)
        except ValueError as exc:
            raise InputFormatError(f"{path} line {ln_no}: {exc}") from None
        pairs.append((fields[0] if len(fields) == 2 else None, fields[-1]))
    if not pairs:
        raise InputFormatError(f"{path} holds no entries")
    return pairs


# CLI spelling of each feature kind: dashes for the config's underscores
_FEATURE_MODULES = {kind.replace("_", "-"): module for kind, module in FEATURE_MODULES.items()}


def cmd_extract_features(args):
    if args.labels_out and not args.manifest:
        args.usage_error("--labels-out needs --manifest")
    if args.frame_column and (args.flatten or args.manifest):
        args.usage_error("--frame-column needs per-frame rows, not --flatten or --manifest")
    module = _FEATURE_MODULES[args.mode]
    if args.input and not args.flatten:
        feats = module.sequence_features(read_skeleton_file(args.input))
        _emit(matrix_to_csv(module.CSV_COLUMNS, feats, args.frame_column), args.out)
        return EXIT_OK
    # one flattened row per recording; --flatten is the one-recording case
    pairs = _load_labels(args.manifest, need_filename=True) if args.manifest else [(args.input, None)]
    base = os.path.dirname(os.path.abspath(args.manifest)) if args.manifest else ""
    recordings = (read_skeleton_file(os.path.join(base, filename)) for filename, _ in pairs)
    X = feature_matrix(module.sequence_features, recordings)
    _emit("\n".join(format_floats(row, ",") for row in X) + "\n", args.out)
    if args.manifest and args.labels_out:
        _emit("\n".join(f"{f},{lab}" for f, lab in pairs) + "\n", args.labels_out)
    return EXIT_OK


def _load_labeled(args):
    """Feature matrix and its labels, one label per row."""
    X = _load_matrix(args.features)
    y = [label for _, label in _load_labels(args.labels)]
    if len(y) != X.shape[0]:
        raise InputFormatError(f"{X.shape[0]} feature rows but {len(y)} labels")
    return X, y


def _given(args, names):
    """The flags among names that were given, SKELGEST_SEED standing in for
    --seed; a flag left out keeps the constructor's default."""
    flags = dict(vars(args), seed=args.seed if args.seed is not None else _default_seed())
    return {name: flags[name] for name in names if flags.get(name) is not None}


def cmd_train(args):
    X, y = _load_labeled(args)
    cls = CLASSIFIERS[args.model]
    model = cls(**_given(args, cls._defaults())).fit(X, y)  # another model's flags are ignored
    accuracy = model.score(X, y)
    save_model(model, args.out)
    print(f"training accuracy: {accuracy:.4f}")
    return EXIT_OK


def cmd_predict(args):
    model = load_model(args.model)
    X = _load_matrix(args.features)
    predicted = model.predict(X)
    _emit("\n".join(predicted) + "\n", args.out)
    return EXIT_OK


def cmd_evaluate(args):
    model = load_model(args.model)
    X, y = _load_labeled(args)
    predicted = model.predict(X)
    labels = sorted(set(y) | set(model.classes_))
    report = evaluation.evaluate(y, predicted, labels=labels)
    if args.report:
        _emit(report.to_csv(), args.report)
        print(report.summary(), file=sys.stderr, end="")
    else:
        sys.stdout.write(report.summary())
    return EXIT_OK


def cmd_friedman(args):
    _, lines = _split_header(_csv_lines(args.scores))
    lines = list(lines)
    # a row may lead with its algorithm's name, which pop takes off its scores
    names = [None if _is_number(fields[0]) else fields.pop(0) for _, fields in lines]
    ranks = evaluation.rank_algorithms(_floats(args.scores, lines, "score"))
    result = evaluation.friedman(ranks)
    sys.stdout.write(evaluation.friedman_table(result, ranks, names))
    return EXIT_OK


def cmd_gen_synth(args):
    config = ExperimentConfig(**_given(args, [field.name for field in dataclasses.fields(ExperimentConfig)]))
    manifest = export_dataset(config, args.out_dir)
    print(
        f"wrote {len(config.classes) * config.samples_per_class} sequences to {args.out_dir} "
        f"(manifest: {manifest})",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_round_trip_check(args):
    seq = read_skeleton_file(args.input)
    again = parse_skeleton_stream(serialize_skeleton_stream(seq))
    if not np.array_equal(seq.joints, again.joints):
        raise InputFormatError(f"{args.input}: round trip altered coordinates")
    print(f"round-trip OK: {len(seq)} frames")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="skelgest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("extract-features", help="skeleton file(s) to feature CSV")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="one skeleton text file")
    src.add_argument("--manifest", help="filename,label manifest; one flattened row per file")
    p.add_argument("--mode", choices=sorted(_FEATURE_MODULES), required=True)
    p.add_argument("--out", help="output CSV (default stdout)")
    p.add_argument("--flatten", action="store_true", help="emit one flattened row")
    p.add_argument("--frame-column", action="store_true", help="prepend a frame index column")
    p.add_argument("--labels-out", help="with --manifest: write the labels sidecar here")
    p.set_defaults(func=cmd_extract_features, usage_error=p.error)

    p = sub.add_parser("train", help="fit a classifier on features + labels")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--model", choices=tuple(CLASSIFIERS), required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--seed", type=int)
    p.add_argument("--sigma", type=float, help="svm kernel width")
    p.add_argument("--cost", dest="C", type=float, help="svm soft-margin penalty")
    p.add_argument("--tol", type=float, help="svm KKT tolerance")
    p.add_argument("--trees", dest="n_trees", type=int, help="edt ensemble size")
    p.add_argument("--bootstrap-fraction", type=float)
    p.add_argument("--k", type=int, help="knn neighbor count (odd)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict labels for feature rows")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="metrics report for a model on features + labels")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--report", help="write CSV report here instead of stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("friedman", help="rank a C x D score grid and test significance")
    p.add_argument("--scores", required=True, help="CSV of per-dataset scores, one algorithm per row")
    p.set_defaults(func=cmd_friedman)

    p = sub.add_parser("gen-synth", help="write a synthetic labeled skeleton dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--classes", type=lambda text: [c.strip() for c in text.split(",")],
                   help="comma-separated template names (default: benchmark 8)")
    p.add_argument("--samples-per-class", type=int)
    p.add_argument("--frames", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--noise-std", type=float)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("round-trip-check", help="verify parse/serialize identity for a file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_round_trip_check)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, OSError, ValueError) as exc:
        print(f"skelgest: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ComputationError as exc:
        print(f"skelgest: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
