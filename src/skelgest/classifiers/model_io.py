"""Trained-model persistence in a self-describing versioned text format.

Layout (one record per line, whitespace separated):

    skelgest-model v1
    kind <svm|edt|knn>
    labels <K> <label-1> ... <label-K>
    scalar <name> <value>
    array <name> <rows> <cols>
    <rows lines of cols repr-formatted floats>
    tree <index> <n_nodes>
    <n_nodes lines of: feature threshold left right label>
    end

The scalar records are the kind's parameters, then the fitted n_features,
always written; _FIELDS lists the array and tree records after them. A
parameter is written, in declaration order, only when it differs from its
default, and read by name as its default's type (an int directly: a wide seed
would clip through a float); one left out is its default. So the defaults are
part of format v1: changing one needs a new _VERSION, or old files silently
change meaning. Floats are written with repr, so a round trip reproduces
bit-equal predictions. A number holding "_" is a ModelFormatError, though
Python and numpy would read "1_0" as 10: dumps_model never writes one. The
`end` sentinel, with only blank lines after it, makes a truncated file or two
run together a ModelFormatError.
"""

import numpy as np

from ..base import check_labels
from ..errors import ComputationError, ModelFormatError
from ..skeleton import read_ascii
from .knn import KNearestNeighbors
from .svm import GaussianKernelSVM
from .trees import BaggedTreeEnsemble, DecisionTree

CLASSIFIERS = {"svm": GaussianKernelSVM, "edt": BaggedTreeEnsemble, "knn": KNearestNeighbors}

_MAGIC = "skelgest-model"
_VERSION = "v1"


def _lines(rest):
    """The lines left in rest, an iterator over a model file's lines; reading past the last is a format error."""
    yield from rest
    raise ModelFormatError("unexpected end of model file")


def _expect(lines, keyword, count=None):
    fields = next(lines).split()
    if not fields or fields[0] != keyword:
        raise ModelFormatError(f"expected {keyword!r} record, got {fields[:1]}")
    if count is not None and len(fields) != count:
        raise ModelFormatError(f"{keyword!r} record has {len(fields)} fields, expected {count}")
    return fields


def _parse(text, cast, what):
    try:
        if "_" in text:  # int and float read digit-group underscores ("0_3" as 3), which dumps_model never writes
            raise ValueError
        return cast(text)
    except ValueError:
        raise ModelFormatError(f"bad {what} {text!r}") from None


def _fmt_array(name, rows):
    rows = np.atleast_2d(rows)  # repr of a Python int or float round-trips it
    header = f"array {name} {rows.shape[0]} {rows.shape[1]}"
    return [header] + [" ".join(map(repr, row.tolist())) for row in rows]


def _read_array(lines, name, dims, sizes):
    """An array record whose shape matches dims[:2], one letter per dimension: "n"
    stored training rows, "d" features, "K" classes; a leading "1" marks a vector, stored
    as one row and returned 1-D. A third letter "K" marks label indices: int64, each in
    0..K-1; any other array is float.

    A letter already in sizes must have that size; any other takes this
    array's size, so later arrays are checked against it.
    """
    dims, labels = dims[:2], dims[2:] == "K"
    fields = _expect(lines, "array", 4)
    if fields[1] != name:
        raise ModelFormatError(f"expected array {name!r}, got {fields[1]!r}")
    shape = tuple(_parse(v, int, f"array {name!r} size") for v in fields[2:])
    if min(shape) < 1 or any(sizes.setdefault(d, n) != n for d, n in zip(dims, shape)):
        expected = tuple(sizes.get(d, d) for d in dims)
        raise ModelFormatError(f"array {name!r} has shape {shape}, expected {expected}")
    # rows are kept as they are read, so a huge declared size cannot allocate
    # more than the file holds
    rows = []
    for r in range(shape[0]):
        values = (line := next(lines)).split()
        if len(values) != shape[1]:
            raise ModelFormatError(
                f"array {name!r} row {r} has {len(values)} values, expected {shape[1]}"
            )
        try:
            if "_" in line:  # numpy reads digit-group underscores too ("-1_0.0" as -10.0)
                raise ValueError
            rows.append(np.array(values, dtype=np.int64 if labels else float))
        except (ValueError, OverflowError):
            raise ModelFormatError(f"array {name!r} row {r} holds a bad value") from None
        if not np.isfinite(rows[-1]).all():
            raise ModelFormatError(f"array {name!r} row {r} holds a non-finite value")
    arr = np.stack(rows)
    if labels and ((arr < 0) | (arr >= sizes["K"])).any():
        raise ModelFormatError(f"array {name!r} holds a label index outside 0..{sizes['K'] - 1}")
    return arr.reshape(-1) if dims[0] == "1" else arr


def _fmt_trees(name, trees):
    """A `tree <index> <n_nodes>` record per tree, each followed by its nodes,
    one `feature threshold left right label` line per node."""
    lines = []
    for t, tree in enumerate(trees):
        lines.append(f"{name} {t} {len(tree.feature)}")
        rows = zip(tree.feature.tolist(), tree.threshold.tolist(),
                   tree.children.tolist(), tree.label.tolist())
        lines += [f"{f} {thr!r} {left} {right} {lab}" for f, thr, (left, right), lab in rows]
    return lines


def _read_trees(lines, name, dims, sizes):
    """The sizes[dims] trees _fmt_trees wrote, each checked by _checked_tree."""
    trees = []
    for t in range(sizes[dims]):
        fields = _expect(lines, name, 3)
        index, n_nodes = (_parse(v, int, f"{name} record field") for v in fields[1:])
        if index != t:
            raise ModelFormatError(f"tree {index} out of order, expected {t}")
        nodes = []
        for _ in range(n_nodes):
            nodes.append((line := next(lines)).split())
            if len(nodes[-1]) != 5:
                raise ModelFormatError("tree node record needs 5 fields")
            if "_" in line:  # as in _read_array
                raise ModelFormatError(f"tree {t} holds a bad node record")
        trees.append(_checked_tree(t, nodes, sizes["d"], sizes["K"]))
    return trees


def _checked_tree(t, nodes, n_features, n_classes):
    """DecisionTree from node records, rejecting one whose prediction could
    loop, read a missing feature, compare with a non-finite threshold or name
    an unknown class."""
    if not nodes:
        raise ModelFormatError(f"tree {t} has no nodes")
    try:
        tree = DecisionTree().set_nodes(nodes)
    except (ValueError, OverflowError):
        raise ModelFormatError(f"tree {t} holds a bad node record") from None
    leaf = tree.feature < 0
    # children strictly after their parent make every walk from the root end
    forward = (tree.children > np.arange(len(nodes))[:, None]) & (tree.children < len(nodes))
    known_label = (tree.label >= 0) & (tree.label < n_classes)
    checks = (
        (forward[~leaf].all(), "an internal node's children must follow it"),
        ((tree.children[leaf] == -1).all(), "a leaf's children must be -1 -1"),
        ((tree.feature < n_features).all(), f"a split feature is not below n_features {n_features}"),
        (np.isfinite(tree.threshold).all(), "a threshold is not finite"),
        (known_label[leaf].all(), f"a leaf label is outside 0..{n_classes - 1}"),
    )
    for ok, what in checks:
        if not ok:
            raise ModelFormatError(f"tree {t}: {what}")
    return tree


# Each kind's fitted records after its scalars, in file order: (record,
# attribute, dims, (format, read)); dims are an array's (see _read_array), or
# "T" for the n_trees trees.
_ARRAY, _TREES = (_fmt_array, _read_array), (_fmt_trees, _read_trees)
_FIELDS = {
    "svm": [("X", "X_", "nd", _ARRAY), ("dual_coef", "dual_coef_", "Kn", _ARRAY), ("bias", "bias_", "1K", _ARRAY)],
    "edt": [("tree", "trees_", "T", _TREES)],
    "knn": [("X", "X_", "nd", _ARRAY), ("y_idx", "y_", "1nK", _ARRAY)],
}


def dumps_model(model):
    kind = next((kind for kind, cls in CLASSIFIERS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    model._checked()  # a model never fitted raises "not fitted yet"
    lines = [f"{_MAGIC} {_VERSION}", f"kind {kind}"]
    lines.append(f"labels {len(model.classes_)} " + " ".join(model.classes_))
    lines += [f"scalar {name} {v}" for name, v in model.get_params().items() if v != model._defaults()[name]]
    lines.append(f"scalar n_features {model.n_features_}")
    for name, attr, _, (write, _) in _FIELDS[kind]:
        lines += write(name, getattr(model, attr))
    lines.append("end")
    return "\n".join(lines) + "\n"


def loads_model(text):
    lines = _lines(rest := iter(text.splitlines()))
    header = next(lines).split()
    if header[:1] != [_MAGIC]:
        raise ModelFormatError("not a skelgest model file")
    if header[1:] != [_VERSION]:
        raise ModelFormatError(f"unsupported model version {header[1:]}")
    kind = _expect(lines, "kind", 2)[1]
    if kind not in CLASSIFIERS:
        raise ModelFormatError(f"unknown model kind {kind!r}")
    labels = _expect(lines, "labels")
    classes = labels[2:]
    n_labels = _parse(labels[1], int, "label count") if len(labels) > 1 else None
    if n_labels != len(classes) or not classes:
        raise ModelFormatError(f"labels record lists {len(classes)} labels, declared {n_labels}")
    if len(set(classes)) != n_labels:
        raise ModelFormatError(f"labels record repeats a label: {' '.join(classes)}")
    try:
        check_labels(classes, n_labels)
    except ValueError as exc:
        raise ModelFormatError(f"bad labels record: {exc}") from None

    cls, params = CLASSIFIERS[kind], {}
    while (fields := _expect(lines, "scalar", 3))[1] != "n_features":
        if (name := fields[1]) not in cls._defaults().keys() - params.keys():
            raise ModelFormatError(f"{'repeated' if name in params else 'unknown'} {kind} parameter {name!r}")
        params[name] = _parse(fields[2], type(cls._defaults()[name]), f"scalar {name!r}")
    if (n_features := _parse(fields[2], int, "scalar 'n_features'")) < 1:
        raise ModelFormatError(f"n_features must be at least 1, got {n_features}")
    model = cls(**params)
    model.classes_, model.n_features_ = classes, n_features
    sizes = {"1": 1, "K": n_labels, "d": n_features, "T": getattr(model, "n_trees", None)}
    for name, attr, dims, (_, read) in _FIELDS[kind]:
        setattr(model, attr, read(lines, name, dims, sizes))
    try:
        model._check_params(sizes.get("n"))  # an edt file stores no training rows
    except (ValueError, ComputationError) as exc:
        raise ModelFormatError(f"bad model parameter: {exc}") from None

    # rest is read directly, since lines raises at the end of the file
    if next(lines).strip() != "end" or any(line.strip() for line in rest):
        raise ModelFormatError("missing end sentinel as the last non-blank line")
    return model


def save_model(model, path):
    text = dumps_model(model)  # before opening, so a model it cannot write leaves path as it was
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_model(path):
    try:
        text = read_ascii(path)
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file: {exc}") from None
    return loads_model(text)
