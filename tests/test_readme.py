"""README's command lines parse, and every package name it cites imports."""

import builtins
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import skelgest
from skelgest import cli

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = {"skelgest": skelgest, **{name.rsplit(".", 1)[-1]: importlib.import_module(name)
                                    for _, name, _ in pkgutil.walk_packages(skelgest.__path__, "skelgest.")}}
NAMES = {**vars(builtins), **{k: v for m in MODULES.values() for k, v in vars(m).items()}}
MEMBERS = {k for v in NAMES.values() if inspect.isclass(v) and v.__module__.startswith("skelgest") for k in dir(v)}


def test_every_command_line_parses():
    lines = [line.strip() for block in re.findall(r"```sh\n(.*?)```", README, re.S)
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line) for line in lines if line.startswith("skelgest ")]
    assert commands
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])


def test_every_cited_package_name_resolves():
    # a cited name: `module.name` (a package module first), `_private` or `CamelCase`,
    # up to the first "(" of a call; `np.sort`, `fit` or `SKELGEST_SEED` cite nothing here
    spans = [span.split("(")[0] for span in re.findall(r"`([^`\n]+)`", README)]
    paths = [s.split(".") for s in spans if re.fullmatch(r"[A-Za-z_]\w*(\.\w+)*", s)]
    cited = [p for p in paths if p[0] in MODULES or re.match(r"_|[A-Z][a-z]", p[0])]
    assert len(cited) > 50
    for head, *rest in cited:
        at = MODULES.get(head, NAMES.get(head))
        assert at is not None or (not rest and head in MEMBERS), head
        for part in rest:
            assert hasattr(at, part) or part in getattr(at, "__dataclass_fields__", {}), (head, *rest)
            at = getattr(at, part, None)
