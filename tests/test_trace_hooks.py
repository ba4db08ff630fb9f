"""The names that the benchmark's tracer wraps must stay where it looks.

perfbench/tracer.py times a run by replacing module attributes, such as
steepsim.cli.run_ensemble, with wrappers. A refactor that removes one of
those attributes, or that makes a subcommand call past the name the tracer
replaces, breaks the traced benchmark run; these tests name the break.
They also keep the imports that only the tracer needs marked and exact,
and keep such an import from holding code in the package that nothing else
runs.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import steepsim.cli as cli
from steepsim.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(cli.__file__).parent
TRACER_ONLY_MARK = "# noqa: F401"


def _load_wrapped() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


WRAPPED = _load_wrapped()
CLI_HOOKS = [attr for module, attr, _ in WRAPPED if module == "steepsim.cli"]


@pytest.mark.parametrize("module, attr, span", WRAPPED)
def test_wrapped_attribute_is_callable(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr)), span


@pytest.mark.parametrize(
    "argv, reached",
    [
        (["ensemble", "--trials", "20"], {"run_ensemble", "write_outputs"}),
        (["single"], {"sample_realization"}),
        (["verify", "--m", "1000"], {"sample_realization", "variance_report"}),
    ],
)
def test_subcommands_call_through_cli_globals(argv, reached, tmp_path, monkeypatch, capsys):
    calls = []

    def spy(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return call

    for name in CLI_HOOKS:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    path = tmp_path / "run.cfg"
    path.write_text("n_A = 4\nn_E = 6\nP_A_dB = 20\nP_B_dB = 30\n")
    extra = ["--out", str(tmp_path / "out")] if argv[0] == "ensemble" else []
    assert main(argv[:1] + ["--config", str(path)] + argv[1:] + extra) == 0
    capsys.readouterr()
    assert reached | {"load_config_file", "parse_settings"} <= set(calls)


def _from_imports(path: Path) -> tuple[ast.Module, list]:
    """The module at path, parsed, and its from-imports other than
    __future__'s as (node, names bound, whether marked TRACER_ONLY_MARK)."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imports = [
        (
            node,
            {alias.asname or alias.name for alias in node.names},
            TRACER_ONLY_MARK in "\n".join(lines[node.lineno - 1:node.end_lineno]),
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
    ]
    return tree, imports


def _unused_and_marked_imports(path: Path) -> tuple[set, set]:
    """Names from-imported by the module at path that it never reads, and
    names on from-import lines marked TRACER_ONLY_MARK. A name listed in
    __all__ counts as read."""
    tree, imports = _from_imports(path)
    imported = set().union(*(names for _, names, _ in imports))
    marked = set().union(*(names for _, names, mark in imports if mark))
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return imported - read, marked


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_tracer_only_imports_are_marked_and_wrapped(path):
    # an import that the module never uses is there for the tracer alone:
    # it must carry the mark, and the tracer must wrap it in that module;
    # once the tracer stops wrapping a name, this test names the import to
    # delete
    module = f"steepsim.{path.stem}"
    unused, marked = _unused_and_marked_imports(path)
    assert unused == marked, f"{path.name}: unused {sorted(unused)}, marked {sorted(marked)}"
    wrapped = {attr for mod, attr, _ in WRAPPED if mod == module}
    assert marked <= wrapped, f"{path.name}: marked but not wrapped: {sorted(marked - wrapped)}"


def test_tracer_only_imports_keep_no_code_alive():
    # a marked import from the package itself must name code that some other
    # module of the package runs, as a name or as an attribute; code that
    # only the tracer reaches belongs out of the package, with a placeholder
    # where the tracer looks
    parsed = {path: _from_imports(path) for path in sorted(SRC.glob("*.py"))}
    loaded = {
        path: {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        }
        for path, (tree, _) in parsed.items()
    }
    kept = [
        f"{path.name}: from .{node.module or ''} import {alias.name}"
        for path, (_, imports) in parsed.items()
        for node, _, mark in imports
        if mark and node.level
        for alias in node.names
        if not any(alias.name in names for other, names in loaded.items() if other != path)
    ]
    assert not kept, f"imported for the tracer alone, run nowhere else: {kept}"
