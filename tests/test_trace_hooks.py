"""The names that the benchmark's tracer wraps must stay where it looks.

perfbench/tracer.py times a run by replacing module attributes, such as
steepsim.cli.run_ensemble, with wrappers. A refactor that removes one of
those attributes, or that makes a subcommand call past the name the tracer
replaces, breaks the traced benchmark run; these tests name the break.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

import steepsim.cli as cli
from steepsim.cli import main

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
