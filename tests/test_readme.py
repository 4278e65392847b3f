"""The README's code runs as written, and the results it states hold."""

import argparse
import re
from pathlib import Path

import mcms
from mcms import solve_exact, solve_greedy, write_csv
from mcms.cli import _build_parser, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, re.S)


def test_python_blocks_run_and_state_true_results(tmp_path, capsys):
    # the blocks run in order in one namespace, as in one session
    namespace = {}
    blocks = _blocks("python")
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].endswith(" unserved with coordination")
    assert printed[1].endswith(" unserved without")
    inst = namespace["inst"]
    assert solve_greedy(inst).objective == 6
    assert solve_exact(inst).objective == 7
    # The sweep block prints the CSV's means, one line per swept value.
    result = namespace["result"]
    path = tmp_path / "sweep.csv"
    write_csv(result, path)
    rows = [row.split(",") for row in path.read_text().splitlines()[1:]]
    assert printed[2:] == [
        f"users={value}: SC={float(sc):.2f} MC={float(mc):.2f} unserved"
        for value, sc, mc in rows]


def test_instance_document_solves_as_stated(tmp_path, capsys):
    (doc,) = _blocks("json")
    path = tmp_path / "instance.json"
    path.write_text(doc)
    assert main(["solve", str(path)]) == 0
    assert "greedy=6 alloc=1,0" in capsys.readouterr().out.splitlines()


def test_every_exported_name_resolves():
    namespace = {}
    exec("from mcms import *", namespace)  # AttributeError on a stale name
    assert set(mcms.__all__) <= set(namespace)


def test_cli_section_names_only_live_flags():
    # A flag that a command no longer has cannot stay in the README.
    section = README.split("\n## CLI\n")[1].split("\n## ")[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    (commands,) = [action for action in _build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    flags = {flag for parser in commands.choices.values()
             for action in parser._actions for flag in action.option_strings}
    assert "--out" in named
    assert named <= flags, sorted(named - flags)
