"""Every option of every `expanderlab` subcommand is read by the code that
runs it, and the only options before the subcommand are `--seed` and `--out`.

An option counts as read when the subcommand's `_cmd_*` function, or a
function of cli.py that it hands `args` to, mentions `args.<dest>`. An
option that no code reads changes nothing, yet argparse accepts it and
the manifest records its value as if it had been used.
"""

import argparse
import ast
import inspect

from expanderlab import cli


def _functions() -> dict:
    tree = ast.parse(inspect.getsource(cli))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _reads(name: str, functions: dict) -> set:
    """The attributes of `args` that the function `name` of cli.py reads,
    itself or through the functions of cli.py it passes `args` to."""
    reads = set()
    for node in ast.walk(functions[name]):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in functions
              and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
            reads |= _reads(node.func.id, functions)
    return reads


def _options(parser: argparse.ArgumentParser) -> list:
    return [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def test_every_subcommand_option_is_read():
    functions = _functions()
    (subcommands,) = cli.build_parser()._subparsers._group_actions
    unread = {}
    for command, parser in subcommands.choices.items():
        reads = _reads(parser.get_default("func").__name__, functions)
        dests = {a.dest for a in _options(parser)} - reads
        if dests:
            unread[command] = sorted(dests)
    assert not unread, f"options that no code reads: {unread}"


def test_only_seed_and_out_are_global():
    flags = [flag for a in _options(cli.build_parser()) for flag in a.option_strings]
    assert sorted(flags) == ["--out", "--seed"]
