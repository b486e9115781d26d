"""Every option of every `expanderlab` parser is read by the code that
runs it, and the only option before the subcommand is `--out`.

An option counts as read when the `_cmd_*` function of its leaf parser
(a subcommand, or a mode or kind under one), or a function of cli.py
that it hands `args` to, mentions `args.<dest>`. An option that no code
reads changes nothing, yet argparse accepts it and the manifest records
its value as if it had been used.
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


def _leaves(parser: argparse.ArgumentParser, path: str = ""):
    """(command path, parser) of each parser under `parser` that runs a
    command; a parser with sub-parsers takes no option of its own."""
    (choices,) = parser._subparsers._group_actions
    for name, child in choices.choices.items():
        if child._subparsers is None:
            yield f"{path}{name}", child
        else:
            assert _options(child) == list(child._subparsers._group_actions), name
            yield from _leaves(child, f"{path}{name} ")


def test_every_subcommand_option_is_read():
    functions = _functions()
    unread = {}
    leaves = dict(_leaves(cli.build_parser()))
    for command, parser in leaves.items():
        reads = _reads(parser.get_default("func").__name__, functions)
        dests = {a.dest for a in _options(parser)} - reads
        if dests:
            unread[command] = sorted(dests)
    assert not unread, f"options that no code reads: {unread}"
    assert {"gen petersen", "match perfect", "submatrix symmetric_uniform"} <= set(leaves)


def test_only_out_is_global():
    flags = [flag for a in _options(cli.build_parser()) for flag in a.option_strings]
    assert flags == ["--out"]
