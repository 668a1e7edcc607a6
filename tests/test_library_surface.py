"""Every module-level definition in ``src/qdhahn`` is run by the library,
the ``qdh`` CLI or the benchmark under ``qdhbench/``.

A definition that only tests call belongs beside its tests (as the
paper's side identities in ``paper_identities.py`` do).  The test reads
the sources as they are: starting from ``qdhahn.__all__``, the console
scripts, the click commands, each module's top-level statements and
every name ``qdhbench/*.py`` mentions, it follows the names each reached
definition mentions, and no definition may be left unreached.
"""

import ast
import os
import re

import qdhahn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "qdhahn")
BENCH = os.path.join(ROOT, "qdhbench")


def _read(path):
    with open(path) as source:
        return source.read()


def _parse_dir(path):
    return {name: ast.parse(_read(os.path.join(path, name)))
            for name in sorted(os.listdir(path)) if name.endswith(".py")}


def _mentions(node):
    """Names a node mentions: identifiers, attributes and identifier
    strings (the benchmark's tracer rebinds functions by name).  An
    import alone mentions nothing, so an unused import reaches nothing."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            names.add(sub.value)
    return names


def _is_click_command(node):
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def unreached_definitions(src_trees, bench_trees, roots):
    """``module:name`` of each top-level def or class of ``src_trees``
    that no root reaches through the names reached definitions mention."""
    definitions = {}  # name -> [(module, node)]
    renamed = {}  # "import name as alias": alias -> {name}
    reached = set(roots)
    for tree in bench_trees.values():
        reached |= _mentions(tree)
    for module, tree in src_trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append((module, node))
                if _is_click_command(node):
                    reached.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.asname:
                        renamed.setdefault(alias.asname, set()).add(alias.name)
            else:
                reached |= _mentions(node)
    todo = list(reached)
    while todo:
        name = todo.pop()
        new = renamed.get(name, set()).union(
            *(_mentions(node) for _, node in definitions.get(name, ()))) - reached
        reached |= new
        todo.extend(new)
    return sorted(f"{module}:{name}" for name, defs in definitions.items()
                  if name not in reached for module, _ in defs)


def _roots():
    # the console scripts' functions, such as qdh = "qdhahn.cli:run"
    scripts = re.findall(r'"qdhahn\.\w+:(\w+)"', _read(os.path.join(ROOT, "pyproject.toml")))
    assert scripts
    return set(qdhahn.__all__) | set(scripts)


def test_every_library_definition_is_run_outside_the_tests():
    assert unreached_definitions(_parse_dir(SRC), _parse_dir(BENCH), _roots()) == []


def test_a_definition_only_tests_call_is_found():
    trees = _parse_dir(SRC)
    # a test-only function and the helper only it calls
    trees["limits.py"].body.extend(ast.parse(
        "def paper_only(x):\n    return _helper(x)\n\n"
        "def _helper(x):\n    return x\n").body)
    assert unreached_definitions(trees, _parse_dir(BENCH), _roots()) == [
        "limits.py:_helper", "limits.py:paper_only"]
