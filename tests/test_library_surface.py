"""Every module-level definition in ``src/qdhahn`` is run by the library,
the ``qdh`` CLI or the benchmark under ``qdhbench/``.

A definition that only tests call belongs beside its tests (as the
paper's side identities in ``paper_identities.py`` do).  The test reads
the sources as they are: starting from ``qdhahn.__all__``, the console
scripts, the click commands, each module's top-level statements and
every name ``qdhbench/*.py`` mentions, it follows the names each reached
definition mentions, and no definition may be left unreached.

The series truncation policy has one carrier, ``qseries.truncation``:
only the kernels' internals in ``qseries`` take it as a parameter.

Two guards keep a fresh interpreter from building what it does not run:
a family declares its parameters once, in ``param_names`` (no dataclass
decorator or annotated fields generates code from a second list), and
the CLI imports the check suite only inside the command that runs it.
"""

import ast
import os
import re
import subprocess
import sys

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


PUBLIC_KERNELS = {"phi", "phi01", "phi11", "phi21", "phi22_balanced", "phi32",
                  "phi_r0_terminating", "transform_check"}


def policy_takers(src_trees):
    """(module, name) of each function or lambda of ``src_trees`` with a
    parameter named ``policy``."""
    found = []
    for module, tree in src_trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                if "policy" in [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]:
                    found.append((module, getattr(node, "name", "<lambda>")))
    return found


def test_only_the_series_kernels_internals_take_a_policy():
    takers = policy_takers(_parse_dir(SRC))
    assert {module for module, _ in takers} == {"qseries.py"}
    assert not PUBLIC_KERNELS & {name for _, name in takers}
    trees = _parse_dir(SRC)
    trees["limits.py"].body.extend(ast.parse("f = lambda z, policy: z").body)
    assert ("limits.py", "<lambda>") in policy_takers(trees)


def family_records(src_trees):
    """(module, class node) of each class of ``src_trees`` deriving from
    ``Family`` (by base name, through any depth), ``Family`` included."""
    classes = [(module, node) for module, tree in src_trees.items()
               for node in tree.body if isinstance(node, ast.ClassDef)]
    names, grown = {"Family"}, True
    while grown:
        bases = {node.name for _, node in classes if _mentions(ast.Tuple(node.bases)) & names}
        grown = not bases <= names
        names |= bases
    return [(module, node) for module, node in classes if node.name in names]


def doubly_declared_families(src_trees):
    """Families whose parameters are declared outside ``param_names``: by
    a dataclass decorator or by annotated class-level fields."""
    return sorted(f"{module}:{node.name}" for module, node in family_records(src_trees)
                  if any("dataclass" in _mentions(d) for d in node.decorator_list)
                  or any(isinstance(stmt, ast.AnnAssign) for stmt in node.body))


def test_a_family_declares_its_parameters_once():
    trees = _parse_dir(SRC)
    assert len(family_records(trees)) == 14  # Family, CutFamily and the twelve families
    assert doubly_declared_families(trees) == []
    trees["limits.py"].body.extend(ast.parse(
        "@dataclass(frozen=True)\nclass Kept(CutFamily):\n    param_names = ('A',)\n\n"
        "class Annotated(Kept):\n    A: complex\n").body)
    assert doubly_declared_families(trees) == ["limits.py:Annotated", "limits.py:Kept"]


def imports_on_import(tree):
    """The module and names each import statement outside a function
    body imports, as dotted parts: what importing the module loads."""
    parts, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            parts.update(*(alias.name.split(".") for alias in node.names))
        elif isinstance(node, ast.ImportFrom):
            parts.update((node.module or "").split("."), (alias.name for alias in node.names))
        todo.extend(ast.iter_child_nodes(node))
    return parts


def test_the_cli_imports_the_check_suite_only_to_run_it():
    tree = ast.parse(_read(os.path.join(SRC, "cli.py")))
    assert "verify" not in imports_on_import(tree)
    assert "verify" in imports_on_import(ast.parse("if True:\n    from . import verify\n"))
    assert "verify" in imports_on_import(ast.parse("import qdhahn.verify as checks\n"))
    assert "verify" not in imports_on_import(ast.parse("def f():\n    from . import verify\n"))
    # in a fresh interpreter too, through whatever the CLI imports
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, qdhahn.cli; print('qdhahn.verify' in sys.modules)"],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.path.dirname(SRC)}).stdout
    assert loaded == "False\n"
