"""Nothing public in `src/braidkit` may be unreachable.

An `ast` scan lists every public module-level function and class of the
package, and every public method of those classes, and fails on those that
no name, attribute or import in the package refers to, that
`braidkit.__all__` does not export, and that the benchmark's tracer
(`perfbench/tracing.py`) does not name.  Code that only the tests use
belongs in `tests/oracles.py`.  Nor may a module-level name be a second
name for a public function or class: one concept, one name.  And every
option and argument in the command table of `cli.py` is read in its
command's body: an option that nothing reads is input the command silently
drops."""

import ast
import inspect
import os
import textwrap

import braidkit
from braidkit.cli import COMMANDS
from cli_runner import commands

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "braidkit")
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def _parse(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), path)


def _references(tree, strings: bool = False) -> set:
    """Names a module reads, takes as attributes or imports, and with
    `strings` also its string constants (the tracer names its presentation
    builders as strings)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(a.name.split(".")[-1] for a in node.names)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out.add(node.value)
    return out


def _definitions(module: str, tree):
    """(dotted name, node) of each module-level function and class, and of
    each method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield "%s.%s" % (module, node.name), node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield "%s.%s.%s" % (module, node.name, item.name), item


def _modules() -> dict:
    return {f[:-3]: _parse(os.path.join(PACKAGE, f))
            for f in sorted(os.listdir(PACKAGE)) if f.endswith(".py")}


def unreferenced_public_definitions() -> list:
    """module.name of each public module-level function or class of the
    package, and module.class.name of each public method, that nothing
    refers to."""
    modules = _modules()
    used = set(braidkit.__all__) | _references(_parse(TRACING), strings=True)
    for tree in modules.values():
        used |= _references(tree)
    return [name for module, tree in modules.items()
            for name, node in _definitions(module, tree)
            if not node.name.startswith("_")
            and node.name not in used]


def aliases_of_public_definitions() -> list:
    """module.name of each module-level name bound by plain assignment to a
    public module-level function or class of the package, as in
    `alias = function` or `alias = module.function`."""
    modules = _modules()
    public = {node.name for tree in modules.values() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    out = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            bound = (value.id if isinstance(value, ast.Name) else
                     value.attr if isinstance(value, ast.Attribute) else None)
            if bound in public:
                out.extend("%s.%s" % (module, ast.unparse(t)) for t in node.targets)
    return out


def unread_cli_parameters() -> list:
    """function.parameter of each option or argument in the command table
    of `cli.py` whose command function does not read it in its body."""
    out = []
    for _path, function, options in commands(COMMANDS):
        node, = ast.parse(textwrap.dedent(inspect.getsource(function))).body
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out.extend("%s.%s" % (function.__name__, o.dest) for o in options
                   if o.dest not in read)
    return out


def test_every_public_definition_has_a_caller():
    assert unreferenced_public_definitions() == []


def test_no_module_level_alias_of_a_public_definition():
    assert aliases_of_public_definitions() == []


def test_every_cli_option_is_read():
    assert unread_cli_parameters() == []
