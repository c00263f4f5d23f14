"""Checks that keep perfbench's tracer, the README's example and the test
modules' imports in step with the package."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    """perfbench/tracing.py, loaded by path: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracedNames:
    """The tracer skips a name it cannot find: its metrics would read 0, with no error."""

    def test_every_traced_function_resolves(self):
        tracing = load_tracing()
        assert tracing.TRACED_FUNCTIONS
        missing = [(module_name, attr) for module_name, attr in tracing.TRACED_FUNCTIONS
                   if not callable(getattr(importlib.import_module(module_name), attr,
                                           None))]
        assert missing == []

    def test_every_traced_method_resolves(self):
        tracing = load_tracing()
        assert tracing.TRACED_METHODS
        missing = []
        for module_name, cls_name, attr in tracing.TRACED_METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            if cls is None or not callable(vars(cls).get(attr)):
                missing.append((module_name, cls_name, attr))
        assert missing == []


def test_readme_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    terminated_by, objective = capsys.readouterr().out.split()
    assert terminated_by.startswith("Termination.")
    assert float(objective) > 0


def test_test_modules_import_only_from_conftest():
    """Helpers that tests share live in conftest; a test module imports no other."""
    modules = {path.stem: path for path in (ROOT / "tests").glob("test_*.py")}
    found = []
    for name, path in sorted(modules.items()):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                imported = [node.module]
            elif isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            else:
                continue
            found += [(name, module) for module in imported if module in modules]
    assert found == []


def test_test_modules_define_no_conftest_name():
    """A test module's own top-level definition would shadow the conftest helper
    of that name in it, and readers would take one builder for the other."""
    def defined(path):
        names = set()
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(n.id for t in targets for n in ast.walk(t)
                             if isinstance(n, ast.Name))
        return names

    shared = defined(ROOT / "tests" / "conftest.py")
    found = [(path.stem, name) for path in sorted((ROOT / "tests").glob("test_*.py"))
             for name in sorted(defined(path) & shared)]
    assert found == []
