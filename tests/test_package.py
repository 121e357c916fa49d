import ast
import collections
import pathlib
import subprocess
import sys

import pytest

import roughtv
from roughtv import errors


def test_public_names_resolve_and_appear_once():
    repeated = [name for name, n in collections.Counter(roughtv.__all__).items() if n > 1]
    missing = [name for name in roughtv.__all__ if not hasattr(roughtv, name)]
    assert (repeated, missing) == ([], [])


def test_star_import_and_dir_give_every_public_name():
    namespace = {}
    exec("from roughtv import *", namespace)
    assert [name for name in roughtv.__all__ if name not in namespace] == []
    assert [name for name in roughtv.__all__ if name not in dir(roughtv)] == []
    assert namespace["tv_profile"] is roughtv.truncation.tv_profile


def test_submodules_resolve_after_a_plain_import():
    script = ("import sys\n"
              f"sys.path.insert(0, {str(pathlib.Path(roughtv.__file__).parents[1])!r})\n"
              "import roughtv\n"
              "print(*sorted(m for m in sys.modules if m.startswith('roughtv')))\n"
              "print(roughtv.oracle.__name__, roughtv.Mode.__module__)\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True)
    assert run.stdout.splitlines() == ["roughtv", "roughtv.oracle roughtv.paths"]
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        roughtv.nope


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_class_is_raised_somewhere():
    # an error class that no module calls is dead code left behind
    called = set()
    for source in pathlib.Path(roughtv.__file__).parent.glob("*.py"):
        if source.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    classes = {cls.__name__ for cls in _subclasses(errors.RoughTVError)
               if cls.__module__ == errors.__name__}
    assert sorted(classes - called) == []


def test_the_package_reads_no_environment():
    # every setting is a flag or an argument: no module reads os.environ
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for source in sorted(pathlib.Path(roughtv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in names:
                found.append(f"{source.name}:{node.lineno}: {name}")
    assert found == []
