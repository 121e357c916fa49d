import ast
import collections
import pathlib

import roughtv
from roughtv import errors


def test_public_names_resolve_and_appear_once():
    repeated = [name for name, n in collections.Counter(roughtv.__all__).items() if n > 1]
    missing = [name for name in roughtv.__all__ if not hasattr(roughtv, name)]
    assert (repeated, missing) == ([], [])


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
