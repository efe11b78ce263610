"""Every annotation in the package names something its module can resolve."""
import importlib
import inspect
import pkgutil
import typing

import stringydet


def annotated_callables():
    """(qualified name, function) for every function and method the package defines."""
    for info in pkgutil.iter_modules(stringydet.__path__):
        module = importlib.import_module(f"stringydet.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member
            elif callable(obj):
                obj = inspect.unwrap(obj)
                if inspect.isfunction(obj):
                    yield f"{module.__name__}.{name}", obj


def test_every_annotation_resolves():
    names, unresolved = [], []
    for name, fn in annotated_callables():
        names.append(name)
        try:
            typing.get_type_hints(fn)
        except NameError as exc:
            unresolved.append((name, str(exc)))
    assert "stringydet.stringy.non_negative" in names
    assert "stringydet.exactalg.LaurentPoly.terms" in names  # a property
    assert unresolved == []
