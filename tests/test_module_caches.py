"""No quasilines module keeps a memo at module level: computed values live
on the objects that use them, such as the kernels a ``Fan`` keeps."""

import functools
import importlib
import pkgutil

import quasilines


def is_cache_wrapper(obj):
    # What functools.lru_cache and functools.cache return.
    return callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")


def module_level_objects(module):
    """Each module attribute, and each attribute of a class the module
    defines, as (qualified name, object)."""
    for name, value in vars(module).items():
        yield f"{module.__name__}.{name}", value
        if isinstance(value, type) and value.__module__ == module.__name__:
            for attr, member in vars(value).items():
                yield f"{module.__name__}.{name}.{attr}", member


def test_predicate_recognises_functools_caches():
    assert is_cache_wrapper(functools.lru_cache(maxsize=4)(abs))
    assert is_cache_wrapper(functools.cache(abs))
    assert not is_cache_wrapper(abs)
    assert not is_cache_wrapper(functools.partial(abs))


def test_no_module_level_cache():
    modules = [quasilines] + [
        importlib.import_module(f"quasilines.{info.name}")
        for info in pkgutil.iter_modules(quasilines.__path__)
    ]
    assert quasilines.fans in modules
    cached = [
        name for module in modules
        for name, obj in module_level_objects(module) if is_cache_wrapper(obj)
    ]
    assert cached == []
