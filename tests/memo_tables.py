"""The process-wide memo tables of refbound, found rather than listed."""

import importlib
import pkgutil

import refbound


def memo_tables():
    """Every functools.lru_cache wrapper defined in a refbound module."""
    tables = []
    for info in pkgutil.iter_modules(refbound.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"refbound.{info.name}")
        tables += [value for value in vars(module).values()
                   if hasattr(value, "cache_info") and hasattr(value, "cache_clear")
                   and value.__module__ == module.__name__]
    return tuple(tables)


def clear_memo_tables():
    for table in memo_tables():
        table.cache_clear()
