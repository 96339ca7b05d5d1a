"""The traced benchmark binds its spans and counters by name.

bench/layers.py looks every TRACED and COUNTED name up in the cbswb
modules and raises AttributeError or KeyError when one is gone; this test
makes the same lookups, so a rename or deletion shows up here first.
"""

import importlib
import importlib.util
import os

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "layers.py")


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_and_counted_names_resolve():
    layers = load_layers()
    for mod, names in layers.TRACED.items():
        module = importlib.import_module("cbswb." + mod)
        for name in names:
            full = f"{mod}.{name}"
            if "." in name:
                # a method is patched through the class dictionary
                cls, meth = name.split(".")
                assert meth in vars(getattr(module, cls)), full
                continue
            obj = getattr(module, name, None)
            assert callable(obj), full
            if isinstance(obj, type):
                # a class is traced through its own __init__
                assert "__init__" in vars(obj), full
    for counter, (mod, cls, meth) in layers.COUNTED.items():
        owner = getattr(importlib.import_module("cbswb." + mod), cls, None)
        assert owner is not None and meth in vars(owner), counter
