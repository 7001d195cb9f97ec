import importlib
import pkgutil

import curvlab


def test_every_exported_name_resolves():
    modules = [curvlab] + [importlib.import_module(info.name)
                           for info in pkgutil.walk_packages(curvlab.__path__, "curvlab.")]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert len(modules) > 10
    assert missing == []
