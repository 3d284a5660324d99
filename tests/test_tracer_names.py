"""`benchmark/tracing.py` finds every traced function by its module and
name, and `Tracer.install` raises AttributeError on one that is gone.  A
rename or a deletion in the package fails here, in the tests, not in a
`run.py --trace 1` run."""

import importlib.util
from pathlib import Path

import aspanel
import aspanel.cli  # noqa: F401  (the tracer patches the CLI, which the package does not import)


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"
    spec = importlib.util.spec_from_file_location("aspanel_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(mod_name: str, attr: str):
    """The traced object as a caller reaches it; a class attribute is read
    from the class's own namespace, so a classmethod stays a classmethod."""
    owner = getattr(aspanel, mod_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        raw = vars(getattr(owner, cls_name))[meth]
        return getattr(raw, "__func__", raw)
    return getattr(owner, attr)


def test_tracer_installs_on_the_package_and_uninstalls():
    tracing = load_tracing()
    before = {name: resolve(mod, attr) for name, mod, attr in tracing.TRACED}
    tracer = tracing.Tracer()
    try:
        tracer.install(aspanel)
        for name, mod, attr in tracing.TRACED:
            traced = resolve(mod, attr)
            assert traced is not before[name], name
            assert traced.__wrapped__ is before[name], name
    finally:
        tracer.uninstall()
    for name, mod, attr in tracing.TRACED:
        assert resolve(mod, attr) is before[name], name
