"""Object-contextual context aggregation for semantic segmentation at desk
scale: a small autodiff tensor engine, context modules and baselines, an
attention-form equivalence checker, ground-truth supervision oracles, a
complexity profiler, and a reproducible synthetic-task harness."""

__version__ = "0.1.0"

_SUBMODULES = ("tensor", "blocks", "context", "attention", "supervision",
               "flopcount", "models", "profiler", "data", "config", "train",
               "cli", "errors", "checks")


def __getattr__(name):
    # Lazy submodule access keeps `import ocrseg` light; the CLI relies on
    # this to pin BLAS thread env vars before numpy loads.
    if name in _SUBMODULES:
        import importlib
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
