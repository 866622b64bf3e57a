"""Counting equivalence classes of S_n under two-sided shifts by a full cycle.

Two permutations alpha and beta of {1..n} are equivalent when some powers of
a fixed full cycle sigma connect them, sigma^k * alpha == beta * sigma^l.
This package computes the number of such classes exactly for any n, builds
the divisor graph for export and verification, solves and enumerates the
underlying equations constructively, and cross-checks everything for small n
with a brute-force pass over the whole group.

Every name in a library module's __all__ is importable from here. The
modules load on first use, so importing the package alone loads none of
them, and a CLI command loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# The brute-force oracle's defaults live here, where the CLI's verify
# options read them without loading the oracle; cycleq.oracle exports both.
DEFAULT_BOUND = 8
DEFAULT_SEED = 1729

_MODULES = ("class_graph", "counting", "equation_solver", "oracle",
            "permutation", "zn_ring")


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name == "__all__":
        value = [n for m in _MODULES for n in __getattr__(m).__all__]
    else:
        for m in _MODULES:
            module = __getattr__(m)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, "__all__", *__getattr__("__all__")})
