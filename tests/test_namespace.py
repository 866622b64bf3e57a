import pytest

import cycleq
from cycleq import class_graph, counting, equation_solver, oracle, permutation, zn_ring

MODULES = (class_graph, counting, equation_solver, oracle, permutation, zn_ring)


def test_package_exports_every_module_name_once():
    assert len(cycleq.__all__) == len(set(cycleq.__all__))
    assert set(cycleq.__all__) == {name for m in MODULES for name in m.__all__}
    # to_decimal was cut: every count prints with str()
    assert "to_decimal" not in cycleq.__all__
    assert not hasattr(zn_ring, "to_decimal")


def test_package_names_are_the_module_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(cycleq, name) is getattr(module, name), (module, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from cycleq import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(cycleq.__all__)
    for name, value in namespace.items():
        assert value is getattr(cycleq, name), name


def test_lazy_package_attributes():
    assert "__all__" in dir(cycleq)
    assert set(cycleq.__all__) <= set(dir(cycleq))
    assert cycleq.oracle is oracle
    with pytest.raises(AttributeError, match="no_such_name"):
        cycleq.no_such_name
