import cycleq
from cycleq import class_graph, counting, equation_solver, oracle, permutation, zn_ring

MODULES = (class_graph, counting, equation_solver, oracle, permutation, zn_ring)


def test_package_exports_every_module_name_once():
    assert len(cycleq.__all__) == len(set(cycleq.__all__))
    assert set(cycleq.__all__) == {name for m in MODULES for name in m.__all__}
    assert "to_decimal" in cycleq.__all__


def test_package_names_are_the_module_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(cycleq, name) is getattr(module, name), (module, name)
