"""Each module's ``__all__`` is its public list, and the packages re-export
exactly those names: no list is written twice."""

import pytest

import admlab
from admlab import admissibility, decision, game, graybill_deal, hyperreal, simplex
from admlab.graybill_deal import mc, model

PACKAGES = {
    "admlab": (admlab, (hyperreal, simplex, decision, admissibility, game), ["__version__"]),
    "graybill_deal": (graybill_deal, (mc, model), []),
}


@pytest.mark.parametrize("name", PACKAGES)
def test_package_all_is_its_modules_all(name):
    package, modules, extra = PACKAGES[name]
    assert package.__all__ == [n for m in modules for n in m.__all__] + extra
    assert len(set(package.__all__)) == len(package.__all__)
    for m in modules:
        for n in m.__all__:
            assert not n.startswith("_"), (m.__name__, n)
            assert getattr(package, n) is getattr(m, n), (m.__name__, n)


def test_star_import_of_hyperreal_binds_its_formatters():
    ns = {}
    exec("from admlab.hyperreal import *", ns)
    assert ns["format_lc"] is hyperreal.format_lc
    assert ns["parse_lc"] is hyperreal.parse_lc
