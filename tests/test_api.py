"""The package's public names."""

import inspect

import triarb


def test_all_lists_resolvable_non_module_names():
    assert len(set(triarb.__all__)) == len(triarb.__all__)
    for name in triarb.__all__:
        assert not inspect.ismodule(getattr(triarb, name)), name


def test_star_import_brings_no_submodule():
    namespace: dict = {}
    exec("from triarb import *", namespace)
    assert not [n for n, v in namespace.items() if inspect.ismodule(v)]
    assert "ComparisonReport" not in namespace
