import types

import sa_adapt


def test_every_export_resolves():
    missing = [name for name in sa_adapt.__all__ if not hasattr(sa_adapt, name)]
    assert missing == []


def test_exports_are_sorted_and_unique():
    assert sa_adapt.__all__ == sorted(set(sa_adapt.__all__))


def test_exports_are_the_public_names_the_package_binds():
    bound = {
        name
        for name, value in vars(sa_adapt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(sa_adapt.__all__) == bound
