"""The package's export list matches what it binds."""

import types

import fedgs_sim


def test_every_name_in_all_resolves():
    assert len(set(fedgs_sim.__all__)) == len(fedgs_sim.__all__)
    missing = [name for name in fedgs_sim.__all__ if not hasattr(fedgs_sim, name)]
    assert missing == []


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from fedgs_sim import *", namespace)
    assert set(fedgs_sim.__all__) <= namespace.keys()


def test_every_public_binding_is_exported():
    # submodules such as fedgs_sim.fl are bound by importing them, not exported
    public = {
        name
        for name, value in vars(fedgs_sim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(fedgs_sim.__all__)
