"""The package namespace: every exported name resolves, and no two names are
aliases of one object."""

import gkf


def test_exported_names_resolve():
    for name in gkf.__all__:
        assert getattr(gkf, name) is not None, name


def test_no_aliases():
    owners = {}
    for name in gkf.__all__:
        owners.setdefault(id(getattr(gkf, name)), []).append(name)
    assert [names for names in owners.values() if len(names) > 1] == []
