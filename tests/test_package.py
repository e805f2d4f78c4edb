"""The public names of the package."""

import braidmoves


def test_every_public_name_resolves():
    assert len(set(braidmoves.__all__)) == len(braidmoves.__all__)
    for name in braidmoves.__all__:
        assert getattr(braidmoves, name) is not None, name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from braidmoves import *", namespace)
    assert set(braidmoves.__all__) <= set(namespace)
