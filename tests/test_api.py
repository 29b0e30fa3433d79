"""The package's public surface: every name in ``srgauss.__all__`` exists,
so deleting a function without dropping its export fails here rather than
at a user's import."""

import srgauss


def test_all_names_resolve():
    assert [name for name in srgauss.__all__ if not hasattr(srgauss, name)] == []


def test_star_import():
    namespace = {}
    exec("from srgauss import *", namespace)
    assert set(srgauss.__all__) <= set(namespace)
