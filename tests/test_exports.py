import semrank


def test_every_exported_name_is_a_package_attribute():
    # a name dropped from its module but left in __all__ would otherwise
    # fail only a user's `from semrank import *`
    missing = [name for name in semrank.__all__ if not hasattr(semrank, name)]
    assert not missing, missing
