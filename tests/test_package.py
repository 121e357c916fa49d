import collections

import roughtv


def test_public_names_resolve_and_appear_once():
    repeated = [name for name, n in collections.Counter(roughtv.__all__).items() if n > 1]
    missing = [name for name in roughtv.__all__ if not hasattr(roughtv, name)]
    assert (repeated, missing) == ([], [])
