import paleyfq


def test_every_exported_name_resolves():
    # a name left in __all__ after its object was removed fails here, not
    # at a user's `from paleyfq import *`
    missing = [name for name in paleyfq.__all__ if getattr(paleyfq, name, None) is None]
    assert missing == []
    assert len(set(paleyfq.__all__)) == len(paleyfq.__all__)
