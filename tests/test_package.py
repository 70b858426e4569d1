import mvcodec


def test_every_export_resolves():
    assert [name for name in mvcodec.__all__ if not hasattr(mvcodec, name)] == []
