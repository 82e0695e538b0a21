import vsakit


def test_every_export_resolves():
    assert len(set(vsakit.__all__)) == len(vsakit.__all__)
    for name in vsakit.__all__:
        assert getattr(vsakit, name) is not None, name
    namespace = {}
    exec("from vsakit import *", namespace)
    assert set(vsakit.__all__) <= set(namespace)
