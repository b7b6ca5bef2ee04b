import claes


def test_every_exported_name_resolves():
    namespace = {}
    exec("from claes import *", namespace)
    assert set(claes.__all__) <= namespace.keys()
