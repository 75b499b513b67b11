import doublechar


def test_all_names_resolve_once():
    names = doublechar.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(doublechar, name), name
