import nu_analyzer


def test_public_names_resolve_once():
    names = nu_analyzer.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(nu_analyzer, name), name
