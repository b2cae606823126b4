import djcsim


def test_all_lists_each_public_name_once_and_every_name_resolves():
    assert len(djcsim.__all__) == len(set(djcsim.__all__))
    missing = [name for name in djcsim.__all__ if not hasattr(djcsim, name)]
    assert missing == []


def test_star_import_works_in_a_fresh_namespace():
    namespace = {}
    exec("from djcsim import *", namespace)
    assert set(djcsim.__all__) <= set(namespace)
