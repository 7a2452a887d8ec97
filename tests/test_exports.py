"""The public names of the package resolve."""
import lcak


def test_every_exported_name_is_an_attribute():
    assert len(set(lcak.__all__)) == len(lcak.__all__)
    assert [name for name in lcak.__all__ if not hasattr(lcak, name)] == []
