"""The package's lazy re-exports."""

import pacebench


def test_every_export_resolves_and_is_listed():
    listed = dir(pacebench)
    for name in pacebench.__all__:
        assert getattr(pacebench, name) is not None, name
        assert name in listed, name
