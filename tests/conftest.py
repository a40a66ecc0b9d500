"""Fixtures shared by the test modules."""

import pytest

from voxelmatch import volume


@pytest.fixture(params=[None, 1, 5000], ids=["default-slabs", "one-plane-slabs", "few-plane-slabs"])
def slab_voxels(request, monkeypatch):
    """Runs a test at the default z-slab bound, then with slabs of one z plane,
    then of a few planes, so even small grids span many slabs."""
    if request.param is not None:
        monkeypatch.setattr(volume, "_SLAB_VOXELS", request.param)
    return request.param
