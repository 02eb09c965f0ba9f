"""Every name a module lists in ``__all__`` exists and is the object that
``irsbeam`` exports under that name."""

import pytest

import irsbeam
from irsbeam import beamforming, config, experiments, metrics, oracle, system


@pytest.mark.parametrize("module", [system, beamforming, metrics, oracle, config, experiments],
                         ids=lambda module: module.__name__)
def test_every_listed_name_exists_and_is_exported(module):
    for name in module.__all__:
        assert getattr(irsbeam, name) is getattr(module, name), name
