import numpy as np
import pytest

from irsbeam import ChannelRealization, SystemParams


def make_params(n_elements=2, p_s=1.0, p_i=1.0, sigma_i_sq=0.1, sigma_u_sq=0.1,
                **overrides):
    """Synthetic parameter set with trivial geometry, for formula tests."""
    base = dict(
        n_elements=n_elements,
        p_s=p_s,
        p_i=p_i,
        sigma_i_sq=sigma_i_sq,
        sigma_u_sq=sigma_u_sq,
        pos_bs=(0.0, 0.0),
        pos_irs=(1.0, 1.0),
        pos_user=(2.0, 0.0),
        alpha_bi=2.0,
        alpha_iu=2.0,
        alpha_bu=2.0,
    )
    base.update(overrides)
    return SystemParams(**base)


def random_channel(rng, n, scale_g=1.0, scale_f=1.0, scale_h=1.0):
    g = scale_g * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    f = scale_f * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    h = scale_h * complex(rng.standard_normal() + 1j * rng.standard_normal())
    return ChannelRealization(g=g, f=f, h=h)


def rows_of(table):
    """The rows of an ``experiments.Table`` as tuples, block by block."""
    return [lead + values for lead, columns in table.blocks
            for values in (zip(*columns) if columns else [()])]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
