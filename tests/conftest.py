import pytest
from hypothesis import settings

from diophlab.arith import build_arith_table
from diophlab.counting import ApproxConfig
from diophlab.fixedreal import CVector, constant

# Every property test is deterministic: fixed example streams, no example
# database, no per-example deadline.  Tests set only max_examples.
settings.register_profile("tier1", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def table_small():
    return build_arith_table(100_000)


@pytest.fixture(scope="session")
def table_big():
    # covers B * 2**20 for the golden-ratio instance plus margin
    return build_arith_table(2_200_000)


@pytest.fixture(scope="session")
def golden_cfg():
    """The d=1 golden-ratio instance used across the finite-scale checks."""
    return ApproxConfig(c=CVector((constant("phi"),), 1.0),
                        epsilon=0.1, A=1.0, B=2.0)


@pytest.fixture(scope="session")
def two_dim_cfg():
    return ApproxConfig(c=CVector((constant("sqrt2"), constant("sqrt3")), 2.0),
                        epsilon=0.05, A=1.0, B=2.0)
