import pytest

from gfc.grid import SizeGrid
from gfc.kernels import (AbsorptionRate, CoagulationKernel, DaughterDistribution,
                         FragmentationRate, GrowthRate, KernelSet)


def make_kernels(a0=0.0, gamma0=1.0, x0=1.0, daughter="uniform-binary", nu=0.0,
                 growth="constant", r0=1.0, r1=0.0, k0=0.0, alpha=0.5,
                 coag_kind="constant", bound_class="global", ball_radius=1.0,
                 beta=None) -> KernelSet:
    """A kernel set whose shift is the one for ball_radius, as a scenario
    builds it; an explicit beta (transport-only tests) overrides it."""
    k = CoagulationKernel(kind=coag_kind, k0=k0, alpha=alpha, bound_class=bound_class)
    return KernelSet(
        FragmentationRate(kind="power-law", a0=a0, gamma0=gamma0, x0=x0),
        DaughterDistribution(kind=daughter, nu=nu),
        GrowthRate(kind=growth, r0=r0, r1=r1),
        k,
        AbsorptionRate.for_ball(k, ball_radius) if beta is None
        else AbsorptionRate(beta=beta, alpha=alpha),
    )


# each canonical growth spelling beside the affine law r0 + r1*x it names
GROWTH_SPELLINGS = [
    ({"kind": "constant", "r0": 0.3}, {"kind": "affine", "r0": 0.3, "r1": 0.0}),
    ({"kind": "linear", "r1": 0.25}, {"kind": "affine", "r0": 0.0, "r1": 0.25}),
    ({"kind": "constant", "r0": 0.0}, {"kind": "affine", "r0": 0.0, "r1": 0.0}),
]


@pytest.fixture
def unit_growth_kernels():
    """r = 1, everything else switched off."""
    return make_kernels()


@pytest.fixture
def octave_grid():
    """Geometric grid whose edges hit the powers of two, 32 cells per octave."""
    return SizeGrid.geometric(2.0**-10, 2.0**6, 512)


@pytest.fixture
def small_grid():
    return SizeGrid.geometric(1e-2, 20.0, 128)
