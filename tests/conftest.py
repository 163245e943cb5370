import contextlib

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad

from gfc.grid import SizeGrid
from gfc.kernels import (AbsorptionRate, CoagulationKernel, DaughterDistribution,
                         FragmentationRate, GrowthRate, KernelSet)

# a failing draw prints its @reproduce_failure blob: the falsifying example's
# own repr rounds numpy arrays, so it does not pin the draw
settings.register_profile("gfc", print_blob=True)
settings.load_profile("gfc")


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


@contextlib.contextmanager
def recorded_intervals(module):
    """Record every call of module._quad_intervals as [fun, lo, hi, options,
    value] while the block runs; value stays None if the call raises."""
    calls, real = [], module._quad_intervals

    def spy(fun, lo, hi, **options):
        calls.append([fun, lo, hi, options, None])
        calls[-1][4] = real(fun, lo, hi, **options)
        return calls[-1][4]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_quad_intervals", spy)
        yield calls


def quad_per_interval(fun, lo, hi, geometric=False, points=None, rel=1e-13, tiled=False, **_):
    """The oracle of kernels._quad_intervals: one scipy.integrate.quad per
    interval and integrand, in x, to relative tolerance rel, with the
    breakpoints `points` mapped from u.  With tiled=True the intervals along
    the last axis tile one range, on which the integrand does not depend on
    the tile, and the oracle is one quad per range with the tiles' ends as
    breakpoints: it reads their sum."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))
    shape = np.shape(fun(hi))      # the integrands' leading axes, then lo's
    lead = len(shape) - lo.ndim

    def integral(j, a, b, cuts):
        return quad(lambda x: fun(np.full(lo.shape, x))[j], a, b, points=cuts or None,
                    epsabs=0.0, epsrel=rel, limit=200)[0]

    if tiled:
        out = np.zeros(shape[:-1])
        for j in np.ndindex(out.shape):
            row = j[lead:]
            out[j] = integral(j + (0,), lo[row][0], hi[row][-1], list(lo[row][1:]))
        return out
    out = np.zeros(shape)
    u = [p for p in (points if points is not None else ()) if 0.0 < p < 1.0]
    for j in np.ndindex(shape):
        k = j[lead:]
        out[j] = integral(j, lo[k], hi[k], [lo[k] * (hi[k] / lo[k]) ** p if geometric
                                            else lo[k] + p * (hi[k] - lo[k]) for p in u])
    return out
