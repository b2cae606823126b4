import math

import numpy as np
import pytest

from djcsim import SystemConfig, build_mode_grid, retardation_time


def test_single_mode_grid_is_trivial():
    grid = build_mode_grid(SystemConfig(omega_a=10.0, length_ratio=5.0, n_modes=1))
    assert grid.n == 1
    assert grid.detunings[0] == 0.0
    assert grid.couplings[0] == 1.0
    assert grid.central_index == 0
    assert (grid.max_detuning, grid.collective_coupling) == (0.0, 1.0)


def test_reference_spacing_and_span():
    # omega_a = 4.84e3, L = 670 lambda_a: spacing follows from the periodic
    # boundary conditions as omega_a * lambda_a / L.
    cfg = SystemConfig(omega_a=4840.0, length_ratio=670.0, n_modes=19,
                       coupling_profile="uniform")
    grid = build_mode_grid(cfg)
    expected_spacing = 4840.0 / 670.0
    assert grid.spacing == pytest.approx(expected_spacing, rel=1e-15)
    assert grid.spacing == pytest.approx(7.2239, abs=5e-5)
    assert grid.detunings[0] == pytest.approx(-9 * expected_spacing)
    assert grid.detunings[-1] == pytest.approx(9 * expected_spacing)
    assert np.all(grid.couplings == 1.0)
    # the comb's frequency envelope, max|delta| and G = sqrt(sum g_k^2)
    assert grid.max_detuning == 9 * expected_spacing
    assert grid.collective_coupling == math.sqrt(19)


def test_sqrtfreq_profile_edge_coupling():
    cfg = SystemConfig(omega_a=4840.0, length_ratio=3480.0, n_modes=99)
    grid = build_mode_grid(cfg)
    spacing = 4840.0 / 3480.0
    expected = math.sqrt((4840.0 + 49 * spacing) / 4840.0)
    assert grid.couplings[-1] == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(1.00701, abs=1e-5)
    assert grid.couplings[grid.central_index] == 1.0


@pytest.mark.parametrize(
    "omega_a,length_ratio,expected",
    [
        (4840.0, 670.0, 2 * math.pi * 670.0 / 4840.0),     # ~0.8698
        (11100.0, 3480.0, 2 * math.pi * 3480.0 / 11100.0),  # ~1.9697
    ],
)
def test_retardation_time(omega_a, length_ratio, expected):
    cfg = SystemConfig(omega_a=omega_a, length_ratio=length_ratio, n_modes=19)
    assert retardation_time(cfg) == pytest.approx(expected, rel=1e-15)


def test_retardation_time_times_spacing_is_two_pi():
    rng = np.random.default_rng(7)
    for _ in range(20):
        cfg = SystemConfig(
            omega_a=float(rng.uniform(10.0, 2e4)),
            length_ratio=float(rng.uniform(20.0, 5e3)),
            n_modes=int(rng.choice([1, 3, 19])),
        )
        product = retardation_time(cfg) * build_mode_grid(cfg).spacing
        assert product == pytest.approx(2 * math.pi, rel=1e-12)


def test_grid_symmetry():
    cfg = SystemConfig(omega_a=4840.0, length_ratio=670.0, n_modes=19)
    grid = build_mode_grid(cfg)
    np.testing.assert_allclose(grid.detunings, -grid.detunings[::-1], atol=0.0)
    assert grid.detunings[grid.central_index] == 0.0
    # adjacent detunings differ by exactly the spacing
    np.testing.assert_allclose(np.diff(grid.detunings), grid.spacing, rtol=1e-15)


@pytest.mark.parametrize("bad_n", [0, -3, 2, 10, np.int64(4), 3.0])
def test_rejects_even_or_nonpositive_mode_counts(bad_n):
    with pytest.raises(ValueError, match="n_modes"):
        SystemConfig(omega_a=10.0, length_ratio=5.0, n_modes=bad_n)


@pytest.mark.parametrize("n", [3, np.int64(3), np.int32(3)])
def test_accepts_integral_mode_counts(n):
    grid = build_mode_grid(SystemConfig(omega_a=10.0, length_ratio=5.0, n_modes=n))
    assert grid.n == 3


def test_rejects_modes_below_zero_frequency():
    # half span 5 >= length_ratio 5 puts the lowest mode at zero frequency
    with pytest.raises(ValueError, match="lowest mode"):
        SystemConfig(omega_a=10.0, length_ratio=5.0, n_modes=11)


@pytest.mark.parametrize("omega_a,length_ratio", [(1e-300, 1e300), (1e-300, 1e9)])
def test_rejects_a_spacing_without_a_finite_round_trip(omega_a, length_ratio):
    # spacing 0.0, then a subnormal spacing: 2 pi / spacing is not finite
    with pytest.raises(ValueError, match="omega_a.*length_ratio"):
        SystemConfig(omega_a=omega_a, length_ratio=length_ratio)
    # a spacing of 1e-307 still gives a finite round trip
    assert math.isfinite(retardation_time(SystemConfig(omega_a=1e-300, length_ratio=1e7)))


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(omega_a=-1.0, length_ratio=5.0), "omega_a"),
        (dict(omega_a=10.0, length_ratio=0.0), "length_ratio"),
        (dict(omega_a=10.0, length_ratio=5.0, theta=2.0), "theta"),
        (dict(omega_a=10.0, length_ratio=5.0, coupling_profile="airy"), "coupling_profile"),
        (dict(omega_a=math.inf, length_ratio=670.0), "omega_a"),
        (dict(omega_a=math.nan, length_ratio=670.0), "omega_a"),
        (dict(omega_a=10.0, length_ratio=math.inf), "length_ratio"),
        (dict(omega_a=10.0, length_ratio=math.nan), "length_ratio"),
        (dict(omega_a=10.0, length_ratio=5.0, theta=math.nan), "theta"),
        (dict(omega_a=10.0, length_ratio=0.5), "length_ratio"),
        (dict(omega_a=10.0, length_ratio=1e-300), "length_ratio"),
        (dict(omega_a=10.0, length_ratio=1e-320), "length_ratio"),
    ],
)
def test_rejects_invalid_fields(kwargs, field):
    with pytest.raises(ValueError, match=field):
        SystemConfig(**kwargs)
