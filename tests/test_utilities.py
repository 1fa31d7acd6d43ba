import math

import numpy as np
import pytest
from scipy.integrate import quad

from sst import (
    InputError,
    InvalidSpecError,
    OutOfSupportError,
    UnsupportedFamilyError,
    UtilityFamily,
    UtilitySpec,
    draw,
    draw_block,
    kl_to_standard,
    log_density,
    sample,
    utility_from_dict,
    utility_to_dict,
)


class TestSample:
    def test_gumbel_fixed_point(self):
        # -log(-log(e^-1)) = 0, so the draw sits at the location
        spec = UtilitySpec(UtilityFamily.GUMBEL, np.array([2.0]))
        out = sample(spec, np.array([math.exp(-1.0)]))
        assert out.u[0] == pytest.approx(2.0, abs=1e-15)

    def test_logistic_median(self):
        spec = UtilitySpec(UtilityFamily.LOGISTIC, np.array([0.7]))
        assert sample(spec, np.array([0.5])).u[0] == pytest.approx(0.7, abs=1e-15)

    def test_neg_exponential(self):
        spec = UtilitySpec(UtilityFamily.NEG_EXPONENTIAL, np.array([2.0]))
        assert sample(spec, np.array([math.exp(-1.0)])).u[0] == pytest.approx(-0.5, abs=1e-15)

    def test_gaussian_median(self):
        spec = UtilitySpec(UtilityFamily.GAUSSIAN, np.array([1.25]))
        assert sample(spec, np.array([0.5])).u[0] == pytest.approx(1.25, abs=1e-15)

    def test_endpoint_rejected(self):
        spec = UtilitySpec(UtilityFamily.GUMBEL, np.zeros(2))
        with pytest.raises(InputError):
            sample(spec, np.array([0.0, 0.5]))
        with pytest.raises(InputError):
            sample(spec, np.array([0.5, 1.0]))

    def test_reparameterization_determinism(self):
        spec = UtilitySpec(UtilityFamily.GAUSSIAN, np.linspace(-1, 1, 4))
        base = np.random.default_rng(0).random(4)
        a = sample(spec, base).u
        b = sample(spec, base).u
        assert (a == b).all()

    def test_draw_seed_determinism(self):
        spec = UtilitySpec(UtilityFamily.GUMBEL, np.zeros(3))
        a = draw(spec, np.random.default_rng(11)).u
        b = draw(spec, np.random.default_rng(11)).u
        assert (a == b).all()

    def test_monotone_coupling_with_gumbel(self):
        """-log(E) for E ~ Exponential(lam) matches Gumbel(log lam) on shared base noise."""
        rng = np.random.default_rng(3)
        lam = np.array([0.5, 1.0, 2.5])
        base = rng.random(3)
        neg_exp = UtilitySpec(UtilityFamily.NEG_EXPONENTIAL, lam)
        gum = UtilitySpec(UtilityFamily.GUMBEL, np.log(lam))
        coupled = -np.log(-sample(neg_exp, base).u)
        direct = sample(gum, base).u
        np.testing.assert_allclose(coupled, direct, rtol=1e-12, atol=1e-12)


class _ZeroAt:
    """Generator stand-in whose doubles at the given stream positions are 0.0.

    The stream position is part of ``bit_generator.state``, so saving and
    restoring the state replays the same zeros.
    """

    def __init__(self, seed, positions):
        self._rng = np.random.default_rng(seed)
        self._pos = 0
        self._zero = positions
        self.bit_generator = self

    @property
    def state(self):
        return self._rng.bit_generator.state, self._pos

    @state.setter
    def state(self, value):
        self._rng.bit_generator.state, self._pos = value

    def random(self, size):
        out = self._rng.random(size)
        flat = out.reshape(-1)
        for p in self._zero:
            if self._pos <= p < self._pos + flat.size:
                flat[p - self._pos] = 0.0
        self._pos += flat.size
        return out


def _sequential(spec, rng, draws):
    rows = [draw(spec, rng) for _ in range(draws)]
    return np.stack([r.u for r in rows]), np.stack([r.base for r in rows])


class TestDrawBlock:
    @pytest.mark.parametrize("family", list(UtilityFamily))
    def test_matches_sequential_draws_bytewise(self, family):
        theta = np.array([0.3, 1.2, 0.7, 2.0])
        spec = UtilitySpec(family, theta)
        want_u, want_base = _sequential(spec, np.random.default_rng(5), 1000)
        rng = np.random.default_rng(5)
        got = draw_block(spec, rng, 1000)
        assert got.u.shape == got.base.shape == (1000, 4)
        assert got.u.tobytes() == want_u.tobytes()
        assert got.base.tobytes() == want_base.tobytes()
        # the stream continues where the sequential draws left it
        after = np.random.default_rng(5)
        _sequential(spec, after, 1000)
        assert rng.random() == after.random()

    @pytest.mark.parametrize("zeros", [
        # dim 3: the zeros at 7 and 8 fall in row 2 and are redrawn from
        # positions 9 and 10; 9 is zero too and is redrawn from 11.  The zero
        # at 20 falls in row 5 and is redrawn from 21.
        {7, 8, 9, 20},
        {0},  # row 0
        {29},  # the block's last double: its redraw reads past the block
    ], ids=["rows-2-and-5", "row-0", "last-double"])
    def test_exact_zero_redraw_replays_the_stream(self, zeros):
        spec = UtilitySpec(UtilityFamily.GUMBEL, np.zeros(3))
        want_u, want_base = _sequential(spec, _ZeroAt(2, zeros), 10)
        rng = _ZeroAt(2, zeros)
        got = draw_block(spec, rng, 10)
        assert got.u.tobytes() == want_u.tobytes()
        assert got.base.tobytes() == want_base.tobytes()
        assert (got.base > 0.0).all()
        assert rng.state[1] == 10 * 3 + len(zeros)  # one double per redraw

    def test_rejects_nonpositive_draws(self):
        spec = UtilitySpec(UtilityFamily.GUMBEL, np.zeros(2))
        with pytest.raises(InputError):
            draw_block(spec, np.random.default_rng(0), 0)


class TestLogDensity:
    def test_standard_gumbel_at_zero(self):
        spec = UtilitySpec(UtilityFamily.GUMBEL, np.zeros(3))
        assert log_density(spec, np.zeros(3)) == pytest.approx(-3.0, abs=1e-12)

    def test_standard_normal_at_zero(self):
        spec = UtilitySpec(UtilityFamily.GAUSSIAN, np.zeros(2))
        assert log_density(spec, np.zeros(2)) == pytest.approx(-math.log(2 * math.pi), abs=1e-12)

    def test_logistic_at_median(self):
        spec = UtilitySpec(UtilityFamily.LOGISTIC, np.zeros(1))
        assert log_density(spec, np.zeros(1)) == pytest.approx(math.log(0.25), abs=1e-12)

    def test_neg_exponential_support(self):
        spec = UtilitySpec(UtilityFamily.NEG_EXPONENTIAL, np.ones(1))
        with pytest.raises(OutOfSupportError):
            log_density(spec, np.array([0.1]))
        assert log_density(spec, np.array([-2.0])) == pytest.approx(-2.0, abs=1e-12)

    def test_logistic_far_tails_stay_finite(self):
        spec = UtilitySpec(UtilityFamily.LOGISTIC, np.zeros(1))
        assert log_density(spec, np.array([-800.0])) == pytest.approx(-800.0, abs=1e-9)
        assert log_density(spec, np.array([800.0])) == pytest.approx(-800.0, abs=1e-9)

    @pytest.mark.parametrize("family, theta", [
        (UtilityFamily.GUMBEL, 0.3),
        (UtilityFamily.LOGISTIC, -0.7),
        (UtilityFamily.GAUSSIAN, 1.1),
    ])
    def test_density_normalizes(self, family, theta):
        spec = UtilitySpec(family, np.array([theta]))
        total, err = quad(lambda x: math.exp(log_density(spec, np.array([x]))), -40, 40)
        assert total == pytest.approx(1.0, abs=1e-8)


def _gumbel_kl_by_quadrature(theta):
    """Adaptive quadrature of f_theta * log(f_theta / f_0)."""
    def integrand(x):
        za, zb = x - theta, x
        log_fa = -za - math.exp(-za)
        log_fb = -zb - math.exp(-zb)
        return math.exp(log_fa) * (log_fa - log_fb)

    val, err = quad(integrand, theta - 30.0, theta + 30.0, limit=300)
    assert err < 1e-8
    return val


class TestKl:
    def test_zero_for_identical(self):
        assert kl_to_standard(UtilitySpec(UtilityFamily.GUMBEL, np.zeros(2))) == 0.0

    def test_closed_form_values(self):
        assert kl_to_standard(
            UtilitySpec(UtilityFamily.GUMBEL, np.array([1.0]))
        ) == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert kl_to_standard(
            UtilitySpec(UtilityFamily.GUMBEL, np.array([-1.0]))
        ) == pytest.approx(math.e - 2.0, abs=1e-12)

    def test_sums_over_coordinates(self):
        th = np.array([0.2, -0.4, 1.7])
        total = kl_to_standard(UtilitySpec(UtilityFamily.GUMBEL, th))
        parts = sum(
            kl_to_standard(UtilitySpec(UtilityFamily.GUMBEL, np.array([v]))) for v in th
        )
        assert total == pytest.approx(parts, abs=1e-12)

    def test_matches_quadrature(self):
        assert kl_to_standard(
            UtilitySpec(UtilityFamily.GUMBEL, np.array([0.5]))
        ) == pytest.approx(_gumbel_kl_by_quadrature(0.5), abs=1e-6)

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamilyError):
            kl_to_standard(UtilitySpec(UtilityFamily.GAUSSIAN, np.zeros(1)))


class TestSpecValidation:
    def test_rates_positive(self):
        with pytest.raises(InvalidSpecError):
            UtilitySpec(UtilityFamily.NEG_EXPONENTIAL, np.array([1.0, -0.5]))

    def test_round_trip(self):
        spec = UtilitySpec(UtilityFamily.LOGISTIC, np.array([0.1, -2.0]))
        again = utility_from_dict(utility_to_dict(spec))
        assert again.family == spec.family
        assert (again.theta == spec.theta).all()
