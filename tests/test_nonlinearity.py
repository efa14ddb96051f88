import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layertails.nonlinearity import (BOUNDED_D_MIN, SEARCH_GRID, EnvelopeGrid,
                                     EnvelopeWitness, NonlinearitySpec, apply,
                                     apply_signed_log,
                                     is_positively_homogeneous,
                                     search_envelope_constants,
                                     verify_envelope)

RELU = NonlinearitySpec("relu")
TANH = NonlinearitySpec("tanh")
SIGMOID = NonlinearitySpec("sigmoid")

ALL_SPECS = [
    NonlinearitySpec("identity"),
    RELU,
    NonlinearitySpec("prelu", (0.25,)),
    NonlinearitySpec("prelu", (0.0,)),
    NonlinearitySpec("elu", (1.0,)),
    NonlinearitySpec("selu", (1.0507, 1.6733)),
    TANH,
    SIGMOID,
]


class TestSpecParsing:
    def test_round_trip(self):
        for spec in ALL_SPECS:
            assert NonlinearitySpec.parse(str(spec)) == spec

    def test_whitespace_and_empty_parens(self):
        assert NonlinearitySpec.parse("  relu ") == RELU
        assert NonlinearitySpec.parse("relu()") == RELU

    def test_parametric_defaults(self):
        # naming a parametric family without arguments picks the standard ones
        assert NonlinearitySpec.parse("elu").params == (1.0,)
        assert NonlinearitySpec.parse("prelu").params == (0.25,)
        lam, alpha = NonlinearitySpec.parse("selu").params
        assert lam == pytest.approx(1.0507, abs=1e-4)
        assert alpha == pytest.approx(1.6733, abs=1e-4)

    @pytest.mark.parametrize("bad", ["softplus", "relu(1)", "prelu(-0.5)",
                                     "elu(0)", "selu(1.0)", "prelu(a)", ""])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            NonlinearitySpec.parse(bad)


class TestApply:
    def test_pointwise_values(self):
        u = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        np.testing.assert_allclose(apply(RELU, u), [0, 0, 0, 0.5, 2.0])
        np.testing.assert_allclose(apply(NonlinearitySpec("prelu", (0.1,)), u),
                                   [-0.2, -0.05, 0, 0.5, 2.0])
        np.testing.assert_allclose(apply(NonlinearitySpec("elu", (2.0,)), u),
                                   [2 * math.expm1(-2), 2 * math.expm1(-0.5),
                                    0, 0.5, 2.0])
        np.testing.assert_allclose(apply(TANH, u), np.tanh(u))
        np.testing.assert_allclose(apply(SIGMOID, u), 1 / (1 + np.exp(-u)))

    def test_selu_matches_scaled_elu(self):
        u = np.linspace(-5, 5, 101)
        selu = NonlinearitySpec("selu", (1.1, 0.9))
        elu = NonlinearitySpec("elu", (0.9,))
        np.testing.assert_allclose(apply(selu, u), 1.1 * apply(elu, u))

    @pytest.mark.parametrize("spec", [NonlinearitySpec("elu", (0.7,)),
                                      NonlinearitySpec("selu")],
                             ids=lambda spec: spec.family)
    def test_elu_equals_its_branching_form(self, spec):
        side = np.logspace(-300, 300, 2001)
        u = np.concatenate([-side[::-1], [0.0], side])
        lam, alpha = (1.0, *spec.params) if spec.family == "elu" else spec.params
        want = lam * np.where(u > 0, u, alpha * np.expm1(np.minimum(u, 0.0)))
        np.testing.assert_array_equal(apply(spec, u), want)

    def test_sigmoid_equals_its_two_sided_form(self):
        u = np.concatenate([np.linspace(-800.0, 800.0, 20_001), [-0.0],
                            np.random.default_rng(0).standard_normal(10_000)])
        pos = u >= 0
        want = np.empty_like(u)
        want[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
        e = np.exp(u[~pos])
        want[~pos] = e / (1.0 + e)
        np.testing.assert_array_equal(apply(SIGMOID, u), want)

    def test_scalar_in_scalar_out(self):
        got = apply(RELU, -3.0)
        assert isinstance(got, float) and got == 0.0

    def test_sigmoid_extremes_do_not_overflow(self):
        with np.errstate(over="raise"):
            got = apply(SIGMOID, np.array([-800.0, 800.0]))
        np.testing.assert_allclose(got, [0.0, 1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            apply(RELU, np.array([1.0, np.nan]))


def _encode(values):
    values = np.asarray(values, dtype=float)
    signs = np.sign(values).astype(np.int8)
    with np.errstate(divide="ignore"):
        lm = np.where(values == 0, -np.inf, np.log(np.abs(values)))
    return signs, lm


def _decode(signs, lm):
    out = signs.astype(float) * np.exp(lm)
    return np.where(signs == 0, 0.0, out)


class TestApplySignedLog:
    """The log-domain path must agree with the linear path wherever the
    linear path is representable at all."""

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_agrees_with_linear_apply(self, spec):
        rng = np.random.default_rng(7)
        values = np.concatenate([
            rng.normal(scale=30.0, size=400),
            [0.0, 1e-300, -1e-300, 1e300, -1e300, 650.0, -650.0],
        ])
        signs, lm = _encode(values)
        out_s, out_lm = apply_signed_log(spec, signs, lm)
        want = apply(spec, values)
        np.testing.assert_allclose(_decode(out_s, out_lm), want,
                                   rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_handles_magnitudes_beyond_double_range(self, spec):
        # log-magnitude 2000 encodes a value ~ e^2000, far beyond overflow
        signs = np.array([1, -1], dtype=np.int8)
        lm = np.array([2000.0, 2000.0])
        out_s, out_lm = apply_signed_log(spec, signs, lm)
        assert not np.isnan(out_lm).any()
        if spec.family == "tanh":
            np.testing.assert_array_equal(out_lm, [0.0, 0.0])  # |tanh| -> 1
        elif spec.family == "sigmoid":
            assert out_lm[0] == 0.0 and out_lm[1] == -np.inf
        elif spec.family == "identity" or (spec.family == "prelu"
                                           and spec.params[0] > 0):
            assert np.isfinite(out_lm).all()
        elif spec.family in ("relu", "prelu"):  # prelu(0) acts like relu
            assert out_lm[0] == 2000.0 and out_lm[1] == -np.inf
        else:  # elu, selu: negative side saturates at lam * alpha
            lam = spec.params[0] if spec.family == "selu" else 1.0
            alpha = spec.params[-1]
            assert out_lm[0] == pytest.approx(2000.0 + math.log(lam))
            assert out_lm[1] == pytest.approx(math.log(lam * alpha))

    def test_zero_stays_zero_for_odd_families(self):
        signs = np.array([0], dtype=np.int8)
        lm = np.array([-np.inf])
        for spec in ALL_SPECS:
            out_s, out_lm = apply_signed_log(spec, signs, lm)
            if spec.family == "sigmoid":
                assert out_lm[0] == pytest.approx(-math.log(2))
            else:
                assert out_lm[0] == -np.inf

    @given(st.floats(min_value=-700, max_value=700,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_relu_kills_exactly_the_negative_half(self, v):
        signs, lm = _encode([v])
        out_s, out_lm = apply_signed_log(RELU, signs, lm)
        if v > 0:
            assert out_s[0] == 1 and out_lm[0] == lm[0]
        else:
            assert out_s[0] == 0 and out_lm[0] == -np.inf


class TestHomogeneity:
    def test_flags(self):
        assert is_positively_homogeneous(RELU)
        assert is_positively_homogeneous(NonlinearitySpec("prelu", (0.3,)))
        assert is_positively_homogeneous(NonlinearitySpec("identity"))
        assert not is_positively_homogeneous(TANH)
        assert not is_positively_homogeneous(NonlinearitySpec("elu", (1.0,)))

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=-100, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_flag_is_truthful(self, c, u):
        for spec in ALL_SPECS:
            if is_positively_homogeneous(spec):
                assert apply(spec, c * u) == pytest.approx(c * apply(spec, u),
                                                           rel=1e-9, abs=1e-12)


class TestEnvelopeGrid:
    def test_points_are_symmetric_and_include_zero(self):
        g = EnvelopeGrid(u_min=0.1, u_max=10.0, points_per_side=50)
        pts = g.points()
        assert pts.shape == (101,)
        assert pts[50] == 0.0
        np.testing.assert_allclose(pts, -pts[::-1])

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            EnvelopeGrid(u_min=1.0, u_max=0.5)
        with pytest.raises(ValueError):
            EnvelopeGrid(points_per_side=1)


class TestVerifyEnvelope:
    def test_relu_constants_hold(self):
        wit = verify_envelope(RELU, 0.0, 1.0, "positive-axis", 0.0, 1.0)
        assert wit.verdict == "holds"

    def test_upper_violation_is_located(self):
        # claim |relu(u)| <= 0.5|u|: wrong on the whole positive axis
        wit = verify_envelope(RELU, 0.0, 0.4, "positive-axis", 0.0, 0.5)
        assert wit.verdict == "fails"
        assert wit.failure_inequality == "upper"
        assert wit.failure_point > 0

    def test_lower_violation_is_located(self):
        # claim relu grows at slope 2 on the positive axis
        wit = verify_envelope(RELU, 0.0, 2.0, "positive-axis", 0.0, 1.0)
        assert wit.verdict == "fails"
        assert wit.failure_inequality == "lower"

    def test_wrong_side_fails(self):
        wit = verify_envelope(RELU, 0.0, 1.0, "negative-axis", 0.0, 1.0)
        assert wit.verdict == "fails" and wit.failure_inequality == "lower"

    def test_rejects_undersized_grid(self):
        grid = EnvelopeGrid(u_min=0.1, u_max=10.0, points_per_side=100)
        with pytest.raises(ValueError):
            verify_envelope(RELU, 0.0, 1.0, "positive-axis", 0.0, 1.0, grid)


class TestSearchEnvelopeConstants:
    @pytest.mark.parametrize("text,verdict", [
        ("relu", "holds"),
        ("prelu(0.1)", "holds"),
        ("elu(1.0)", "holds"),
        ("selu(1.0507,1.6733)", "holds"),
        ("identity", "holds"),
        ("tanh", "bounded"),
        ("sigmoid", "bounded"),
    ])
    def test_verdicts(self, text, verdict):
        wit = search_envelope_constants(NonlinearitySpec.parse(text))
        assert wit.verdict == verdict

    def test_relu_slopes_are_unity(self):
        wit = search_envelope_constants(RELU)
        assert wit.side == "positive-axis"
        assert wit.d1 == pytest.approx(1.0)
        assert wit.d2 == pytest.approx(1.0)

    def test_elu_lower_slope_sits_on_positive_axis(self):
        wit = search_envelope_constants(NonlinearitySpec("elu", (1.0,)))
        assert wit.side == "positive-axis"
        assert 0 < wit.d1 <= 1.0
        # upper envelope must cover the negative saturation level
        assert wit.c2 == 0.0 and wit.d2 >= 1.0

    def test_bounded_threshold_separates_saturating_families(self):
        # sup |tanh| = 1, so on the search grid 1 < BOUNDED_D_MIN * u_max
        assert 1.0 < BOUNDED_D_MIN * SEARCH_GRID.u_max

    def test_prelu_zero_slope_equals_relu(self):
        a = search_envelope_constants(NonlinearitySpec("prelu", (0.0,)))
        b = search_envelope_constants(RELU)
        assert (a.verdict, a.side, a.d1, a.d2) == (b.verdict, b.side, b.d1, b.d2)


class TestWitnessInvariants:
    def test_holds_requires_constants(self):
        with pytest.raises(ValueError):
            EnvelopeWitness("holds")
        with pytest.raises(ValueError):
            EnvelopeWitness("holds", c1=0.0, d1=1.0, side="positive-axis",
                            c2=0.0, d2=0.0)

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError):
            EnvelopeWitness("maybe")
