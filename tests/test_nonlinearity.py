"""Tests of the activation table: parsing, apply and its sides, the
log-domain forms, the saturation points and the envelope verdict, with a
log grid and a hypothesis search as its oracles.

The bit-for-bit pins (PINNED_APPLY, PINNED_SIGNED_LOG, the saturation
constants) were made on an AVX512 machine (numpy dispatch X86_V3, X86_V4,
AVX512_ICL, AVX512_SPR). numpy's exp, log and expm1 kernels of other
dispatch targets may differ from them by an ulp; see ROADMAP item 16.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layertails.nonlinearity import (_TABLE, EnvelopeWitness,
                                     NonlinearitySpec, apply, apply_signed_log,
                                     search_envelope_constants, sides)

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


def test_all_specs_cover_every_family():
    # adding a family means one _TABLE entry plus its line in ALL_SPECS
    assert {spec.family for spec in ALL_SPECS} == set(_TABLE)


def _elu_branching(lam, alpha, u):
    return lam * np.where(u > 0, u, alpha * np.expm1(np.minimum(u, 0.0)))


def _sigmoid_two_sided(u):
    pos = u >= 0
    out = np.empty_like(u)
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# phi of each family by a formula written apart from the table's sides
REFERENCE = {
    "identity": lambda p, u: u.copy(),
    "relu": lambda p, u: np.maximum(u, 0.0),
    "prelu": lambda p, u: np.where(u > 0, u, p[0] * u),
    "elu": lambda p, u: _elu_branching(1.0, p[0], u),
    "selu": lambda p, u: _elu_branching(*p, u),
    "tanh": lambda p, u: np.tanh(u),
    "sigmoid": lambda p, u: _sigmoid_two_sided(u),
}


def reference(spec, u):
    return REFERENCE[spec.family](spec.params, u)


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
                                     "elu(0)", "selu(1.0)", "prelu(a)", "",
                                     "prelu(1e308)", "prelu(1e-200)",
                                     "selu(1e300,1e10)",
                                     "selu(1e-200,1e-200)"])
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
        np.testing.assert_array_equal(apply(spec, u), reference(spec, u))

    def test_sigmoid_equals_its_two_sided_form(self):
        u = np.concatenate([np.linspace(-800.0, 800.0, 20_001), [-0.0],
                            np.random.default_rng(0).standard_normal(10_000)])
        np.testing.assert_array_equal(apply(SIGMOID, u), reference(SIGMOID, u))

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

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_leaves_its_input_alone(self, spec):
        u = np.array([[-2.0, -0.0], [0.0, 3.0]])
        got = apply(spec, u)
        assert got.shape == u.shape and not np.shares_memory(got, u)
        np.testing.assert_array_equal(u, [[-2.0, -0.0], [0.0, 3.0]])


# edge inputs of the negative side; the positive side takes their negation
SIDE_EDGES = [-0.0, 0.0, -1e-320, -5e-324, -1e-300, -36.7, -700.0, -745.2,
              -1e300]


class TestApplySide:
    """The one-sided forms the sampler's |Z| groups use, and apply, equal
    the reference formulas."""

    @staticmethod
    def _equal_reference(spec, sign, u):
        want = reference(spec, u)
        got = sides(spec)[sign < 0].value(u.copy())
        # equal values, and equal squares bit for bit: only a zero may
        # carry the other sign (relu's negative side gives -2 x 0 = -0.0)
        np.testing.assert_array_equal(got, want)
        with np.errstate(over="ignore"):  # a slope side squares 1e300
            assert (got * got).tobytes() == (want * want).tobytes()
        np.testing.assert_array_equal(np.signbit(got[want != 0]),
                                      np.signbit(want[want != 0]))
        # apply gives the same values, every zero as +0.0
        assert apply(spec, u).tobytes() == (want + 0.0).tobytes()

    @pytest.mark.parametrize("spec", [
        NonlinearitySpec("elu", (1.0,)), NonlinearitySpec("elu", (0.37,)),
        NonlinearitySpec("selu"), NonlinearitySpec("selu", (1.0, 2.0)),
        TANH, SIGMOID], ids=str)
    def test_equals_apply_on_each_nonlinear_side(self, spec):
        rng = np.random.default_rng(5)
        mags = rng.standard_normal(10**6) * rng.exponential(5.0, 10**6)
        neg = -np.abs(np.concatenate([SIDE_EDGES, mags]))
        neg[:len(SIDE_EDGES)] = SIDE_EDGES
        curved = [(sign, u) for sign, u, side in zip(
            (1.0, -1.0), (-neg, neg), sides(spec)) if side.slope is None]
        assert curved
        for sign, u in curved:
            self._equal_reference(spec, sign, u)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_equals_apply_on_both_sides_of_every_family(self, spec):
        # a slope side too: it multiplies in place
        mags = np.random.default_rng(6).exponential(5.0, 10**4)
        neg = np.concatenate([SIDE_EDGES, -mags])
        for sign, u in ((1.0, -neg), (-1.0, neg)):
            self._equal_reference(spec, sign, u)

    def test_writes_into_its_input(self):
        u = np.array([-2.0, -0.5, 0.0])
        got = sides(NonlinearitySpec("elu", (1.0,)))[1].value(u)  # u <= 0
        assert got is u
        np.testing.assert_array_equal(u, np.expm1([-2.0, -0.5, 0.0]))


# every curved side of ALL_SPECS, plus elu at a large, a huge and a
# subnormal alpha, whose saturation constants are 4.0, -inf squared and 0
# squared
SATURATING_SPECS = [spec for spec in ALL_SPECS if any(
    side.slope is None for side in sides(spec))] + [
    NonlinearitySpec("elu", (2.0,)), NonlinearitySpec("elu", (1e308,)),
    NonlinearitySpec("elu", (1e-320,))]


class TestSaturation:
    """A curved side's saturation (T, c): from |u| = T on its value is the
    double c, bit for bit, and its log form is log|c| up to rounding; so
    the sampler may count those entries, c^2 each, instead of drawing
    them."""

    @pytest.mark.parametrize("spec", SATURATING_SPECS, ids=str)
    def test_side_is_its_constant_from_the_saturation_point(self, spec):
        big = np.finfo(float).max
        checked = 0
        for sign, side in zip((1.0, -1.0), sides(spec)):
            if side.slope is not None or side.saturation is None:
                continue
            t, c = side.saturation
            dense = np.exp(np.linspace(math.log(t), math.log(big) - 1e-9,
                                       10**5))
            mags = np.concatenate([[t], dense, [big]])
            got = side.value(sign * mags)
            assert got.tobytes() == np.full(mags.size, c).tobytes()
            with np.errstate(over="ignore"):
                assert (got * got).tobytes() == np.full(mags.size,
                                                        c * c).tobytes()
            s, lm = side.log(np.full(mags.size, sign), np.log(mags))
            assert np.all(s == (1 if spec.family == "sigmoid" else sign))
            np.testing.assert_allclose(lm, math.log(abs(c)), rtol=0,
                                       atol=1e-15)
            checked += 1
        assert checked == (1 if spec.family in ("elu", "selu", "sigmoid")
                           else 2)

    def test_sigmoid_negative_side_has_none(self):
        # its square is 0.0 from u = -372.57 on, but its log form, which a
        # log-domain norm reads, is about u and keeps falling
        side = sides(SIGMOID)[1]
        assert side.saturation is None
        u = np.array([-400.0, -1e4])
        assert np.all(np.square(side.value(u.copy())) == 0.0)
        np.testing.assert_allclose(side.log(1, np.log(-u))[1], u)

    @pytest.mark.parametrize("spec", [
        NonlinearitySpec("elu", (1.0,)), NonlinearitySpec("selu"), TANH,
        SIGMOID], ids=str)
    def test_points_keep_a_margin(self, spec):
        # the measured points are 37.43 (expm1), 18.99 (tanh) and 36.74
        # (exp); half of the margin in, the side is its constant already
        for sign, side in zip((1.0, -1.0), sides(spec)):
            if side.saturation is not None:
                t, c = side.saturation
                inner = sign * (t - 0.5 * (t - {40.0: 37.43, 20.0: 18.99}[t]))
                assert side.value(np.array([inner]))[0] == c


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

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_zero_dimensional_input(self, spec):
        for sign, lm in [(-1, 2.0), (1, -1.0), (0, -np.inf), (-1, 800.0)]:
            got = apply_signed_log(spec, np.int8(sign), np.float64(lm))
            want = apply_signed_log(spec, np.array([sign], dtype=np.int8),
                                    np.array([lm]))
            assert [np.ndim(v) for v in got] == [0, 0]
            assert (got[0], got[1]) == (want[0][0], want[1][0])

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


# Bit-exact pins of both forms, written as float.hex so that a change in
# the last bit, or in the sign of a zero, fails. They cover outputs no
# sampler digest reaches: the post-activation values of elu, selu, tanh and
# sigmoid. log 750 is where e^u underflows for sigmoid but its log form
# does not; 699.9 and 700.1 sit on either side of the e^700 asymptote cut.
PIN_SPECS = ALL_SPECS + [NonlinearitySpec("prelu", (1.7,)),
                         NonlinearitySpec("elu", (0.3,)),
                         NonlinearitySpec("selu", (1.0, 2.0))]
PIN_LOGS = [-math.inf, -800.0, -1.0, 0.0, 1.0, math.log(750.0), 699.9,
            700.1, 2000.0]
PIN_LINEAR = [-800.0, -30.0, -2.5, -0.5, -1e-300, 0.0, 1e-300, 0.5, 2.5,
              800.0]

# apply_signed_log of each PIN_LOGS entry with sign +1, then with sign -1,
# then of zero: the output signs, then the output log-magnitudes
PINNED_SIGNED_LOG = {
    "identity": ("+++++++++---------0",
        "-inf -0x1.9p+9 -0x1p+0 0x0p+0 0x1p+0 0x1.a7af4787cb1e7p+2 "
        "0x1.5df3333333333p+9 0x1.5e0cccccccccdp+9 0x1.f4p+10 -inf "
        "-0x1.9p+9 -0x1p+0 0x0p+0 0x1p+0 0x1.a7af4787cb1e7p+2 "
        "0x1.5df3333333333p+9 0x1.5e0cccccccccdp+9 0x1.f4p+10 -inf"),
    "relu": ("+++++++++0000000000",
        "-inf -0x1.9p+9 -0x1p+0 0x0p+0 0x1p+0 0x1.a7af4787cb1e7p+2 "
        "0x1.5df3333333333p+9 0x1.5e0cccccccccdp+9 0x1.f4p+10 -inf -inf "
        "-inf -inf -inf -inf -inf -inf -inf -inf"),
    "prelu(0.25)": ("+++++++++---------0",
        "-inf -0x1.9p+9 -0x1p+0 0x0p+0 0x1p+0 0x1.a7af4787cb1e7p+2 "
        "0x1.5df3333333333p+9 0x1.5e0cccccccccdp+9 0x1.f4p+10 -inf "
        "-0x1.90b17217f7d1dp+9 -0x1.317217f7d1cf8p+1 "
        "-0x1.62e42fefa39efp+0 -0x1.8b90bfbe8e7bcp-2 0x1.4ef63b8be236bp+2 "
        "0x1.5d41c11b3b616p+9 0x1.5d5b5ab4d4fbp+9 0x1.f3a746f404172p+10 "
        "-inf"),
    "prelu(0.0)": ("+++++++++0000000000",
        "-inf -0x1.9p+9 -0x1p+0 0x0p+0 0x1p+0 0x1.a7af4787cb1e7p+2 "
        "0x1.5df3333333333p+9 0x1.5e0cccccccccdp+9 0x1.f4p+10 -inf -inf "
        "-inf -inf -inf -inf -inf -inf -inf -inf"),
    "elu(1.0)": ("+++++++++---------0",
        "-inf -0x1.9p+9 -0x1p+0 0x0p+0 0x1p+0 0x1.a7af4787cb1e7p+2 "
        "0x1.5df3333333333p+9 0x1.5e0cccccccccdp+9 0x1.f4p+10 -inf -inf "
        "-0x1.2da588abc58e4p+0 -0x1.d5aeeff3b3c69p-2 "
        "-0x1.179e1f3a32902p-4 0x0p+0 0x0p+0 0x0p+0 0x0p+0 -inf"),
    "selu(1.0507,1.6733)": ("+++++++++---------0",
        "-inf -0x1.8ff9ab67e5811p+9 -0x1.e6ad9f960446p-1 "
        "0x1.9526069fbb9ffp-5 0x1.0ca93034fdddp+0 0x1.aad993950a95bp+2 "
        "0x1.5df987cb4db22p+9 0x1.5e132164e74bcp+9 0x1.f4032a4c0d3f7p+10 "
        "-inf -inf -0x1.3a651fafd630fp-1 0x1.b073cd6ed8424p-4 "
        "0x1.fbe45b80dd332p-2 0x1.20e5f1a7b4eb9p-1 0x1.20e5f1a7b4eb9p-1 "
        "0x1.20e5f1a7b4eb9p-1 0x1.20e5f1a7b4eb9p-1 -inf"),
    "tanh": ("+++++++++---------0",
        "-inf -inf -0x1.0b327f080f8b2p+0 -0x1.16e0ae99489e9p-2 "
        "-0x1.1d5f857464446p-7 0x0p+0 0x0p+0 0x0p+0 0x0p+0 -inf -inf "
        "-0x1.0b327f080f8b2p+0 -0x1.16e0ae99489e9p-2 "
        "-0x1.1d5f857464446p-7 0x0p+0 0x0p+0 0x0p+0 0x0p+0 -inf"),
    "sigmoid": ("+++++++++++++++++++",
        "-0x1.62e42fefa39efp-1 -0x1.62e42fefa39efp-1 "
        "-0x1.0d53c81b0d90ap-1 -0x1.40c7abfbec125p-2 -0x1.05be35f66512p-4 "
        "-0x0p+0 -0x0p+0 0x0p+0 0x0p+0 -0x1.62e42fefa39efp-1 "
        "-0x1.62e42fefa39efp-1 -0x1.c9ae79cc750a6p-1 "
        "-0x1.5031eafefb049p+0 -0x1.641e9a60f89f2p+1 "
        "-0x1.76fffffffffffp+9 -0x1.ac3c2d2582f8fp+1009 -inf -inf "
        "-0x1.62e42fefa39efp-1"),
    "prelu(1.7)": ("+++++++++---------0",
        "-inf -0x1.9p+9 -0x1p+0 0x0p+0 0x1p+0 0x1.a7af4787cb1e7p+2 "
        "0x1.5df3333333333p+9 0x1.5e0cccccccccdp+9 0x1.f4p+10 -inf "
        "-0x1.8fbc145f9bad6p+9 -0x1.e0a2fcdd6acdep-2 0x1.0fae81914a991p-1 "
        "0x1.87d740c8a54c8p+0 0x1.c9a517b9f4719p+2 0x1.5e371ed39785dp+9 "
        "0x1.5e50b86d311f7p+9 0x1.f421f5d032295p+10 -inf"),
    "elu(0.3)": ("+++++++++---------0",
        "-inf -0x1.9p+9 -0x1p+0 0x0p+0 0x1p+0 0x1.a7af4787cb1e7p+2 "
        "0x1.5df3333333333p+9 0x1.5e0cccccccccdp+9 0x1.f4p+10 -inf -inf "
        "-0x1.30ee8c3bd0002p+1 -0x1.a9a34bc8c763bp+0 "
        "-0x1.45b171bf7d9b1p+0 -0x1.34378fcbda721p+0 "
        "-0x1.34378fcbda721p+0 -0x1.34378fcbda721p+0 "
        "-0x1.34378fcbda721p+0 -inf"),
    "selu(1.0,2.0)": ("+++++++++---------0",
        "-inf -0x1.9p+9 -0x1p+0 0x0p+0 0x1p+0 0x1.a7af4787cb1e7p+2 "
        "0x1.5df3333333333p+9 0x1.5e0cccccccccdp+9 0x1.f4p+10 -inf -inf "
        "-0x1.f0cdc2cfcefb2p-2 0x1.e032dfd726eeap-3 0x1.3ff06c085d4cfp-1 "
        "0x1.62e42fefa39efp-1 0x1.62e42fefa39efp-1 0x1.62e42fefa39efp-1 "
        "0x1.62e42fefa39efp-1 -inf"),
}
# apply at each PIN_LINEAR point
PINNED_APPLY = {
    "identity":
        "-0x1.9p+9 -0x1.ep+4 -0x1.4p+1 -0x1p-1 -0x1.56e1fc2f8f359p-997 "
        "0x0p+0 0x1.56e1fc2f8f359p-997 0x1p-1 0x1.4p+1 0x1.9p+9",
    "relu":
        "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x1.56e1fc2f8f359p-997 "
        "0x1p-1 0x1.4p+1 0x1.9p+9",
    "prelu(0.25)":
        "-0x1.9p+7 -0x1.ep+2 -0x1.4p-1 -0x1p-3 -0x1.56e1fc2f8f359p-999 "
        "0x0p+0 0x1.56e1fc2f8f359p-997 0x1p-1 0x1.4p+1 0x1.9p+9",
    "prelu(0.0)":
        "0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 0x0p+0 "
        "0x1.56e1fc2f8f359p-997 0x1p-1 0x1.4p+1 0x1.9p+9",
    "elu(1.0)":
        "-0x1p+0 -0x1.ffffffffffcb5p-1 -0x1.d5f8f47ed617bp-1 "
        "-0x1.92e9a0720d3ecp-2 -0x1.56e1fc2f8f359p-997 0x0p+0 "
        "0x1.56e1fc2f8f359p-997 0x1p-1 0x1.4p+1 0x1.9p+9",
    "selu(1.0507,1.6733)":
        "-0x1.c21538a15c30bp+0 -0x1.c21538a15c026p+0 "
        "-0x1.9d234994d984cp+0 -0x1.62300929dae16p-1 "
        "-0x1.2d6ad4d76c33ap-996 0x0p+0 0x1.68445435c26cdp-997 "
        "0x1.0cfaacd9e83e4p-1 0x1.50395810624ddp+1 0x1.a447ae147ae14p+9",
    "tanh":
        "-0x1p+0 -0x1p+0 -0x1.f9258260a71c2p-1 -0x1.d9353d7568af3p-2 "
        "-0x1.56e1fc2f8f359p-997 0x0p+0 0x1.56e1fc2f8f359p-997 "
        "0x1.d9353d7568af3p-2 0x1.f9258260a71c2p-1 0x1p+0",
    "sigmoid":
        "0x0p+0 0x1.a56e0c2ac7ccp-44 0x1.36b7112534848p-4 "
        "0x1.829a0565978dfp-2 0x1p-1 0x1p-1 0x1p-1 0x1.3eb2fd4d34391p-1 "
        "0x1.d9291ddb596f8p-1 0x1p+0",
    "prelu(1.7)":
        "-0x1.54p+10 -0x1.98p+5 -0x1.1p+2 -0x1.b333333333333p-1 "
        "-0x1.2373498ed353fp-996 0x0p+0 0x1.56e1fc2f8f359p-997 0x1p-1 "
        "0x1.4p+1 0x1.9p+9",
    "elu(0.3)":
        "-0x1.3333333333333p-2 -0x1.3333333333139p-2 "
        "-0x1.19fbc5e5b3a7dp-2 -0x1.e37ec088dcb1bp-4 "
        "-0x1.9b759505df0d1p-999 0x0p+0 0x1.56e1fc2f8f359p-997 0x1p-1 "
        "0x1.4p+1 0x1.9p+9",
    "selu(1.0,2.0)":
        "-0x1p+1 -0x1.ffffffffffcb5p+0 -0x1.d5f8f47ed617bp+0 "
        "-0x1.92e9a0720d3ecp-1 -0x1.56e1fc2f8f359p-996 0x0p+0 "
        "0x1.56e1fc2f8f359p-997 0x1p-1 0x1.4p+1 0x1.9p+9",
}


def _hexes(text):
    return [float.fromhex(v).hex() for v in text.split()]


@pytest.mark.parametrize("spec", PIN_SPECS, ids=str)
def test_signed_log_is_pinned_bit_for_bit(spec):
    n = len(PIN_LOGS)
    signs = np.array([1] * n + [-1] * n + [0], dtype=np.int8)
    lm = np.array(PIN_LOGS + PIN_LOGS + [-math.inf])
    out_s, out_lm = apply_signed_log(spec, signs, lm)
    want_s, want_lm = PINNED_SIGNED_LOG[str(spec)]
    assert "".join({1: "+", -1: "-", 0: "0"}[int(v)] for v in out_s) == want_s
    assert [float(v).hex() for v in out_lm] == _hexes(want_lm)


@pytest.mark.parametrize("spec", PIN_SPECS, ids=str)
def test_apply_is_pinned_bit_for_bit(spec):
    out = apply(spec, np.array(PIN_LINEAR))
    assert [float(v).hex() for v in out] == _hexes(PINNED_APPLY[str(spec)])


def test_prelu_zero_applies_as_relu_bit_for_bit():
    u = np.array(PIN_LINEAR)
    assert apply(NonlinearitySpec("prelu", (0.0,)), u).tobytes() == \
        apply(RELU, u).tobytes()


def _both_sides_slopes(spec):
    # phi(c u) = c phi(u) for c > 0 exactly when both sides are slopes
    return all(side.slope is not None for side in sides(spec))


class TestHomogeneity:
    def test_flags(self):
        assert _both_sides_slopes(RELU)
        assert _both_sides_slopes(NonlinearitySpec("prelu", (0.3,)))
        assert _both_sides_slopes(NonlinearitySpec("identity"))
        assert not _both_sides_slopes(TANH)
        assert not _both_sides_slopes(NonlinearitySpec("elu", (1.0,)))

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=-100, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_flag_is_truthful(self, c, u):
        for spec in ALL_SPECS:
            if _both_sides_slopes(spec):
                assert apply(spec, c * u) == pytest.approx(c * apply(spec, u),
                                                           rel=1e-9, abs=1e-12)


# every family, plus sides the defaults do not reach: alpha above 1, an
# alpha whose products overflow, a subnormal alpha, and a negative slope
# steeper than the positive one
ENVELOPE_SPECS = ALL_SPECS + [NonlinearitySpec.parse(t) for t in (
    "elu(2.0)", "elu(1e308)", "elu(1e-320)", "prelu(2.0)")]

# more selu and elu sides whose rounding in apply the bounds must absorb
ROUNDED_SPECS = [NonlinearitySpec.parse(t) for t in (
    "selu", "elu(0.3)", "selu(3,1e-5)")]

EPS = np.finfo(float).eps


def _grid_ratios(spec, per_side=10_000):
    """|phi(u)|/|u| on a log grid, |u| over [1e-3, 1e7]: the positive
    side's and the negative side's."""
    au = np.logspace(-3, 7, per_side)
    return tuple(np.abs(apply(spec, sign * au)) / au for sign in (1.0, -1.0))


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

    @pytest.mark.parametrize("text", ["elu(2e7)", "elu(1e308)"])
    def test_saturating_half_line_is_never_certified(self, text):
        # |elu(u)| < alpha for u < 0, a curve, so only the positive axis's
        # slope can carry the lower bound; d2 is alpha
        spec = NonlinearitySpec.parse(text)
        wit = search_envelope_constants(spec)
        assert (wit.verdict, wit.side, wit.d1, wit.d2) == (
            "holds", "positive-axis", 1.0, spec.params[0])

    def test_steeper_negative_slope_certifies_the_negative_axis(self):
        wit = search_envelope_constants(NonlinearitySpec("prelu", (2.0,)))
        assert (wit.side, wit.d1, wit.d2) == ("negative-axis", 2.0, 2.0)

    def test_prelu_zero_slope_equals_relu(self):
        a = search_envelope_constants(NonlinearitySpec("prelu", (0.0,)))
        b = search_envelope_constants(RELU)
        assert (a.verdict, a.side, a.d1, a.d2) == (b.verdict, b.side, b.d1, b.d2)

    def test_witnesses_are_pinned(self):
        # every field of the witness, per ALL_SPECS entry
        unit = ("holds", 0.0, 1.0, "positive-axis", 0.0, 1.0)
        bounded = ("bounded", None, None, None, None, None)
        want = [unit, unit, unit, unit, unit,
                ("holds", 0.0, 1.0507, "positive-axis", 0.0, 1.75813631),
                bounded, bounded]
        got = [dataclasses.astuple(search_envelope_constants(spec))
               for spec in ALL_SPECS]
        assert got == want

    @pytest.mark.parametrize("spec", ENVELOPE_SPECS, ids=str)
    def test_curves_beside_a_slope_carry_their_sup_ratio(self, spec):
        both = sides(spec)
        if any(side.slope is not None for side in both):
            for side in both:
                assert side.slope is not None or side.sup_ratio > 0

    def test_selu_sup_ratio_is_lambda_alpha_rounded_up(self):
        # the plain product of the two doubles falls short of lambda alpha
        lam, alpha = NonlinearitySpec("selu").params
        sup = sides(NonlinearitySpec("selu"))[1].sup_ratio
        exact = Fraction(lam) * Fraction(alpha)
        assert lam * alpha < exact
        assert math.nextafter(sup, 0.0) < exact <= sup
        assert sup == 1.7580993408473768


class TestEnvelopeOracles:
    @pytest.mark.parametrize("spec", ENVELOPE_SPECS, ids=str)
    def test_grid_finds_d1_and_no_ratio_above_d2(self, spec):
        # the grid that once fitted the constants, now a check of the
        # table's: selu's grid d1 is 1.0507009873554802, its lambda ...805
        wit = search_envelope_constants(spec)
        pos, neg = _grid_ratios(spec)
        if wit.verdict == "bounded":
            # |phi| <= 1, so the ratio falls to 1e-7 on both sides
            assert max(pos.min(), neg.min()) <= 1e-7
            return
        on_side = pos if wit.side == "positive-axis" else neg
        assert float(on_side.min()) == pytest.approx(wit.d1, rel=4 * EPS,
                                                     abs=0.0)
        assert max(pos.max(), neg.max()) <= wit.d2

    @example(mag=1e-12, negative=True)
    @given(mag=st.one_of(
               st.floats(min_value=5e-324, max_value=1e300),
               st.floats(min_value=-323.0, max_value=300.0).map(
                   lambda e: 10.0 ** e)),
           negative=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_both_inequalities_hold_through_apply(self, mag, negative):
        """|phi(u)| >= c1 + d1|u| on the certified side and
        |phi(u)| <= c2 + d2|u| at u = +-mag, from subnormals to 1e300.

        apply rounds expm1, x alpha and x lambda separately, so its
        |phi(u)| may stand a few ulp above the exact value, and below the
        normal range a few 2^-1074 above it, times lambda, which scales
        the rounding of alpha expm1(u). So the bounds widen by 4 eps
        relative and 4 max(1, lambda) 2^-1074 absolute. Compared raw, the
        default selu breaks them at 333 and selu(1.0507,1.6733) at 1570
        of 212,000 log-spaced points over that range; with this slack at
        none, for any spec here.
        """
        u = -mag if negative else mag
        for spec in ENVELOPE_SPECS + ROUNDED_SPECS:
            wit = search_envelope_constants(spec)
            if wit.verdict == "bounded":
                continue
            lam = spec.params[0] if spec.family == "selu" else 1.0
            slack = 4 * max(1.0, lam) * 2.0 ** -1074
            phi = abs(apply(spec, u))
            upper = (wit.c2 + wit.d2 * mag) * (1 + 4 * EPS) + slack
            lower = (wit.c1 + wit.d1 * mag) * (1 - 4 * EPS) - slack
            assert phi <= upper, spec
            if (u > 0) == (wit.side == "positive-axis"):
                assert phi >= lower, spec

    def test_grid_fitted_selu_d2_fails_near_zero(self):
        # the d2 a grid over |u| >= 1e-3 fitted for selu breaks the upper
        # bound at u = -1e-12 even with the slack above; lambda alpha holds
        phi = abs(apply(NonlinearitySpec("selu"), -1e-12))
        assert phi > 1.7572205841202704 * 1e-12 * (1 + 4 * EPS)
        assert phi <= search_envelope_constants(
            NonlinearitySpec("selu")).d2 * 1e-12


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
