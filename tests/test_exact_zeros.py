"""The estimators that exponentiate log-magnitudes give the bits of the
plain np.exp formulas, wherever the exact zeros' -inf entries sit: the
moment curve (against tail_analysis._logsumexp), every covariance cell of a
sweep (against the per-batch loop) and average pooling.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layertails import network_model
from layertails.conv_pooling import PoolingSpec, pool_signed_log
from layertails.covariance_verifier import sweep
from layertails.network_model import NetworkConfig, UnitSampleSet
from layertails.nonlinearity import NonlinearitySpec
from layertails.tail_analysis import _logsumexp, moment_curve

ZERO_PATTERNS = ("none", "one", "all-but-one", "first", "last", "random")


@st.composite
def signed_log_draws(draw, min_size, max_size):
    """(signs, log-magnitudes) of min_size..max_size entries: signs in
    {-1, 0, 1} (or {0, 1}), -inf exactly where the sign is 0. The finite
    values reach down to -400, where exp(k * lm) underflows for k >= 2."""
    n = draw(st.integers(min_size, max_size))
    pattern = draw(st.sampled_from(ZERO_PATTERNS))
    low = draw(st.sampled_from([-2.0, -60.0, -400.0]))
    signed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lm = rng.uniform(low, 40.0, n)
    if pattern in ("none", "one"):
        dead = np.zeros(n, dtype=bool)
        dead[rng.integers(n)] = pattern == "one"
    elif pattern == "all-but-one":
        dead = np.ones(n, dtype=bool)
        dead[rng.integers(n)] = False
    else:
        dead = rng.random(n) < draw(st.sampled_from([0.06, 0.5]))
        if pattern == "first":
            dead[0] = True
        elif pattern == "last":
            dead[-1] = True
    signs = rng.choice(np.array([-1, 1], dtype=np.int8), n) if signed \
        else np.ones(n, dtype=np.int8)
    signs[dead] = 0
    lm[dead] = -np.inf
    return signs, lm


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@given(signed_log_draws(100, 300))
@settings(max_examples=150, deadline=None)
def test_moment_curve_equals_the_logsumexp_formula(draws):
    signs, lm = draws
    curve = moment_curve(UnitSampleSet(layer=1, kind="post", unit_index=0,
                                       signs=signs, log_magnitudes=lm))
    n = lm.size
    log_m = {order: _logsumexp(order * lm) - math.log(n)
             for order in range(2, 21)}
    want_norms, want_ses = [], []
    for k in range(2, 11):
        delta = min(log_m[2 * k] - 2.0 * log_m[k], math.log(n))
        want_norms.append(log_m[k] / k)
        want_ses.append(math.sqrt(math.expm1(max(delta, 0.0)))
                        / (k * math.sqrt(n)))
    assert _bits(curve.log_norms) == _bits(want_norms)
    assert _bits(curve.ses) == _bits(want_ses)


POWERS = [(s, t) for s in (1, 2, 3) for t in (1, 2, 3)]
NET = NetworkConfig(input_dim=3, layer_widths=(2,),
                    nonlinearity=NonlinearitySpec("relu"))


def _cell_reference(signs, lms, s, t):
    """estimate and se of one cell, formed as the verifier first did:
    np.exp of every entry, then np.mean over each of 32 batches in turn."""
    a, b = np.exp(s * lms[:, 0]), np.exp(t * lms[:, 1])
    a = signs[:, 0] * a if s % 2 else a
    b = signs[:, 1] * b if t % 2 else b
    est = float(np.mean(a * b) - np.mean(a) * np.mean(b))
    bounds = np.linspace(0, a.size, 33).astype(int)
    batch = np.empty(32)
    for i in range(32):
        sl = slice(bounds[i], bounds[i + 1])
        batch[i] = np.mean(a[sl] * b[sl]) - np.mean(a[sl]) * np.mean(b[sl])
    return est, float(np.std(batch, ddof=1) / math.sqrt(32))


@given(signed_log_draws(32, 300), st.data())
@settings(max_examples=150, deadline=None)
def test_covariance_cells_equal_the_per_batch_formula(first, data):
    n = first[0].size
    second = data.draw(signed_log_draws(n, n))
    signs = np.column_stack([first[0], second[0]])
    lms = np.column_stack([first[1], second[1]])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network_model, "run_sampler",
                   lambda *args, **kwargs: {1: (signs, lms)})
        res = sweep(NET, np.ones(3), (1,), POWERS, 10_000, 0)
    assert res.errors == []
    got = [(r.estimate, r.se) for r in res.reports]
    want = [_cell_reference(signs, lms, s, t) for s, t in POWERS]
    assert _bits(got) == _bits(want)


def _average_reference(signs, lms, R):
    """Average pooling formed as it first was: the rows with a nonzero
    entry gathered into one row-major block, np.exp of every entry."""
    m = np.max(lms, axis=1)
    finite = ~np.isneginf(m)
    ssum = np.zeros(signs.shape[0])
    if np.any(finite):
        shifted = np.exp(lms[finite] - m[finite, None]) * signs[finite]
        ssum[finite] = np.sum(shifted, axis=1)
    with np.errstate(divide="ignore"):
        out_lm = np.where(finite & (ssum != 0),
                          m + np.log(np.abs(ssum)) - math.log(R), -np.inf)
    return np.sign(ssum).astype(np.int8), out_lm


@given(signed_log_draws(1, 200), st.sampled_from([1, 3, 4, 8, 9, 16]),
       st.sampled_from(["C", "F"]))
@settings(max_examples=150, deadline=None)
def test_average_pool_equals_the_block_formula(draws, R, order):
    rows = draws[0].size // R + 1
    signs, lms = (np.resize(a, (rows, R)).copy(order=order) for a in draws)
    got_s, got_lm = pool_signed_log(signs, lms, PoolingSpec("average", R))
    want_s, want_lm = _average_reference(signs, lms, R)
    assert got_s.tobytes() == want_s.tobytes()
    assert _bits(got_lm) == _bits(want_lm)
