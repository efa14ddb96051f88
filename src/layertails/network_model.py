"""Feed-forward networks with Gaussian weight priors and their unit samplers.

The model is the usual recursion

    g(l) = W(l) h(l-1),    h(l) = phi(g(l)),    h(0) = x,

with every weight (and bias, when enabled) of layer l drawn i.i.d.
N(0, sigma_l^2). The object of study is the prior distribution of a single
unit g(l)_m or h(l)_m for a fixed input x, across independent weight draws.

Sampling. run_sampler is the one sampler pass: it validates a request
(units per layer, before or after the nonlinearity), draws it in chunks,
each written straight into the request's arrays, and returns them. Its
draw count, layers and unit indices, like every seed, are Python or numpy
integers (errors.is_int), used as given: a float or bool raises
ValueError, as does a request for no layers. sample_layer_units,
sample_joint_units and covariance_verifier.sweep call it directly. It
never materializes a weight matrix: it rests on the exact identity that,
given h(l-1), the H_l entries of g(l) are i.i.d. N(0, r_l^2) with
r_l^2 = sigma_l^2 (||h(l-1)||^2 + 1 if bias). It carries log r_l, so no
depth can overflow (and a zero input gives log r_1 = -inf, a dead row).
_layer_step takes one layer from log r_l to its units and ||h(l)||^2; its
docstring states the step and the order of its draws. A curved side
draws only the half-normals it can still tell apart: past its saturation
point (nonlinearity.Side.saturation) phi(r Z) is one double, so a chunk
that puts most of a sign group there counts those entries instead of
drawing them (_split). The test suite checks this sampler in law against
a literal forward pass with a fresh weight matrix per layer per draw.

Streams. Samples are generated in chunks of DEFAULT_CHUNK draws. An
entropy prefix E is (seed, stream tag, fields of the operation), built by
entropy_prefix, which accepts seeds in [0, 2^32) only. Layer l of chunk c
of a request with prefix E owns the child stream
SeedSequence(E + [c], spawn_key=(l,)), which _layer_step reads. Layer l's
draws depend on the request only through k_1..k_l, k_i = 1 + the largest
unit index asked of layer i (1 when none is), and never on the worker
count. Unit m of layer l does not depend on k_l or on deeper layers, so
unit 0 of a layer is the same whichever layers are requested with it;
units asked of a lower layer do change the layers above. SAMPLER_VERSION
numbers this seed-to-draws mapping; run manifests record it. Stream tag 7
is held by the test suite's forward-pass oracle.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import json
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigFileError, is_int, is_json_type
from .nonlinearity import NonlinearitySpec, apply_signed_log, sides

# Version of the seed-to-draws mapping, recorded in run manifests.
# 1: full-matrix conditional step for every activation.
# 2: exact stick-breaking step for relu, prelu and identity.
# 3: linear-domain norm for elu, selu, tanh and sigmoid; the same stream
#    as version 2, whose outputs differ from it by rounding only.
# 4: one covariance sweep draws every layer in one pass from the prefix
#    (seed, STREAM_COVARIANCE, m, m'); only covariance output bytes differ
#    from version 3.
# 5: half step for elu and selu; log 2 + log_ndtr Gaussian reference.
# 6: one conditional step for every activation; tanh and sigmoid draw N,
#    then the |Z| of each sign group; every other stream is version 5's.
# 7: unit 0 first: every layer draws its Z as a plain normal, then N' of
#    the other H - 1 units; a top layer asked for unit 0 alone stops there.
# 8: BLAS out of the sampler and the survival-slope fit: that fit by
#    centered sums (the last digits of tail-sweep's survival-slope rows
#    move) and ||x||^2 by math.fsum, not np.dot (the layer-1 scale may move
#    by its last bit, and every draw with it); the streams are version 7's.
#    The moment-slope fit (tail_analysis._wls) kept BLAS until output
#    format 4, which fits it by a QR in plain floats.
# 9: N' from an exact alias table of Bin(H - 1, 1/2), one uniform per row,
#    instead of rng.binomial; the same law and slot, a new stream for every
#    family (width-1 layers, which draw no N', keep theirs).
# 10: a curved sign group (elu and selu's negative units, tanh's, sigmoid's
#    positive ones) splits at the point past which phi(r |Z|) is one double
#    on every row of a chunk, where at most 1/4 of its entries fall below
#    it: only those are drawn, after their count per row, and units 1..j-1
#    that take a saturated entry draw its |Z| after the group. Chunks that
#    do not split, and relu, prelu and identity, keep version 9's streams.
# 11: a layer asked for units up to k - 1 draws Z_0 .. Z_{k-1} as plain
#    normals, then N' of the other H - k units. Requests that ask at most
#    unit 0 of each layer (every tail-sweep and survival-curves run) keep
#    version 10's streams; covariance, pooling and joint draws get new ones.
SAMPLER_VERSION = 11

# Entropy stream tags; every sampling operation owns a tag so streams
# never collide across operations.
STREAM_UNITS = 1
STREAM_COVARIANCE = 2
STREAM_POOLING = 3
STREAM_INPUT = 5
STREAM_SYNTHETIC = 8

# The fixed chunking policy, part of the seed-to-draws mapping.
DEFAULT_CHUNK = 4096

# SeedSequence splits an integer of 2^32 or more into 32-bit words and
# ignores trailing zero words, so a larger seed would alias the streams of
# smaller ones (seed 2^32's chunk 0 is seed 0's chunk 1).
_MAX_SEED = 2**32

# The conditional step sums a row's norm in plain doubles while |log r| is
# below this, unless phi is linear on both sides: r |Z| and the sum of H
# squares of phi(r Z) then stay far inside double range (e^600 against
# about e^709).
_LINEAR_LOG_R = 300.0

# A |Z| group is drawn, and its part of the norm summed, in blocks of rows
# that hold about this many entries, in one buffer reused by every block
_BLOCK = 25_000

# A curved group is split at its saturation point (_split) where at most
# this share of its entries falls below it
_SPLIT_P = 0.25

# JSON types of the NetworkConfig.to_dict fields (see errors.is_json_type)
_FIELD_TYPES = {"input_dim": int, "layer_widths": [int], "nonlinearity": str,
                "weight_std": (float, int, [(float, int)]),
                "include_bias": bool}


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture, prior scale and nonlinearity. It holds no seed: the
    samplers take theirs as an argument, the CLI's --seed."""

    input_dim: int
    layer_widths: tuple[int, ...]
    nonlinearity: NonlinearitySpec
    weight_std: float | tuple[float, ...] = 1.0
    include_bias: bool = False

    def __post_init__(self):
        if not isinstance(self.nonlinearity, NonlinearitySpec):
            raise TypeError("nonlinearity must be a NonlinearitySpec, got "
                            f"{self.nonlinearity!r}; NonlinearitySpec.parse "
                            "reads a spec string")
        if not is_int(self.input_dim) or self.input_dim < 1:
            raise ValueError(f"input_dim must be an integer >= 1, got {self.input_dim!r}")
        if not isinstance(self.include_bias, (bool, np.bool_)):
            raise ValueError(f"include_bias must be a bool, got {self.include_bias!r}")
        object.__setattr__(self, "input_dim", int(self.input_dim))
        object.__setattr__(self, "include_bias", bool(self.include_bias))
        widths = tuple(self.layer_widths)
        if len(widths) == 0 or not all(is_int(w) and w >= 1 for w in widths):
            raise ValueError("layer_widths must be non-empty integers >= 1, "
                             f"got {widths!r}")
        widths = tuple(int(w) for w in widths)
        object.__setattr__(self, "layer_widths", widths)
        std = self.weight_std
        per_layer = isinstance(std, (tuple, list, np.ndarray))
        stds = tuple(std) if per_layer else (std,) * len(widths)
        if not all(is_int(s) or isinstance(s, (float, np.floating))
                   for s in stds):
            raise ValueError("weight_std must be a number or a sequence of "
                             f"numbers, got {std!r}")
        stds = tuple(float(s) for s in stds)
        if per_layer:
            object.__setattr__(self, "weight_std", stds)
            if len(stds) != len(widths):
                raise ValueError("per-layer weight_std must match layer count")
        if any(not (s > 0 and math.isfinite(s)) for s in stds):
            raise ValueError("weight_std entries must be strictly positive and finite")

    @property
    def depth(self) -> int:
        return len(self.layer_widths)

    def weight_std_for(self, layer: int) -> float:
        """sigma_w of the given 1-based layer."""
        if isinstance(self.weight_std, tuple):
            return self.weight_std[layer - 1]
        return float(self.weight_std)

    def to_dict(self) -> dict:
        """The one serialized form: a manifest's params.network, the keys
        and values of the INI file, and the input of config_hash."""
        std = self.weight_std
        return {
            "input_dim": self.input_dim,
            "layer_widths": list(self.layer_widths),
            "nonlinearity": str(self.nonlinearity),
            "weight_std": list(std) if isinstance(std, tuple) else float(std),
            "include_bias": self.include_bias,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkConfig":
        """The inverse of to_dict; ValueError names the fields that are
        unknown, missing or whose JSON type is wrong (a bool is not a
        number here)."""
        unknown = sorted(set(d) - set(_FIELD_TYPES))
        if unknown:
            raise ValueError(f"network fields unknown: {unknown}")
        missing = [k for k in _FIELD_TYPES if k not in d]
        if missing:
            raise ValueError(f"network fields missing: {missing}")
        bad = [k for k, t in _FIELD_TYPES.items() if not is_json_type(d[k], t)]
        if bad:
            raise ValueError(f"network fields of the wrong type: {bad}")
        std = d["weight_std"]
        return cls(input_dim=d["input_dim"], layer_widths=d["layer_widths"],
                   nonlinearity=NonlinearitySpec.parse(d["nonlinearity"]),
                   weight_std=tuple(std) if isinstance(std, list) else float(std),
                   include_bias=d["include_bias"])

    def config_hash(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def parse_config_file(path) -> NetworkConfig:
    """Read a [network] section config file; its keys are those of
    NetworkConfig.to_dict, every key but input_dim and layer_widths has a
    default, and other keys are ignored."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigFileError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        # configparser's messages span lines; an error prints as one
        why = str(exc).replace("\n", " ")
        raise ConfigFileError(f"malformed config file {path}: {why}") from exc
    if "network" not in parser:
        raise ConfigFileError(f"config file {path} lacks a [network] section")
    sec = parser["network"]
    try:
        std = [float(s) for s in sec.get("weight_std", "1.0").split(",")]
        return NetworkConfig.from_dict({
            "input_dim": int(sec["input_dim"]),
            "layer_widths": [int(w) for w in sec["layer_widths"].split(",")],
            "nonlinearity": sec.get("nonlinearity", "relu"),
            "weight_std": std[0] if len(std) == 1 else std,
            "include_bias": sec.getboolean("include_bias", fallback=False),
        })
    except (KeyError, ValueError) as exc:
        raise ConfigFileError(f"bad config file {path}: {exc}") from exc


def entropy_prefix(seed: int, stream: int, *fields: int) -> tuple[int, ...]:
    """The entropy prefix of one sampling operation: the seed, the
    operation's stream tag, then integer fields of its own. Raises
    ValueError for a seed outside the integers [0, 2^32): 2^32 and up
    would alias other seeds' streams."""
    if not (is_int(seed) and 0 <= seed < _MAX_SEED):
        raise ValueError(f"seed must be in [0, 2^32), got {seed!r}")
    if not all(is_int(f) for f in fields):
        raise ValueError(f"entropy fields must be integers, got {fields!r}")
    return (seed, stream, *fields)


def sample_input(dim: int, seed: int) -> np.ndarray:
    """Standard-normal input vector, drawn once for all weight draws."""
    if not (is_int(dim) and dim >= 1):
        raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
    return _generator(entropy_prefix(seed, STREAM_INPUT)).standard_normal(dim)


@dataclass
class UnitSampleSet:
    """Monte-Carlo draws of one unit, stored as (sign, log-magnitude) pairs.

    signs are int8 in {-1, 0, +1}; log_magnitudes are natural logs with
    -inf for exact zeros. decode() reconstructs sign * exp(log_magnitude).
    """

    layer: int
    kind: str
    unit_index: int
    signs: np.ndarray
    log_magnitudes: np.ndarray

    def __post_init__(self):
        if self.kind not in ("pre", "post", "pooled-max", "pooled-average"):
            raise ValueError(f"bad sample kind {self.kind!r}")
        if self.signs.shape != self.log_magnitudes.shape:
            raise ValueError("signs and log_magnitudes must have equal length")

    @property
    def n_samples(self) -> int:
        return int(self.signs.shape[0])

    def decode(self) -> np.ndarray:
        """sign * exp(log_magnitude); may produce inf if magnitudes exceed
        double-precision range (the estimators avoid this by staying in
        log domain)."""
        with np.errstate(over="ignore"):
            return self.signs * np.exp(self.log_magnitudes)


def _finite_lanes(lm: np.ndarray) -> np.ndarray | None:
    """lm != -inf, for _exp; None when lm holds no -inf (an exact zero's
    log-magnitude). An all-finite lm costs one reduction and no copy."""
    return None if np.min(lm) > -np.inf else lm != -np.inf


def _exp(x: np.ndarray, finite: np.ndarray | None) -> np.ndarray:
    """np.exp(x) in place, bit for bit, where x is -inf wherever finite
    (from _finite_lanes) is False.

    numpy's exp leaves its vector kernel for any block that holds a -inf
    (10^5 values, half of them -inf: 8x slower, numpy 2.4), and it gives
    each finite lane the same bits either way. So no -inf reaches it: those
    lanes take the stand-in +0.0, whose bit pattern is all zeros, and the
    mask then turns their exp(0) = 1 into the +0.0 of exp(-inf). Sums over
    x keep their order, so they keep their bits too.
    """
    if finite is None:
        return np.exp(x, out=x)
    bits = x.view(np.int64)
    np.multiply(bits, finite, out=bits)
    np.exp(x, out=x)
    return np.multiply(x, finite, out=x)


def _generator(key, spawn_key=()) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(list(key), spawn_key=spawn_key)))


@functools.lru_cache(maxsize=None)
def _fair_table(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Walker's alias table of Bin(n, 1/2): (lo, prob, alias) over the
    counts lo .. n - lo, the arrays read-only.

    Each column's mass C(n, k) m / 2^n (m columns) is one exact integer
    division, so it is correctly rounded; Walker's small/large pairing then
    runs in plain Python floats. So the table is the same on every IEEE
    machine and rests on no libm call. By Hoeffding, C(n, k) m / 2^n is
    below e^-746, so it rounds to 0.0, where |2k - n| exceeds
    sqrt(2n (746 + B)), B the bit length of n + 1 (B > log(n + 1) >= log m);
    those counts get no column. So lo = 0 up to n = 1514, and the table has
    about 39 sqrt(n) columns beyond.

    The big-integer coefficients cost about n^1.5 to build, once per n and
    process. On one core of a 2-core Xeon: about 1 ms at n = 10^3, 16-21 ms
    at 10^4, 0.5-0.7 s at 10^5 and 24-30 s at 10^6."""
    lo = max(0, (n - math.isqrt(2 * n * (746 + (n + 1).bit_length())) + 1) // 2)
    m, total, c = n + 1 - 2 * lo, 1 << n, math.comb(n, lo)
    half = []
    for k in range(lo, n // 2 + 1):
        half.append(c * m / total)
        c = c * (n - k) // (k + 1)
    # C(n, k) = C(n, n - k); an even n's middle column appears once
    scaled = half + half[::-1][1 - n % 2:]
    prob, alias = [1.0] * m, list(range(m))
    small = [i for i, p in enumerate(scaled) if p < 1.0]
    large = [i for i, p in enumerate(scaled) if p >= 1.0]
    while small and large:
        s, g = small.pop(), large.pop()
        prob[s], alias[s] = scaled[s], g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        (small if scaled[g] < 1.0 else large).append(g)
    # the columns left over are full (1.0 up to rounding), their own alias
    prob, alias = np.array(prob), np.array(alias, dtype=np.intp)
    prob.flags.writeable = alias.flags.writeable = False
    return lo, prob, alias


def _fair_count(rng: np.random.Generator, n: int, b: int) -> np.ndarray:
    """b draws of Bin(n, 1/2), one uniform U each, from _fair_table: with
    x = U m and i = floor x, lo + i if x - i < prob[i], else lo + alias[i].
    n = 0 draws nothing, as rng.binomial did."""
    if n == 0:
        return np.zeros(b, dtype=np.intp)
    lo, prob, alias = _fair_table(n)
    x = rng.random(b)
    x *= prob.size
    # U <= 1 - 2^-53, and (1 - 2^-53) m rounds below m for every integer
    # m < 2^53 (m 2^-53 is more than half the spacing of doubles below m),
    # so i <= m - 1 needs no clip
    i = x.astype(np.intp)
    x -= i
    return np.where(x < prob[i], i, alias[i]) + lo


def _conditional_chunk(config: NetworkConfig, log_q0: float, key: tuple,
                       b: int, counts: dict[int, int]):
    """One chunk of b draws: per layer l of counts, the (signs,
    log-magnitudes) of its units 0..counts[l]-1, each of shape
    (b, counts[l]), from _layer_step on layers 1 up to the top one asked
    for. key is the chunk's entropy (request prefix plus chunk index)."""
    top = max(counts)
    out = {}
    log_r = np.full(b, math.log(config.weight_std_for(1)) + 0.5 * log_q0)
    for layer in range(1, top + 1):
        signs, logabs, log_sq = _layer_step(
            config.nonlinearity, log_r, _generator(key, spawn_key=(layer,)),
            config.layer_widths[layer - 1], counts.get(layer, 0), layer < top)
        if layer in counts:
            out[layer] = signs, logabs
        if layer < top:
            if config.include_bias:
                log_sq = np.logaddexp(log_sq, 0.0)
            log_r = math.log(config.weight_std_for(layer + 1)) + 0.5 * log_sq
    return out


def _layer_step(phi: NonlinearitySpec, log_r: np.ndarray, rng, H: int,
                j: int, norm: bool):
    """One layer of H units, i.i.d. N(0, r^2) given log r per row. Returns
    the (signs, log-magnitudes) of units 0..j-1, each of shape (rows, j),
    and log ||phi(r Z)||^2 per row if norm, else None.

    The sign and magnitude of each Z are independent, so one step serves
    every activation. With k = max(j, 1) it reads rng in this order:
    - Z_0 .. Z_{k-1} ~ N(0, 1), units 0..k-1 exactly, as one (k, rows)
      block: unit m's normals after unit m - 1's; with no norm it stops
      here;
    - N ~ Bin(H - k, 1/2), the positives among the other H - k units, one
      uniform per row by _fair_count (none where k = H);
    - per sign group, positive then negative, its chi-square sum S if phi
      is a slope on that side, else its |Z| row after row (_curved_group,
      which sums the group's part of the norm as it draws each block of
      rows); a group on a slope-0 side (relu's negative one) adds +0.0 to
      the norm and is never drawn. A curved side that is the constant c
      past its saturation point T splits its group at t = T / (the chunk's
      smallest r) where P(|Z| < t) <= _SPLIT_P (_split): it draws each
      row's count below t, then only those |Z|, and each saturated entry
      adds c^2.
    The norm then takes units 0..k-1 as one more group per side, the sum of
    their Z^2 on that side of a slope side and a |Z| group of 0 to k
    entries on a curved one, and adds the groups' parts in this order in
    _log_sq_norm. So relu, prelu and identity cost O(k) per row whatever
    H; elu and selu draw the |Z| of their negative units, tanh and sigmoid
    all H - k, so theirs cost O(H) time, but a chunk holds only O(k) of
    them per row, plus one block. A split group draws about p H of them, p
    its share below t: deep in an elu net, where r grows, that is a few
    percent."""
    b = log_r.shape[0]
    k = max(j, 1)
    z = rng.standard_normal((k, b))
    with np.errstate(divide="ignore"):
        logabs = log_r + np.log(np.abs(z[:j]))
    signs = np.sign(z[:j]).astype(np.int8)
    signs[np.isneginf(logabs)] = 0
    if not norm:
        return signs.T, logabs.T, None
    n_pos = _fair_count(rng, H - k, b)
    both = sides(phi)
    # a curved side's part of the norm is summed as its group is drawn,
    # with r = 1 on rows that take _log_sq_norm's log-domain fallback
    r = None
    if any(side.slope is None for side in both):
        r = np.exp(np.where(np.abs(log_r) < _LINEAR_LOG_R, log_r, 0.0))
    lo = float(np.min(log_r))
    groups = []
    for sign, side, n in zip((1.0, -1.0), both, (n_pos, H - k - n_pos)):
        if side.slope == 0:
            d = None
        elif side.slope is None:
            d = _curved_group(rng, sign, side, n, r, _split(side, lo))
        else:
            d = rng.standard_gamma(0.5 * n)
            d *= 2.0
        groups.append((sign, side, n, d))
    pos = z > 0
    for (sign, side, _, _), t in zip(groups[:2], (pos, ~pos)):
        n = d = None
        if side.slope is None:
            # a row's entries are its units' |Z| on this side, in unit order
            zt, tt = z.T, t.T
            n = np.count_nonzero(tt, axis=1)
            part = np.zeros(b)
            with np.errstate(over="ignore", invalid="ignore"):
                _sq_rows(np.abs(zt[tt]), side, sign * r, n, np.cumsum(n) - n,
                         part)
            d = _Curved(part, lambda rows, zt=zt, tt=tt:
                        np.abs(zt[tt & rows[:, None]]), n, None)
        elif side.slope != 0:
            d = np.where(t, z * z, 0.0)
            d = d[0] if k == 1 else np.sum(d, axis=0)
        groups.append((sign, side, n, d))
    return signs.T, logabs.T, _log_sq_norm(log_r, r, groups)


class _Curved(NamedTuple):
    """A |Z| group as a layer step keeps it, never all of its entries:
    part, per row the plain-double sum of phi(sign r |Z_i|)^2 over them;
    entries(rows), the |Z| below the split point of the rows where the mask
    rows holds, back to back, for the log-domain fallback of _log_sq_norm;
    below, per row the number of entries below the split point; cut, the
    split point t of _curved_group, or None where the group was not split
    and every entry counts as below it."""

    part: np.ndarray
    entries: Callable
    below: np.ndarray
    cut: float | None


def _split(side, lo: float):
    """(t, p) at which a chunk's |Z| group on a curved side splits, or
    None: t = T / e^lo for the side's saturation point T and the chunk's
    smallest log r, lo, so that r |Z| >= T on every row where |Z| >= t, and
    p = P(|Z| < t). None where the side has no saturation point or where
    p > _SPLIT_P (a chunk with a dead row, lo = -inf, never splits)."""
    if side.saturation is None or not lo > math.log(side.saturation[0]):
        return None
    t = side.saturation[0] * math.exp(-lo)
    p = math.erf(t / math.sqrt(2.0))
    return (t, p) if p <= _SPLIT_P else None


def _below_counts(rng, n: np.ndarray, p: float) -> np.ndarray:
    """Per row, how many of its n[i] entries fall below the split point,
    each with probability p: Bin(n[i], p) per row, or, where fewer than one
    per row is expected (p sum(n) < rows), the places of those entries in
    the flattened group, whose gaps are Geometric(p), drawn in rounds of a
    few more than the expected rest. Each is the cheaper one there: at 4096
    rows of about 50 entries numpy 2.4 takes 0.70, 0.30 and 0.24 ms for
    the binomials at p = 0.25, 0.02 and 1e-3, and 2.9, 0.30 and 0.06 ms
    for the gaps."""
    if p == 0.0:  # t below about 1e-308: no entry is below it
        return np.zeros_like(n)
    ends = np.cumsum(n)
    total = int(ends[-1])
    if p * total >= n.size:
        return rng.binomial(n, p)
    places, last = [], -1
    while last < total:
        # a gap past the end ends the group; the clip keeps the sum of gaps
        # from overflowing, where numpy returns 2^63 - 1 for p near 1e-19
        gaps = rng.geometric(p, int(p * (total - last)) + 16)
        at = last + np.cumsum(np.minimum(gaps, total + 1))
        places.append(at[at < total])
        last = int(at[-1])
    return np.bincount(np.searchsorted(ends, np.concatenate(places),
                                       side="right"), minlength=n.size)


def _normals(rng, e: np.ndarray) -> np.ndarray:
    """Fills e with |Z|, Z standard normal."""
    rng.standard_normal(out=e)
    return np.abs(e, out=e)


def _below(t: float, rng, e: np.ndarray) -> np.ndarray:
    """Fills e with |Z| given |Z| < t, by rejection: x = t U is kept where
    an Exp(1) draw exceeds x^2 / 2, so with probability e^(-x^2 / 2), at
    least 0.95 for every t that _split takes. Each round draws the
    uniforms, then the exponentials, of a few more candidates than are
    missing, and keeps the first accepted ones."""
    done = 0
    while done < e.size:
        k = e.size - done
        m = k + (k >> 4) + 8
        x = rng.random(m)
        x *= t
        keep = x[np.square(x) * 0.5 < rng.standard_exponential(m)][:k]
        e[done:done + keep.size] = keep
        done += keep.size
    return e


def _blocks(rng, n: np.ndarray, fill):
    """(a, z, starts, e) for each block of rows a..z-1 of a |Z| group of
    n[i] entries in row i: e holds their |Z|, back to back in row order,
    written by fill(rng, e) into one buffer that every block reuses, and
    starts the place of each row's first entry in e. So with _normals the
    blocks read rng as one standard_normal call of all the entries would. A
    block holds about _BLOCK entries, or one row where a row holds more."""
    b = n.shape[0]
    ends = np.cumsum(n)
    starts = ends - n
    step = max(1, _BLOCK * b // max(1, int(ends[-1])))
    rows = [(a, min(a + step, b)) for a in range(0, b, step)]
    spans = [(int(starts[a]), int(ends[z - 1])) for a, z in rows]
    buf = np.empty(max(hi - lo for lo, hi in spans))
    for (a, z), (lo, hi) in zip(rows, spans):
        yield a, z, starts[a:z] - lo, fill(rng, buf[:hi - lo])


def _curved_group(rng, sign: float, side, n: np.ndarray, r, split):
    """The _Curved of a |Z| group of n[i] entries in row i, its part summed
    at the rows' r. Without a split (split None) rng draws every entry in
    _blocks. With one, (t, p) from _split, rng first draws each row's count
    below t, Bin(n[i], p) (_below_counts), then only those entries, from
    |Z| given |Z| < t (_below), in _blocks. Each of the others has
    phi(sign r |Z|) = c, the side's saturation constant, so the part adds
    c^2 per entry and nothing is drawn for them. The fallback's entries are
    drawn again from rng's state before the blocks, by a generator of their
    own."""
    t, below, fill = None, n, _normals
    if split is not None:
        t, p = split
        below = _below_counts(rng, n, p)
        fill = functools.partial(_below, t)
    state = rng.bit_generator.state
    part, sr = np.zeros(n.shape[0]), sign * r
    with np.errstate(over="ignore", invalid="ignore"):
        for a, z, starts, e in _blocks(rng, below, fill):
            _sq_rows(e, side, sr[a:z], below[a:z], starts, part[a:z])
        if t is not None:
            # no 0 x inf where c^2 overflows, as elu(1e308)'s does
            sat, c = n - below, side.saturation[1]
            part += np.where(sat > 0, sat * (c * c), 0.0)

    def entries(rows):
        bits = np.random.PCG64()  # its seed is replaced by the saved state
        bits.state = state
        again = np.random.Generator(bits)
        return np.concatenate([e[np.repeat(rows[a:z], below[a:z])]
                               for a, z, _, e in _blocks(again, below, fill)])

    return _Curved(part, entries, below, t)


def _sq_rows(e: np.ndarray, side, sr: np.ndarray, n: np.ndarray,
             starts: np.ndarray, out: np.ndarray):
    """Writes into out, which holds zeros, the sum over each row of
    phi(sr e)^2, sr the row's r times the group's sign, over its entries
    of e: n[i] for row i from starts[i] on. In plain doubles and in place
    in e: sr |Z_i|, phi of it, squared, then one reduceat over the rows
    that have entries (it would give an empty row the next entry)."""
    e *= np.repeat(sr, n)
    e = np.square(side.value(e), out=e)
    full = n > 0
    out[full] = np.add.reduceat(e, starts[full])


def _log_sq_norm(log_r: np.ndarray, r, groups):
    """log ||phi(r Z)||^2 of each row, r = e^log_r, from a layer's
    (sign, side, count, draw) groups: c^2 r^2 S for a group of slope c and
    sum S, and phi(+-r |Z_i|)^2 summed over a |Z| group. A group of slope 0
    adds +0.0 and is left out (its draw may be None). With both sides
    slopes that is 2 log r + log(lam^2 S+ + a^2 S-) at any depth.

    Otherwise r is e^log_r where |log r| < _LINEAR_LOG_R and 1 elsewhere,
    each |Z| group is a _Curved whose part was summed in plain doubles,
    block by block as the group was drawn, and the parts add in group
    order. A row keeps that sum if |log r| is below _LINEAR_LOG_R and the
    sum is a finite, positive, normal double. The rest sum log|phi(+-r e)|
    by log-sum-exp, log r + log e through the side's log form for each
    entry e of a group: sqrt(S) of a slope's, each |Z_i| of a curved one,
    which its entries() draws again from the group's saved generator
    state. A split group's m saturated entries of a row are one more term,
    log|c| + log(m) / 2, for m c^2. Only those rows' entries are held, in a
    matrix padded with -inf whose exp goes through _exp, off numpy's slow
    path.
    """
    groups = [g for g in groups if g[1].slope != 0]
    if all(side.slope is not None for _, side, _, _ in groups):
        with np.errstate(divide="ignore"):
            return 2.0 * log_r + np.log(sum(side.slope**2 * d
                                            for _, side, _, d in groups))
    lin = np.abs(log_r) < _LINEAR_LOG_R
    sq = np.zeros(r.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for _, side, _, d in groups:
            sq += d.part if side.slope is None else (side.slope * r) ** 2 * d
    ok = lin & (sq >= np.finfo(float).tiny) & (sq < np.inf)
    log_sq = np.log(np.where(ok, sq, 1.0))
    if np.all(ok):
        return log_sq
    rest = ~ok
    # a row's cells of a group: 1 for a slope's, its entries below the
    # split point for a |Z| group's, and one more for its saturated ones
    sizes = [np.ones(np.sum(rest), int) if side.slope is not None
             else d.below[rest] + (d.cut is not None)
             for _, side, _, d in groups]
    col = np.arange(np.max(sum(sizes)))
    logabs = np.full((sizes[0].size, col.size), -np.inf)
    start = np.zeros_like(sizes[0])
    for (sign, side, n, d), size in zip(groups, sizes):
        if side.slope is not None:
            k, e = size, np.sqrt(d[rest])
        else:
            k, e = d.below[rest], d.entries(rest)
            if d.cut is not None:
                # m saturated entries add m c^2: log|c| + log(m) / 2
                with np.errstate(divide="ignore"):
                    logabs[np.arange(k.size), start + k] = (
                        math.log(abs(side.saturation[1]))
                        + 0.5 * np.log(n[rest] - k))
        cells = (col >= start[:, None]) & (col < (start + k)[:, None])
        with np.errstate(divide="ignore"):
            lm = np.repeat(log_r[rest], k) + np.log(e)
        logabs[cells] = side.log(sign, lm)[1]
        start = start + size
    m = np.max(logabs, axis=1)
    with np.errstate(invalid="ignore"):
        x = 2.0 * (logabs - m[:, None])
        lse = 2.0 * m + np.log(np.sum(_exp(x, _finite_lanes(x)), axis=1))
    # m = -inf where every phi(r e) is 0, as in a dead row of elu or tanh
    log_sq[rest] = np.where(np.isneginf(m), -np.inf, lse)
    return log_sq


def worker_threads(workers: int, n_chunks: int) -> int:
    """Threads for one sampler pass: at most the workers asked for, the
    machine's cores and the number of chunks."""
    if not (is_int(workers) and workers >= 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    return min(workers, os.cpu_count() or 1, n_chunks)


def check_request(config: NetworkConfig, x, n_samples: int,
                  needs: dict[int, list[int]], kind: str,
                  workers: int) -> np.ndarray:
    """run_sampler's request checks, made before any draw: x, n_samples,
    kind, each layer and its unit indices, then workers; ValueError names
    the first that fails. Returns x as a float array."""
    x = np.asarray(x, dtype=float)
    if x.shape != (config.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({config.input_dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("input has non-finite entries")
    if not (is_int(n_samples) and n_samples >= 1):
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    if kind not in ("pre", "post"):
        raise ValueError(f"kind must be 'pre' or 'post', got {kind!r}")
    if not needs:
        raise ValueError("no layers requested")
    for layer, units in needs.items():
        if not (is_int(layer) and 1 <= layer <= config.depth):
            raise ValueError(f"layer {layer!r} out of range 1..{config.depth}")
        if len(units) == 0:
            raise ValueError(f"no units requested for layer {layer}")
        if len(set(units)) != len(units):
            raise ValueError("unit indices must be distinct")
        H = config.layer_widths[layer - 1]
        if not all(is_int(i) and 0 <= i < H for i in units):
            raise ValueError(f"unit indices {units!r} out of range for layer {layer}")
    worker_threads(workers, 1)
    return x


def layer1_sq_norm(config: NetworkConfig, x: np.ndarray) -> float:
    """||x||^2, plus 1 with a bias: the layer-1 scale r_1^2 / sigma_1^2."""
    # not np.dot: OpenBLAS threads it above 1e4 entries, and its last bit,
    # which scales every draw, then depends on the core count
    return math.fsum(x * x) + (1.0 if config.include_bias else 0.0)


def run_sampler(config: NetworkConfig, x: np.ndarray, n_samples: int,
                needs: dict[int, list[int]], entropy: tuple[int, ...],
                kind: str = "pre",
                workers: int = 1) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The one sampler pass: validates the request (check_request),
    allocates the result's arrays and runs its chunks, each of which writes
    its rows of the requested units into them, through apply_signed_log
    first when kind is "post". So a request holds its result plus one
    chunk's working arrays per thread, whatever its kind.

    needs maps 1-based layers to lists of distinct 0-based unit indices;
    n_samples, layers and indices are integers (errors.is_int), and an
    empty needs raises "no layers requested". Returns, per requested
    layer, (signs, log_magnitudes) arrays of shape (n_samples, len(units)),
    columns in the order given; kind "pre" gives g(l), "post" applies the
    nonlinearity to them. Layer l's draws depend on the request only
    through k_1..k_l, k_i = 1 + the largest index asked of layer i (1 when
    none is): unit m of layer l does not depend on k_l, on deeper layers
    or on the worker count, but units asked of a lower layer change it.
    """
    x = check_request(config, x, n_samples, needs, kind, workers)
    q0 = layer1_sq_norm(config, x)
    if q0 >= np.finfo(float).tiny:
        log_q0 = math.log(q0)
    else:
        # x.x underflows for |x| below about 1e-154; a zero input without
        # bias zeroes layer 1, so every row starts dead (log r = -inf)
        log_q0 = 2.0 * math.log(math.hypot(*x)) if np.any(x) else -math.inf
    # the chunk steps draw the leading units of a layer up to the last one
    # requested, in index order (k as a Python int: _fair_table is cached
    # by H - k and calls its bit_length); each chunk writes its rows of the
    # requested columns straight into out, whose arrays are column-major:
    # a row-wise reduction across units (max pooling of 10^5 rows of 4
    # units) runs about 4 times faster on them than on row-major ones
    counts = {layer: int(max(units)) + 1 for layer, units in needs.items()}
    out = {layer: (np.empty((n_samples, len(units)), np.int8, order="F"),
                   np.empty((n_samples, len(units)), order="F"))
           for layer, units in needs.items()}

    def one_chunk(idx):
        start = idx * DEFAULT_CHUNK
        rows = slice(start, min(start + DEFAULT_CHUNK, n_samples))
        got = _conditional_chunk(config, log_q0, (*entropy, idx),
                                 rows.stop - rows.start, counts)
        for layer, units in needs.items():
            if kind == "pre":
                for src, dst in zip(got[layer], out[layer]):
                    for col, unit in enumerate(units):
                        dst[rows, col] = src[:, unit]
                continue
            # elementwise, so a chunk's rows get the bytes a whole layer's
            # would, and no pre arrays outlive the chunk
            post = apply_signed_log(config.nonlinearity,
                                    *(a[:, units] for a in got[layer]))
            for src, dst in zip(post, out[layer]):
                dst[rows] = src

    n_chunks = -(-n_samples // DEFAULT_CHUNK)
    threads = worker_threads(workers, n_chunks)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(one_chunk, range(n_chunks)))
    else:
        for idx in range(n_chunks):
            one_chunk(idx)
    return out


def sample_layer_units(config: NetworkConfig, x: np.ndarray, layers,
                       kind: str, n_samples: int, seed: int,
                       workers: int = 1) -> dict[int, UnitSampleSet]:
    """Unit 0 of several layers from a single propagation pass."""
    needs = {layer: [0] for layer in sorted(set(layers))}
    got = run_sampler(config, x, n_samples, needs,
                      entropy_prefix(seed, STREAM_UNITS), kind, workers=workers)
    return {layer: UnitSampleSet(layer=layer, kind=kind, unit_index=0,
                                 signs=signs[:, 0], log_magnitudes=lms[:, 0])
            for layer, (signs, lms) in got.items()}


def sample_joint_units(config: NetworkConfig, x: np.ndarray, layer: int,
                       unit_indices, kind: str, n_samples: int,
                       entropy: tuple[int, ...], workers: int = 1):
    """Joint draws of several units of one layer (shared weight draws).

    Returns (signs, log_magnitudes) of shape (n_samples, len(unit_indices)),
    columns in the order given. Callers own the entropy prefix.
    """
    return run_sampler(config, x, n_samples, {layer: unit_indices}, entropy,
                       kind, workers=workers)[layer]
