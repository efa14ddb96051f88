"""Feed-forward networks with Gaussian weight priors and their unit samplers.

The model is the usual recursion

    g(l) = W(l) h(l-1),    h(l) = phi(g(l)),    h(0) = x,

with every weight (and bias, when enabled) of layer l drawn i.i.d.
N(0, sigma_l^2). The object of study is the prior distribution of a single
unit g(l)_m or h(l)_m for a fixed input x, across independent weight draws.

Sampling. run_sampler is the one sampler pass: it validates a request
(units per layer, before or after the nonlinearity), draws it in chunks
and returns the requested columns. Its draw count, layers and unit
indices, like every seed, are Python or numpy integers (errors.is_int),
used as given: a float or bool raises ValueError, as does a request for
no layers. sample_layer_units, sample_joint_units and
covariance_verifier.sweep call it directly. It never materializes a
weight matrix: it rests on the exact identity that, given h(l-1), the
H_l entries of g(l) are i.i.d. N(0, r_l^2) with
r_l^2 = sigma_l^2 (||h(l-1)||^2 + 1 if bias). It carries log r_l, so no
depth can overflow (and a zero input gives log r_1 = -inf, a dead row).
The units are i.i.d. given r_l, so a layer step first draws unit 0 as
Z_0 ~ N(0, 1): g(l)_0 = r_l Z_0 exactly, and a top layer asked for unit 0
alone stops there. The sign and magnitude of each other Z are
independent, so one step serves every activation: it draws
N ~ Bin(H - 1, 1/2) positive units among the other H - 1, from an exact
Walker alias table of that law built once per width (one uniform per
row, O(1) whatever H; the table's masses are exact binomial
coefficients over 2^(H - 1), correctly rounded), then per sign
group S = chi2 of the group's size if phi is linear on that side with
slope c (adding c^2 r_l^2 S to ||h(l)||^2), else the group's |Z|. Unit 0
joins the norm as one more group per side: Z_0^2 or 0 on a slope side,
a |Z| group of 0 or 1 entries on a curved one; the norm leaves out every
group on a slope-0 side, which adds +0.0. Then it draws only the
requested units 1.., by stick-breaking: with N' positives left among H'
remaining units, a unit is positive with probability N'/H'. In a
chi-square group its Z^2 is S' Beta(1/2, (K'-1)/2), S' and K' being the
group's remaining sum and count (all of S' when K' = 1); in a |Z| group it
takes its row's next unused |Z_i|, exact as the group is exchangeable.
relu, prelu and identity are linear on both sides, so a layer costs
O(units requested) per draw whatever its width; elu and selu draw the |Z|
of their negative units, tanh and sigmoid all H - 1, so their layers
cost O(H) per draw. A |Z| group sums in plain doubles in one buffer,
little more than the work of its normal draws: r |Z_i| with the group's
sign, phi's one-sided form in place (the side's Side.value), its
square, then one reduceat per row. Rows with |log r| of 300 or more, dead
rows (r = 0) and rows whose sum is not a finite, positive, normal double
pass log r + log|Z_i| through phi's log form and sum by log-sum-exp.
The test suite checks this sampler in law against a literal forward pass
with a fresh weight matrix per layer per draw.

Streams. Samples are generated in chunks of DEFAULT_CHUNK draws. An
entropy prefix E is (seed, stream tag, fields of the operation), built by
entropy_prefix, which accepts seeds in [0, 2^32) only. Layer l of chunk c
of a request with prefix E owns the child stream
SeedSequence(E + [c], spawn_key=(l,)). A layer stream yields Z_0, then
one uniform per row for N' (none in a width-1 layer, where N' = 0), then
per sign group S or its |Z|, then per unit 1, 2, .. in index
order a uniform (its sign group), a normal and a chi-square (its share of
S). Every layer draws Z_0, requested or not. The stream stops after the
last group that is read: a group on a slope-0 side (relu's negative one)
adds +0.0 to the norm, so only a stick-broken unit of its layer reads it,
and it is drawn only then or when a later group of the stream is. So
results are bit-identical for a given (config, x, seed) whatever the
worker count, and unit m's draws are the same whether it is requested
alone, with other units of its layer, or with other layers.
SAMPLER_VERSION numbers this seed-to-draws mapping; run manifests record
it. Stream tag 7 is held by the test suite's forward-pass oracle.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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
#    The moment-slope fit (tail_analysis._wls) still calls BLAS, pinned by
#    test_tail_sweep_bytes_do_not_depend_on_blas_threads.
# 9: N' from an exact alias table of Bin(H - 1, 1/2), one uniform per row,
#    instead of rng.binomial; the same law and slot, a new stream for every
#    family (width-1 layers, which draw no N', keep theirs).
SAMPLER_VERSION = 9

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
        raise ConfigFileError(f"malformed config file {path}: {exc}") from exc
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
                       b: int, needs: dict[int, int]):
    """One chunk of the conditional sampler; returns pre arrays per layer.
    key is the chunk's entropy (request prefix plus chunk index). A layer
    draws unit 0's Z, then N' of its other H - 1 units, then for the
    positive and the negative group its chi-square sum if that side of phi
    is a slope, else its |Z| row after row; trailing slope-0 groups only
    when units 1.. are asked for. The top layer stops after Z when unit 0
    is all it is asked for."""
    curved = [side.slope is None for side in sides(config.nonlinearity)]
    zero = [side.slope == 0 for side in sides(config.nonlinearity)]
    top = max(needs)
    out = {}
    log_r = np.full(b, math.log(config.weight_std_for(1)) + 0.5 * log_q0)
    for layer in range(1, top + 1):
        H = config.layer_widths[layer - 1]
        rng = _generator(key, spawn_key=(layer,))
        z0 = rng.standard_normal(b)
        if layer in needs:
            with np.errstate(divide="ignore"):
                logabs = (log_r + np.log(np.abs(z0)))[:, None]
            signs = np.sign(z0).astype(np.int8)[:, None]
            signs[np.isneginf(logabs)] = 0
            out[layer] = signs, logabs
        if layer == top and needs[layer] == 1:
            break
        stick = needs.get(layer, 1) > 1
        n_pos = _fair_count(rng, H - 1, b)
        counts = (n_pos, H - 1 - n_pos)
        draws = []
        for g, (c, n) in enumerate(zip(curved, counts)):
            if not stick and all(zero[g:]):
                # a slope-0 group adds +0.0 to the norm and no group after
                # it is drawn, so only stick-broken units would read it
                d = None
            elif c:
                d = rng.standard_normal(np.sum(n))
                np.abs(d, out=d)
            else:
                d = rng.standard_gamma(0.5 * n)
                d *= 2.0
            draws.append(d)
        if stick:
            rest = _stick_break(rng, log_r, H - 1, curved, counts, draws,
                                needs[layer] - 1)
            out[layer] = tuple(np.hstack(p) for p in zip(out[layer], rest))
        if layer == top:
            break
        # unit 0 joins the norm as one more group per side: z0^2 or 0 on a
        # slope side, a |Z| group of 0 or 1 entries on a curved one, nothing
        # on a slope-0 side, which the norm leaves out
        pos0 = z0 > 0
        n0 = pos0.astype(int)
        counts += (n0, 1 - n0)
        draws += [None if z else np.abs(z0[t]) if c
                  else np.where(t, z0 * z0, 0.0)
                  for c, z, t in zip(curved, zero, (pos0, ~pos0))]
        log_sq = _log_sq_norm(config.nonlinearity, log_r, counts, draws)
        if config.include_bias:
            log_sq = np.logaddexp(log_sq, 0.0)
        log_r = math.log(config.weight_std_for(layer + 1)) + 0.5 * log_sq
    return out


def _stick_break(rng, log_r: np.ndarray, H: int, curved, counts, draws,
                 j: int):
    """Units 0..j-1 of a layer of H units, drawn in index order given the
    size of each sign group and its draw: a unit of a chi-square group
    takes a Beta share of the group's sum, a unit of a |Z| group (curved)
    its row's next unused entry (exact, since the group is exchangeable)."""
    b = log_r.shape[0]
    left = [n.copy() for n in counts]
    sums = [np.zeros(b) if c else d for c, d in zip(curved, draws)]
    # a |Z| group's next entry sits at ends - left; rows with none left
    # never take one, so clipping their index past the last entry is safe,
    # and an empty group (all units on the other side) has nothing to read
    flats = [(d, np.cumsum(n)) if c and d.size else None
             for c, d, n in zip(curved, draws, counts)]
    signs = np.empty((b, j), dtype=np.int8)
    logabs = np.empty((b, j))
    for i in range(j):
        pos = rng.random(b) * (H - i) < left[0]
        k = np.where(pos, *left)
        s = np.where(pos, *sums)
        # Z^2 / S' ~ Beta(1/2, (K'-1)/2), drawn as chi2_1 / (chi2_1 +
        # chi2_{K'-1}); the last unit of a group takes all that is left.
        u = rng.standard_normal(b) ** 2
        rest = 2.0 * rng.standard_gamma(0.5 * (k - 1))
        z2 = np.where(k == 1, s, s * (u / (u + rest)))
        took = (pos, ~pos)
        for t, n, flat in zip(took, left, flats):
            if flat is not None:
                z2 = np.where(t, flat[0].take(flat[1] - n, mode="clip") ** 2,
                              z2)
        for g, t in enumerate(took):
            left[g] -= t
            sums[g] = np.where(t, sums[g] - z2, sums[g])
        with np.errstate(divide="ignore"):
            logabs[:, i] = log_r + 0.5 * np.log(z2)
        signs[:, i] = np.where(pos, 1, -1)
    signs[np.isneginf(logabs)] = 0
    return signs, logabs


def _log_sq_norm(phi: NonlinearitySpec, log_r: np.ndarray, counts, draws):
    """log ||phi(r Z)||^2 of each row, r = e^log_r, from a layer's draws:
    c^2 r^2 S for a group of slope c and sum S, and phi(+-r |Z_i|)^2 summed
    over a |Z| group. counts and draws list the groups in sign order
    (positive, negative), then again for unit 0's own pair of groups; the
    sides and signs repeat with them. A group of slope 0 adds +0.0 and is
    left out (its draw may be None). With both sides slopes that is
    2 log r + log(lam^2 S+ + a^2 S-) at any depth. Otherwise a row sums in
    plain doubles if |log r| is below _LINEAR_LOG_R and the sum is a
    finite, positive, normal double (reduceat skips empty rows, giving them
    0, not the next entry); the rest sum log|phi(+-r e)| by log-sum-exp,
    log r + log e through the side's log form for each entry e of a group,
    sqrt(S) of a slope's or each |Z_i|, in a matrix padded with -inf.
    """
    groups = [g for g in zip((1.0, -1.0) * 2, sides(phi) * 2, counts, draws)
              if g[1].slope != 0]
    if all(side.slope is not None for _, side, _, _ in groups):
        with np.errstate(divide="ignore"):
            return 2.0 * log_r + np.log(sum(side.slope**2 * d
                                            for _, side, _, d in groups))
    lin = np.abs(log_r) < _LINEAR_LOG_R
    r = np.exp(np.where(lin, log_r, 0.0))
    sq = np.zeros(r.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for sign, side, n, d in groups:
            if side.slope is not None:
                sq += (side.slope * r) ** 2 * d
                continue
            # one buffer: r |Z_i| with the group's sign, phi of it, squared
            h = np.repeat(sign * r, n)
            h *= d
            h = np.square(side.value(h), out=h)
            part, full = np.zeros_like(sq), n > 0
            part[full] = np.add.reduceat(h, (np.cumsum(n) - n)[full])
            sq += part
    ok = lin & (sq >= np.finfo(float).tiny) & (sq < np.inf)
    log_sq = np.log(np.where(ok, sq, 1.0))
    if np.all(ok):
        return log_sq
    rest = ~ok
    sizes = [np.ones(np.sum(rest), int) if side.slope is not None else n[rest]
             for _, side, n, _ in groups]
    col = np.arange(np.max(sum(sizes)))
    logabs = np.full((sizes[0].size, col.size), -np.inf)
    start = np.zeros_like(sizes[0])
    for (sign, side, n, d), k in zip(groups, sizes):
        cells = (col >= start[:, None]) & (col < (start + k)[:, None])
        e = np.sqrt(d[rest]) if side.slope is not None else d[np.repeat(rest, n)]
        with np.errstate(divide="ignore"):
            lm = np.repeat(log_r[rest], k) + np.log(e)
        logabs[cells] = side.log(sign, lm)[1]
        start = start + k
    m = np.max(logabs, axis=1)
    with np.errstate(invalid="ignore"):
        lse = 2.0 * m + np.log(np.sum(np.exp(2.0 * (logabs - m[:, None])),
                                      axis=1))
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
    """The one sampler pass: validates the request (check_request), runs
    its chunks and returns the requested units.

    needs maps 1-based layers to lists of distinct 0-based unit indices;
    n_samples, layers and indices are integers (errors.is_int), and an
    empty needs raises "no layers requested". Returns, per requested
    layer, (signs, log_magnitudes) arrays of shape (n_samples, len(units)),
    columns in the order given; kind "pre" gives g(l), "post" applies the
    nonlinearity to them. The draws of a unit do not depend on which other
    units and layers are requested.
    """
    x = check_request(config, x, n_samples, needs, kind, workers)
    # the chunk steps draw the leading units of a layer up to the last one
    # requested, in index order
    counts = {layer: max(units) + 1 for layer, units in needs.items()}
    chunks = [(i, min(DEFAULT_CHUNK, n_samples - start))
              for i, start in enumerate(range(0, n_samples, DEFAULT_CHUNK))]
    q0 = layer1_sq_norm(config, x)
    if q0 >= np.finfo(float).tiny:
        log_q0 = math.log(q0)
    else:
        # x.x underflows for |x| below about 1e-154; a zero input without
        # bias zeroes layer 1, so every row starts dead (log r = -inf)
        log_q0 = 2.0 * math.log(math.hypot(*x)) if np.any(x) else -math.inf

    def one_chunk(task):
        idx, b = task
        return _conditional_chunk(config, log_q0, (*entropy, idx), b, counts)

    threads = worker_threads(workers, len(chunks))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_chunk, chunks))
    else:
        results = [one_chunk(t) for t in chunks]

    merged = {layer: (np.concatenate([r[layer][0] for r in results], axis=0),
                      np.concatenate([r[layer][1] for r in results], axis=0))
              for layer in needs}
    # free the chunks before selecting columns: holding both raised the
    # peak RSS of a 5e5-draw, three-layer request by about 10 MB
    del results
    out = {}
    for layer, units in needs.items():
        signs, lms = merged.pop(layer)
        signs, lms = signs[:, units], lms[:, units]
        if kind == "post":
            signs, lms = apply_signed_log(config.nonlinearity, signs, lms)
        out[layer] = (signs, lms)
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
