"""Feed-forward networks with Gaussian weight priors and their unit samplers.

The model is the usual recursion

    g(l) = W(l) h(l-1),    h(l) = phi(g(l)),    h(0) = x,

with every weight (and bias, when enabled) of layer l drawn i.i.d.
N(0, sigma_l^2). The object of study is the prior distribution of a single
unit g(l)_m or h(l)_m for a fixed input x, across independent weight draws.

Sampling. run_sampler is the one sampler pass: it validates a request
(units per layer, before or after the nonlinearity), draws it in chunks
and returns the requested columns. sample_units, sample_layer_units,
sample_joint_units and covariance_verifier.sweep call it directly. It has
two methods. Both produce the same joint law of the requested units; they
are different pseudorandom mappings from the seed, and the test suite
cross-checks them.

"conditional" (the default) rests on the exact identity that, given
h(l-1), the H_l entries of g(l) are i.i.d. N(0, r_l^2) with
r_l^2 = sigma_l^2 (||h(l-1)||^2 + 1 if bias). It carries log r_l, so no
depth can overflow (and a zero input gives log r_1 = -inf, a dead row).
The sign and magnitude of each Z are independent, so one layer step serves
every activation: it draws N ~ Bin(H, 1/2) positive units, then per sign
group S = chi2 of the group's size if phi is linear on that side with
slope c (adding c^2 r_l^2 S to ||h(l)||^2), else the group's |Z|. Then it
draws only the requested units, by stick-breaking: with N' positives left
among H' remaining units, a unit is positive with probability N'/H'. In a
chi-square group its Z^2 is S' Beta(1/2, (K'-1)/2), S' and K' being the
group's remaining sum and count (all of S' when K' = 1); in a |Z| group it
takes its row's next unused |Z_i|, exact as the group is exchangeable.
relu, prelu and identity are linear on both sides, so a layer costs
O(units requested) per draw whatever its width; elu and selu draw the |Z|
of their H - N negative units, tanh and sigmoid all H. Those sum in plain
doubles; rows with |log r| of 300 or more, dead rows (r = 0) and rows
whose sum is not a finite, positive, normal double apply phi in (sign,
log-magnitude) form and sum by log-sum-exp instead.

"direct" draws a fresh weight matrix per layer per draw and runs the
forward pass literally, in linear arithmetic: O(H_l H_{l-1}) normals per
layer per draw, and deep configurations can overflow (LayerOverflowError).
It is the ground-truth oracle; it is reached through
sample_units(..., method="direct") and run_sampler.

Streams. Samples are generated in fixed-size chunks: DEFAULT_CHUNK draws
for the conditional method, _DIRECT_CHUNK for the direct one. An entropy
prefix E is (seed, stream tag, fields of the operation), built by
entropy_prefix, which accepts seeds in [0, 2^32) only. Chunk c of a
request with entropy prefix E draws from SeedSequence(E + [c]) in the
direct method; in the conditional one, layer l of chunk c owns the child
stream SeedSequence(E + [c], spawn_key=(l,)). A layer stream yields N, then
per sign group S or its |Z|, then per unit in index order a uniform (its
sign group), a normal and a chi-square (its share of S). So results are
bit-identical for a given (config, x, seed) whatever the worker count, and
unit m's draws are the same whether it is requested alone, with other
units of its layer, or with other layers. SAMPLER_VERSION numbers this
seed-to-draws mapping; run manifests record it.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigFileError, LayerOverflowError, is_json_type
from .nonlinearity import NonlinearitySpec, apply, apply_signed_log, side_slopes

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
SAMPLER_VERSION = 6

# Entropy stream tags; every sampling operation owns a tag so streams
# never collide across operations.
STREAM_UNITS = 1
STREAM_COVARIANCE = 2
STREAM_POOLING = 3
STREAM_INPUT = 5
STREAM_DIRECT = 7
STREAM_SYNTHETIC = 8

# The fixed chunking policy, part of the seed-to-draws mapping. The direct
# method materializes (chunk, H, H_prev) weight blocks, so its chunks are
# smaller, to bound memory.
DEFAULT_CHUNK = 4096
_DIRECT_CHUNK = 256

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
                "include_bias": bool, "seed": int}


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture, prior scale and nonlinearity. seed is serialized (by
    to_dict, in the INI file and in config_hash) but selects no draw: the
    samplers take their seed as an argument, the CLI's --seed."""

    input_dim: int
    layer_widths: tuple[int, ...]
    nonlinearity: NonlinearitySpec
    weight_std: float | tuple[float, ...] = 1.0
    include_bias: bool = False
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.input_dim, (int, np.integer)) or self.input_dim < 1:
            raise ValueError(f"input_dim must be an integer >= 1, got {self.input_dim!r}")
        if not isinstance(self.include_bias, (bool, np.bool_)):
            raise ValueError(f"include_bias must be a bool, got {self.include_bias!r}")
        object.__setattr__(self, "input_dim", int(self.input_dim))
        object.__setattr__(self, "include_bias", bool(self.include_bias))
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) == 0 or any(w < 1 for w in widths):
            raise ValueError("layer_widths must be non-empty with all widths >= 1")
        std = self.weight_std
        if isinstance(std, (int, float)):
            stds = (float(std),) * len(widths)
        else:
            stds = tuple(float(s) for s in std)
            object.__setattr__(self, "weight_std", stds)
            if len(stds) != len(widths):
                raise ValueError("per-layer weight_std must match layer count")
        if any(not (s > 0 and math.isfinite(s)) for s in stds):
            raise ValueError("weight_std entries must be strictly positive and finite")
        if not (0 <= int(self.seed) < _MAX_SEED):
            raise ValueError(f"seed must be in [0, 2^32), got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))

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
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkConfig":
        """The inverse of to_dict; ValueError names the fields that are
        missing or whose JSON type is wrong (a bool is not a number here)."""
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
                   include_bias=d["include_bias"], seed=d["seed"])

    def config_hash(self) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _ini_value(v) -> str:
    if isinstance(v, list):
        return ",".join(repr(e) for e in v)
    if isinstance(v, bool):
        return str(v).lower()
    return v if isinstance(v, str) else repr(v)


def write_config_file(path, config: NetworkConfig) -> None:
    parser = configparser.ConfigParser()
    parser["network"] = {k: _ini_value(v) for k, v in config.to_dict().items()}
    with open(path, "w") as fh:
        parser.write(fh)


def parse_config_file(path) -> NetworkConfig:
    """Read a [network] section config file; its keys are those of
    NetworkConfig.to_dict, and every key but input_dim and layer_widths
    has a default."""
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
            "seed": int(sec.get("seed", "0")),
        })
    except (KeyError, ValueError) as exc:
        raise ConfigFileError(f"bad config file {path}: {exc}") from exc


def entropy_prefix(seed: int, stream: int, *fields: int) -> tuple[int, ...]:
    """The entropy prefix of one sampling operation: the seed, the
    operation's stream tag, then fields of its own. Raises ValueError for
    a seed outside [0, 2^32), which would alias other seeds' streams."""
    if not (0 <= int(seed) < _MAX_SEED):
        raise ValueError(f"seed must be in [0, 2^32), got {seed}")
    return (int(seed), stream, *(int(f) for f in fields))


def sample_input(dim: int, seed: int) -> np.ndarray:
    """Standard-normal input vector, drawn once for all weight draws."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
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


def _conditional_chunk(config: NetworkConfig, log_q0: float, key: tuple,
                       b: int, needs: dict[int, int]):
    """One chunk of the conditional sampler; returns pre arrays per layer.
    key is the chunk's entropy (request prefix plus chunk index). A layer
    draws N, then for the positive and the negative group its chi-square
    sum if side_slopes gives that side a slope, else its |Z| row after row."""
    slopes = side_slopes(config.nonlinearity)
    top = max(needs)
    out = {}
    log_r = np.full(b, math.log(config.weight_std_for(1)) + 0.5 * log_q0)
    for layer in range(1, top + 1):
        H = config.layer_widths[layer - 1]
        rng = _generator(key, spawn_key=(layer,))
        n_pos = rng.binomial(H, 0.5, size=b)
        counts = (n_pos, H - n_pos)
        draws = [2.0 * rng.standard_gamma(0.5 * n) if c is not None
                 else np.abs(rng.standard_normal(np.sum(n)))
                 for c, n in zip(slopes, counts)]
        if layer in needs:
            out[layer] = _stick_break(rng, log_r, H, slopes, counts, draws,
                                      needs[layer])
        if layer == top:
            break
        log_sq = _log_sq_norm(config.nonlinearity, log_r, counts, draws)
        if config.include_bias:
            log_sq = np.logaddexp(log_sq, 0.0)
        log_r = math.log(config.weight_std_for(layer + 1)) + 0.5 * log_sq
    return out


def _stick_break(rng, log_r: np.ndarray, H: int, slopes, counts, draws,
                 j: int):
    """Units 0..j-1 of a layer of H units, drawn in index order given the
    size of each sign group and its draw: a unit of a chi-square group
    takes a Beta share of the group's sum, a unit of a |Z| group its row's
    next unused entry (exact, since the group is exchangeable)."""
    b = log_r.shape[0]
    left = [n.copy() for n in counts]
    sums = [d if c is not None else np.zeros(b) for c, d in zip(slopes, draws)]
    # a |Z| group's next entry sits at ends - left; the padding keeps rows
    # with none left in range
    flats = [None if c is not None else (np.append(d, 0), np.cumsum(n))
             for c, d, n in zip(slopes, draws, counts)]
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
                z2 = np.where(t, flat[0][flat[1] - n] ** 2, z2)
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
    over a |Z| group. With both sides linear that is
    2 log r + log(lam^2 S+ + a^2 S-) at any depth. Otherwise a row sums in
    plain doubles if |log r| is below _LINEAR_LOG_R and the sum is a
    finite, positive, normal double (reduceat skips empty rows, giving them
    0, not the next entry); the rest apply phi in (sign, log-magnitude)
    form and sum by log-sum-exp, each row as its groups' entries
    [+-sqrt(S) or +-|Z_i|...], as phi(+-r sqrt(S))^2 = c^2 r^2 S. Rows
    differ in length only beside a linear side's one entry, and phi(0) = 0
    when a side is linear, so the zeros that pad them add nothing.
    """
    slopes = side_slopes(phi)
    if None not in slopes:
        (lam, a), (s_pos, s_neg) = slopes, draws
        with np.errstate(divide="ignore"):
            return 2.0 * log_r + np.log(lam**2 * s_pos + a**2 * s_neg)
    groups = list(zip((1.0, -1.0), slopes, counts, draws))
    lin = np.abs(log_r) < _LINEAR_LOG_R
    r = np.exp(np.where(lin, log_r, 0.0))
    sq = np.zeros(r.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for sign, c, n, d in groups:
            if c is not None:
                sq += (c * r) ** 2 * d
                continue
            h = apply(phi, np.repeat(sign * r, n) * d)
            part, full = np.zeros_like(sq), n > 0
            part[full] = np.add.reduceat(h * h, (np.cumsum(n) - n)[full])
            sq += part
    ok = lin & (sq >= np.finfo(float).tiny) & (sq < np.inf)
    log_sq = np.log(np.where(ok, sq, 1.0))
    if np.all(ok):
        return log_sq
    rest = ~ok
    sizes = [np.ones(np.sum(rest), int) if c is not None else n[rest]
             for _, c, n, _ in groups]
    col = np.arange(np.max(sum(sizes)))
    V, start = np.zeros((sizes[0].size, col.size)), np.zeros_like(sizes[0])
    for (sign, c, n, d), k in zip(groups, sizes):
        cells = (col >= start[:, None]) & (col < (start + k)[:, None])
        V[cells] = sign * (np.sqrt(d[rest]) if c is not None
                           else d[np.repeat(rest, n)])
        start = start + k
    with np.errstate(divide="ignore"):
        logabs = log_r[rest, None] + np.log(np.abs(V))
    _, logabs = apply_signed_log(phi, np.sign(V).astype(np.int8), logabs)
    m = np.max(logabs, axis=1)
    with np.errstate(invalid="ignore"):
        lse = 2.0 * m + np.log(np.sum(np.exp(2.0 * (logabs - m[:, None])),
                                      axis=1))
    # m = -inf where every phi(r V_i) is 0, as in a dead row of elu or tanh
    log_sq[rest] = np.where(np.isneginf(m), -np.inf, lse)
    return log_sq


def _direct_chunk(config: NetworkConfig, x: np.ndarray, rng, b: int,
                  needs: dict[int, int]):
    """One chunk of the direct sampler: fresh weights per draw, literal
    forward pass, then encode to sign/log form."""
    top = max(needs)
    out = {}
    h = np.broadcast_to(x, (b, x.shape[0]))
    for layer in range(1, top + 1):
        H = config.layer_widths[layer - 1]
        hin = (np.concatenate([h, np.ones((b, 1))], axis=1)
               if config.include_bias else h)
        W = config.weight_std_for(layer) * rng.standard_normal((b, H, hin.shape[1]))
        g = np.einsum("bij,bj->bi", W, hin)
        if not np.all(np.isfinite(g)):
            raise LayerOverflowError(layer)
        if layer in needs:
            j = needs[layer]
            gj = g[:, :j]
            with np.errstate(divide="ignore"):
                out[layer] = (np.sign(gj).astype(np.int8), np.log(np.abs(gj)))
        if layer == top:
            break
        h = apply(config.nonlinearity, g)
    return out


def worker_threads(workers: int, n_chunks: int) -> int:
    """Threads for one sampler pass: at most the workers asked for, the
    machine's cores and the number of chunks."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, os.cpu_count() or 1, n_chunks)


def run_sampler(config: NetworkConfig, x: np.ndarray, n_samples: int,
                needs: dict[int, list[int]], entropy: tuple[int, ...],
                kind: str = "pre", method: str = "conditional",
                workers: int = 1) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """The one sampler pass: validates the request, runs the chunks of its
    method ("conditional" or "direct", each with its fixed chunk size) and
    returns the requested units.

    needs maps 1-based layers to lists of distinct 0-based unit indices.
    Returns, per requested layer, (signs, log_magnitudes) arrays of shape
    (n_samples, len(units)), columns in the order given; kind "pre" gives
    g(l), "post" applies the nonlinearity to them. The draws of a unit do
    not depend on which other units and layers are requested.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (config.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({config.input_dim},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("input has non-finite entries")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if method not in ("conditional", "direct"):
        raise ValueError(f"unknown sampling method {method!r}")
    if kind not in ("pre", "post"):
        raise ValueError(f"kind must be 'pre' or 'post', got {kind!r}")
    for layer, units in needs.items():
        if not (1 <= layer <= config.depth):
            raise ValueError(f"layer {layer} out of range 1..{config.depth}")
        if len(set(units)) != len(units):
            raise ValueError("unit indices must be distinct")
        if any(not (0 <= i < config.layer_widths[layer - 1]) for i in units):
            raise ValueError(f"unit indices out of range for layer {layer}")
    if not needs:
        return {}

    # the chunk steps draw the leading units of a layer up to the last one
    # requested, in index order
    counts = {layer: max(units) + 1 for layer, units in needs.items()}
    size = _DIRECT_CHUNK if method == "direct" else DEFAULT_CHUNK
    chunks = [(i, min(size, n_samples - start))
              for i, start in enumerate(range(0, n_samples, size))]
    q0 = float(np.dot(x, x)) + (1.0 if config.include_bias else 0.0)
    if q0 >= np.finfo(float).tiny:
        log_q0 = math.log(q0)
    else:
        # x.x underflows for |x| below about 1e-154; a zero input without
        # bias zeroes layer 1, so every row starts dead (log r = -inf)
        log_q0 = 2.0 * math.log(math.hypot(*x)) if np.any(x) else -math.inf

    def one_chunk(task):
        idx, b = task
        key = (*entropy, idx)
        if method == "conditional":
            return _conditional_chunk(config, log_q0, key, b, counts)
        return _direct_chunk(config, x, _generator(key), b, counts)

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


def sample_units(config: NetworkConfig, x: np.ndarray, layer: int,
                 unit_index: int, kind: str, n_samples: int, seed: int,
                 method: str = "conditional",
                 workers: int = 1) -> UnitSampleSet:
    """Draw n_samples of one unit, each draw from an independent prior
    weight set (up to the sampling method's reparametrization).

    unit_index is 0-based. kind "pre" gives g(l)_m, "post" gives
    phi(g(l)_m).
    """
    stream = STREAM_UNITS if method == "conditional" else STREAM_DIRECT
    signs, lms = run_sampler(config, x, n_samples, {layer: [unit_index]},
                             entropy_prefix(seed, stream), kind, method,
                             workers)[layer]
    return UnitSampleSet(layer=layer, kind=kind, unit_index=unit_index,
                         signs=signs[:, 0], log_magnitudes=lms[:, 0])


def sample_layer_units(config: NetworkConfig, x: np.ndarray, layers,
                       kind: str, n_samples: int, seed: int,
                       workers: int = 1) -> dict[int, UnitSampleSet]:
    """Unit 0 of several layers from a single propagation pass."""
    needs = {layer: [0] for layer in sorted(set(int(l) for l in layers))}
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
    units = [int(i) for i in unit_indices]
    return run_sampler(config, x, n_samples, {layer: units}, entropy, kind,
                       workers=workers)[layer]
