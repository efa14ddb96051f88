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
depth can overflow (and a zero input gives log r_1 = -inf, a dead row),
and picks its layer step by the activation:

* relu, prelu and identity are positively homogeneous, phi(r z) = r phi(z),
  so ||h(l)||^2 = r_l^2 S_l with S_l = lam^2 chi2_N + a^2 chi2_{H-N}, where
  N ~ Bin(H, 1/2) counts the positive units and lam and a are the slopes
  of the two sides. The exact step draws N, S+ = chi2_N and S- = chi2_{H-N},
  then only the requested units, by stick-breaking conditional on them: with
  N' positives left among H' remaining units, a unit is positive with
  probability N'/H', and its Z^2 is S' Beta(1/2, (K'-1)/2), where S' and K'
  are the remaining sum and count of its group (all of S' when K' = 1).
  A layer costs O(units requested) per draw, whatever its width.
* elu and selu are linear on the positive side only. Their half step draws
  N and S+ likewise, then in place of S- the |Z| of the H - N negative
  units: ||h(l)||^2 = lam^2 r_l^2 S+ + sum_i phi(-r_l |Z_i|)^2, O(H - N)
  per layer per draw. A requested negative unit takes its row's next
  unused |Z_i|, which is exact because the group is exchangeable.
* tanh and sigmoid draw the full (b, H) matrix of normals Z: O(H).
These two sum in plain doubles; rows with |log r| of 300 or more, dead
rows (r = 0) and rows whose sum is not a finite, positive, normal double
apply phi in (sign, log-magnitude) form and sum by log-sum-exp instead.

"direct" draws a fresh weight matrix per layer per draw and runs the
forward pass literally, in linear arithmetic: O(H_l H_{l-1}) normals per
layer per draw, and deep configurations can overflow (LayerOverflowError).
It is the ground-truth oracle; it is reached through
sample_units(..., method="direct") and run_sampler.

Streams. Samples are generated in fixed-size chunks: DEFAULT_CHUNK draws
for the conditional method, _DIRECT_CHUNK for the direct one. An entropy
prefix E is (seed, stream tag, fields of the operation), built by
entropy_prefix, which accepts seeds in [0, 2^32) only. Chunk c of a
request with entropy prefix E draws from SeedSequence(E + [c]), except in
the exact step, where layer l of chunk c owns the child stream
SeedSequence(E + [c], spawn_key=(l,)). A layer stream yields N, S+ and S-
(the half step: each row's negative |Z|), then per unit in index order a
uniform (its sign group), a normal and a chi-square (its share of S+ or S-).
So results are bit-identical for a given (config, x, seed) whatever the
worker count, and unit m's draws are the same whether it is requested
alone, with other units of its layer, or with other layers.
SAMPLER_VERSION numbers this seed-to-draws mapping; run manifests record
it.
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

from .errors import ConfigFileError, LayerOverflowError
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
SAMPLER_VERSION = 5

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

# The full-matrix step sums a row in plain doubles while |log r| is below
# this: r Z and the sum of H squares of phi(r Z) then stay far inside
# double range (e^600 against about e^709).
_LINEAR_LOG_R = 300.0


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture, prior scale, nonlinearity, and base seed."""

    input_dim: int
    layer_widths: tuple[int, ...]
    nonlinearity: NonlinearitySpec
    weight_std: float | tuple[float, ...] = 1.0
    include_bias: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        widths = tuple(int(w) for w in self.layer_widths)
        object.__setattr__(self, "layer_widths", widths)
        if len(widths) == 0 or any(w < 1 for w in widths):
            raise ValueError("layer_widths must be non-empty with all widths >= 1")
        std = self.weight_std
        if isinstance(std, (int, float)):
            std = float(std)
            stds = (std,) * len(widths)
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
        std = d["weight_std"]
        return cls(input_dim=int(d["input_dim"]),
                   layer_widths=tuple(d["layer_widths"]),
                   nonlinearity=NonlinearitySpec.parse(d["nonlinearity"]),
                   weight_std=tuple(std) if isinstance(std, list) else float(std),
                   include_bias=bool(d["include_bias"]),
                   seed=int(d["seed"]))

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

    key is the chunk's entropy (request prefix plus chunk index).
    """
    if side_slopes(config.nonlinearity)[0] is not None:
        return _exact_chunk(config, log_q0, key, b, needs)
    return _matrix_chunk(config, log_q0, _generator(key), b, needs)


def _exact_chunk(config: NetworkConfig, log_q0: float, key: tuple, b: int,
                 needs: dict[int, int]):
    """Exact layer step of an activation with a linear positive side: per
    layer, the positive count and the two chi-square sums (the negative
    units' |Z| in the half step), then the requested units."""
    lam, a = side_slopes(config.nonlinearity)
    top = max(needs)
    out = {}
    log_r = np.full(b, math.log(config.weight_std_for(1)) + 0.5 * log_q0)
    for layer in range(1, top + 1):
        H = config.layer_widths[layer - 1]
        rng = _generator(key, spawn_key=(layer,))
        n_pos = rng.binomial(H, 0.5, size=b)
        s_pos = 2.0 * rng.standard_gamma(0.5 * n_pos)
        if a is None:  # the H - N negative units' |Z|, row after row
            s_neg, z_neg = None, np.abs(rng.standard_normal(np.sum(H - n_pos)))
        else:
            s_neg, z_neg = 2.0 * rng.standard_gamma(0.5 * (H - n_pos)), None
        if layer in needs:
            out[layer] = _stick_break(rng, log_r, H, n_pos, s_pos, s_neg,
                                      z_neg, needs[layer])
        if layer == top:
            break
        if a is None:
            log_sq = _half_log_sq_norm(config.nonlinearity, log_r, s_pos,
                                       z_neg, H - n_pos)
        else:
            with np.errstate(divide="ignore"):
                log_sq = 2.0 * log_r + np.log(lam**2 * s_pos + a**2 * s_neg)
        if config.include_bias:
            log_sq = np.logaddexp(log_sq, 0.0)
        log_r = math.log(config.weight_std_for(layer + 1)) + 0.5 * log_sq
    return out


def _stick_break(rng, log_r: np.ndarray, H: int, n_pos: np.ndarray,
                 s_pos: np.ndarray, s_neg, z_neg, j: int):
    """Units 0..j-1 of a layer of H units, drawn in index order given the
    number of positive units and the sums of Z^2 over each sign group; in
    the half step, a negative unit takes its row's next unused z_neg."""
    b = log_r.shape[0]
    n_pos = n_pos.copy()
    n_neg = H - n_pos
    if z_neg is not None:  # padded, so rows with no |Z| left index in range
        s_neg, ends, z_neg = np.zeros(b), np.cumsum(n_neg), np.append(z_neg, 0)
    signs = np.empty((b, j), dtype=np.int8)
    logabs = np.empty((b, j))
    for i in range(j):
        pos = rng.random(b) * (H - i) < n_pos
        k = np.where(pos, n_pos, n_neg)
        s = np.where(pos, s_pos, s_neg)
        # Z^2 / S' ~ Beta(1/2, (K'-1)/2), drawn as chi2_1 / (chi2_1 +
        # chi2_{K'-1}); the last unit of a group takes all that is left.
        u = rng.standard_normal(b) ** 2
        rest = 2.0 * rng.standard_gamma(0.5 * (k - 1))
        z2 = np.where(k == 1, s, s * (u / (u + rest)))
        if z_neg is not None:
            z2 = np.where(pos, z2, z_neg[ends - n_neg] ** 2)
        n_pos -= pos
        n_neg -= ~pos
        s_pos = np.where(pos, s_pos - z2, s_pos)
        s_neg = np.where(pos, s_neg, s_neg - z2)
        with np.errstate(divide="ignore"):
            logabs[:, i] = log_r + 0.5 * np.log(z2)
        signs[:, i] = np.where(pos, 1, -1)
    signs[np.isneginf(logabs)] = 0
    return signs, logabs


def _half_log_sq_norm(phi: NonlinearitySpec, log_r, s_pos, z_neg, n_neg):
    """_log_sq_norm for the half step: lam^2 r^2 S+ plus phi(-r z)^2 over
    the row's n_neg entries z of the flat z_neg (reduceat skips empty rows,
    giving them 0, not the next entry). Log-domain rows are reduced as
    [sqrt(S+), -z..., 0...]: phi(r sqrt(S+))^2 = lam^2 r^2 S+, phi(0) = 0."""
    lin = np.abs(log_r) < _LINEAR_LOG_R
    r = np.exp(np.where(lin, log_r, 0.0))
    full, neg_sq = n_neg > 0, np.zeros(r.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        h = apply(phi, np.repeat(-r, n_neg) * z_neg)
        neg_sq[full] = np.add.reduceat(h * h, (np.cumsum(n_neg) - n_neg)[full])
        sq = (side_slopes(phi)[0] * r) ** 2 * s_pos + neg_sq
    ok = lin & (sq >= np.finfo(float).tiny) & (sq < np.inf)
    log_sq = np.log(np.where(ok, sq, 1.0))
    if not np.all(ok):
        rest, n = ~ok, n_neg[~ok]
        V = np.zeros((n.size, 1 + np.max(n)))
        V[:, 0] = np.sqrt(s_pos[rest])
        V[:, 1:][np.arange(np.max(n)) < n[:, None]] = \
            -z_neg[np.repeat(rest, n_neg)]
        log_sq[rest] = _log_sq_norm_signed_log(phi, log_r[rest], V)
    return log_sq


def _matrix_chunk(config: NetworkConfig, log_q0: float, rng, b: int,
                  needs: dict[int, int]):
    """Full-matrix layer step for activations with no linear side (tanh,
    sigmoid): every unit of every layer up to the deepest requested.

    Each layer draws its (b, H) normals Z in one call. The requested units
    are (sign, log r + log|Z|) of their columns; _log_sq_norm sums the
    norm of h = phi(r Z).
    """
    top = max(needs)
    out = {}
    log_r = np.full(b, math.log(config.weight_std_for(1)) + 0.5 * log_q0)
    for layer in range(1, top + 1):
        H = config.layer_widths[layer - 1]
        Z = rng.standard_normal((b, H))
        if layer in needs:
            out[layer] = _scaled(log_r, Z[:, :needs[layer]])
        if layer == top:
            break
        log_sq = _log_sq_norm(config.nonlinearity, log_r, Z)
        if config.include_bias:
            log_sq = np.logaddexp(log_sq, 0.0)
        log_r = math.log(config.weight_std_for(layer + 1)) + 0.5 * log_sq
    return out


def _scaled(log_r: np.ndarray, Z: np.ndarray):
    """(sign, log|g|) of g = r Z row by row; every unit of a dead row
    (log r = -inf) is zero."""
    with np.errstate(divide="ignore"):
        logabs = log_r[:, None] + np.log(np.abs(Z))
    signs = np.sign(Z).astype(np.int8)
    dead = np.isneginf(log_r)
    signs[dead] = 0
    logabs[dead] = -np.inf
    return signs, logabs


def _log_sq_norm(phi: NonlinearitySpec, log_r: np.ndarray, Z: np.ndarray):
    """log sum_i phi(r Z_i)^2 for each row of Z, where r = e^log_r: in plain
    doubles for rows with |log r| below _LINEAR_LOG_R whose sum is a finite,
    positive, normal double, else by _log_sq_norm_signed_log."""
    lin = np.abs(log_r) < _LINEAR_LOG_R
    r = np.exp(np.where(lin, log_r, 0.0))
    with np.errstate(over="ignore"):
        h = apply(phi, Z * r[:, None])
        sq = np.einsum("ij,ij->i", h, h)
    ok = lin & (sq >= np.finfo(float).tiny) & (sq < np.inf)
    log_sq = np.log(np.where(ok, sq, 1.0))
    if not np.all(ok):
        rest = ~ok
        log_sq[rest] = _log_sq_norm_signed_log(phi, log_r[rest], Z[rest])
    return log_sq


def _log_sq_norm_signed_log(phi: NonlinearitySpec, log_r: np.ndarray,
                            Z: np.ndarray):
    """_log_sq_norm in (sign, log-magnitude) form, by log-sum-exp: finite
    at any |log r|, and -inf for a dead row."""
    _, logabs_h = apply_signed_log(phi, *_scaled(log_r, Z))
    m = np.max(logabs_h, axis=1)
    with np.errstate(invalid="ignore"):
        log_sq = 2.0 * m + np.log(
            np.sum(np.exp(2.0 * (logabs_h - m[:, None])), axis=1))
    return np.where(np.isneginf(m), -np.inf, log_sq)


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
