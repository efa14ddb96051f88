"""Feed-forward networks with Gaussian weight priors and their unit samplers.

The model is the usual recursion

    g(l) = W(l) h(l-1),    h(l) = phi(g(l)),    h(0) = x,

with every weight (and bias, when enabled) of layer l drawn i.i.d.
N(0, sigma_l^2). The object of study is the prior distribution of a single
unit g(l)_m or h(l)_m for a fixed input x, across independent weight draws.

Sampling paths. All of them produce the same joint law of the requested
units; they are different pseudorandom mappings from the seed, and the
test suite cross-checks them.

"conditional" (the default) rests on the exact identity that, given
h(l-1), the H_l entries of g(l) are i.i.d. N(0, r_l^2) with
r_l^2 = sigma_l^2 (||h(l-1)||^2 + 1 if bias). It carries log r_l, so no
depth can overflow, and picks its layer step by the activation:

* relu, prelu and identity are positively homogeneous, phi(r z) = r phi(z),
  so ||h(l)||^2 = r_l^2 S_l with S_l = chi2_N + a^2 chi2_{H-N}, where
  N ~ Bin(H, 1/2) counts the positive units and a is the negative-side
  slope. The exact step draws N, S+ = chi2_N and S- = chi2_{H-N}, then
  only the requested units, by stick-breaking conditional on them: with
  N' positives left among H' remaining units, a unit is positive with
  probability N'/H', and its Z^2 is S' Beta(1/2, (K'-1)/2), where S' and K'
  are the remaining sum and count of its group (all of S' when K' = 1).
  A layer costs O(units requested) per draw, whatever its width.
* elu, selu, tanh and sigmoid draw the full (b, H) matrix of normals Z
  and sum ||phi(r Z)||^2 row by row in plain doubles: O(H) per layer per
  draw. Rows with |log r| of 300 or more, dead rows (r = 0) and rows
  whose sum is not a finite, positive, normal double apply the
  activation in (sign, log-magnitude) form and reduce the norm by
  log-sum-exp instead.

"direct" materializes a fresh weight set per draw and runs the forward
pass literally, in linear arithmetic: O(H_l H_{l-1}) normals per layer per
draw, and deep configurations can overflow. It is the ground truth.

Streams. Samples are generated in fixed-size chunks. Chunk c of a request
with entropy prefix E draws from SeedSequence(E + [c]), except in the exact
step, where layer l of chunk c owns the child stream
SeedSequence(E + [c], spawn_key=(l,)). A layer stream yields N, S+ and S-
first; then, for units 0, 1, ... in index order, a uniform (the unit's
sign group), a normal and a chi-square (its share of the group's sum).
So results are bit-identical for a given (config, x, seed, chunking
policy) whatever the worker count, and unit m's draws are the same whether
it is requested alone, with other units of its layer, or with other
layers. SAMPLER_VERSION numbers this seed-to-draws mapping; run manifests
record it.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigFileError, LayerOverflowError
from .nonlinearity import (NonlinearitySpec, apply, apply_signed_log,
                           is_positively_homogeneous)

# Version of the seed-to-draws mapping, recorded in run manifests.
# 1: full-matrix conditional step for every activation.
# 2: exact stick-breaking step for relu, prelu and identity.
# 3: linear-domain norm for elu, selu, tanh and sigmoid; the same stream
#    as version 2, whose outputs differ from it by rounding only.
SAMPLER_VERSION = 3

# Entropy stream tags; every sampling operation owns a tag so streams
# never collide across operations.
STREAM_UNITS = 1
STREAM_COVARIANCE = 2
STREAM_POOLING = 3
STREAM_INPUT = 5
STREAM_WEIGHTS = 6
STREAM_DIRECT = 7
STREAM_SYNTHETIC = 8

DEFAULT_CHUNK = 4096
# The direct method materializes (chunk, H, H_prev) weight blocks; its
# chunk size is part of the fixed chunking policy, chosen to bound memory.
_DIRECT_CHUNK = 256

_MAX_SEED = 2**64

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
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def depth(self) -> int:
        return len(self.layer_widths)

    def weight_std_for(self, layer: int) -> float:
        """sigma_w of the given 1-based layer."""
        if isinstance(self.weight_std, tuple):
            return self.weight_std[layer - 1]
        return float(self.weight_std)

    def canonical_string(self) -> str:
        std = self.weight_std
        std_txt = (",".join(repr(s) for s in std)
                   if isinstance(std, tuple) else repr(float(std)))
        return (f"input_dim={self.input_dim};"
                f"layer_widths={','.join(str(w) for w in self.layer_widths)};"
                f"nonlinearity={self.nonlinearity};"
                f"weight_std={std_txt};"
                f"include_bias={self.include_bias};"
                f"seed={self.seed}")

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_string().encode()).hexdigest()[:16]


def write_config_file(path, config: NetworkConfig) -> None:
    parser = configparser.ConfigParser()
    std = config.weight_std
    parser["network"] = {
        "input_dim": str(config.input_dim),
        "layer_widths": ",".join(str(w) for w in config.layer_widths),
        "nonlinearity": str(config.nonlinearity),
        "weight_std": (",".join(repr(s) for s in std)
                       if isinstance(std, tuple) else repr(float(std))),
        "include_bias": str(config.include_bias).lower(),
        "seed": str(config.seed),
    }
    with open(path, "w") as fh:
        parser.write(fh)


def parse_config_file(path) -> NetworkConfig:
    """Read a [network] section config file; see write_config_file for keys."""
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
        widths = tuple(int(w) for w in sec["layer_widths"].split(","))
        std_txt = sec.get("weight_std", "1.0")
        std_parts = [float(s) for s in std_txt.split(",")]
        std = std_parts[0] if len(std_parts) == 1 else tuple(std_parts)
        return NetworkConfig(
            input_dim=int(sec["input_dim"]),
            layer_widths=widths,
            nonlinearity=NonlinearitySpec.parse(sec.get("nonlinearity", "relu")),
            weight_std=std,
            include_bias=sec.getboolean("include_bias", fallback=False),
            seed=int(sec.get("seed", "0")),
        )
    except (KeyError, ValueError) as exc:
        raise ConfigFileError(f"bad config file {path}: {exc}") from exc


def input_hash(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, dtype=float).tobytes()).hexdigest()[:16]


def sample_input(dim: int, seed: int) -> np.ndarray:
    """Standard-normal input vector, drawn once for all weight draws."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(seed), STREAM_INPUT])))
    return rng.standard_normal(dim)


@dataclass(frozen=True)
class WeightSet:
    """Per-layer weight matrices, shape H_l x (H_{l-1} + 1 if bias)."""

    matrices: tuple[np.ndarray, ...]
    include_bias: bool = False
    seed: int | None = None

    def n_entries(self) -> int:
        return sum(m.size for m in self.matrices)


def sample_weights(config: NetworkConfig, seed: int) -> WeightSet:
    """Draw one full weight set from the prior; bit-reproducible per seed."""
    mats = []
    prev = config.input_dim
    for layer, width in enumerate(config.layer_widths, start=1):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([int(seed), STREAM_WEIGHTS, layer])))
        cols = prev + (1 if config.include_bias else 0)
        mats.append(config.weight_std_for(layer) * rng.standard_normal((width, cols)))
        prev = width
    return WeightSet(tuple(mats), config.include_bias, int(seed))


@dataclass
class ForwardResult:
    """Per-layer (g, h) pairs plus any rescaling constants applied to h."""

    pairs: list[tuple[np.ndarray, np.ndarray]]
    rescale_constants: list[float]

    def g(self, layer: int) -> np.ndarray:
        return self.pairs[layer - 1][0]

    def h(self, layer: int) -> np.ndarray:
        return self.pairs[layer - 1][1]


def forward(weights: WeightSet, x: np.ndarray, config: NetworkConfig,
            rescale: bool = False) -> ForwardResult:
    """Propagate one input through one weight set.

    With rescale=True each layer's h is divided by max(1, max|h|) and the
    constant recorded; the tail parameter is invariant to positive scaling
    so every quantity under test is unchanged while arithmetic stays finite.
    Without it, a non-finite intermediate raises LayerOverflowError naming
    the layer.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (config.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({config.input_dim},)")
    if len(weights.matrices) != config.depth:
        raise ValueError("weight set depth does not match config")
    pairs = []
    constants = []
    h = x
    for layer, W in enumerate(weights.matrices, start=1):
        hin = np.concatenate([h, [1.0]]) if config.include_bias else h
        if W.shape[1] != hin.shape[0]:
            raise ValueError(f"layer {layer} weight shape {W.shape} does not match "
                             f"input of length {hin.shape[0]}")
        with np.errstate(over="ignore", invalid="ignore"):
            g = W @ hin
        if not np.all(np.isfinite(g)):
            raise LayerOverflowError(layer)
        h = apply(config.nonlinearity, g)
        c = 1.0
        if rescale:
            peak = float(np.max(np.abs(h))) if h.size else 0.0
            if peak > 1.0:
                c = peak
                h = h / c
        constants.append(c)
        pairs.append((g, h))
    return ForwardResult(pairs, constants)


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
    provenance: dict = field(default_factory=dict)

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

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            for key in sorted(self.provenance):
                fh.write(f"# {key}={self.provenance[key]}\n")
            fh.write(f"# layer={self.layer} kind={self.kind} unit={self.unit_index}\n")
            writer = csv.writer(fh)
            writer.writerow(["sign", "log_magnitude"])
            for s, lm in zip(self.signs, self.log_magnitudes):
                writer.writerow([int(s), repr(float(lm))])

    @classmethod
    def from_csv(cls, path) -> "UnitSampleSet":
        meta = {}
        signs = []
        lms = []
        with open(path) as fh:
            header_seen = False
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    for part in line[1:].split():
                        if "=" in part:
                            k, v = part.split("=", 1)
                            meta[k] = v
                    continue
                if not header_seen:
                    header_seen = True
                    continue
                s_txt, lm_txt = line.split(",")
                signs.append(int(s_txt))
                lms.append(float(lm_txt))
        return cls(layer=int(meta.get("layer", 0)),
                   kind=meta.get("kind", "pre"),
                   unit_index=int(meta.get("unit", 0)),
                   signs=np.asarray(signs, dtype=np.int8),
                   log_magnitudes=np.asarray(lms, dtype=float),
                   provenance={k: v for k, v in meta.items()
                               if k not in ("layer", "kind", "unit")})


def _chunk_ranges(n_samples: int, chunk_size: int):
    starts = range(0, n_samples, chunk_size)
    return [(i, min(chunk_size, n_samples - s)) for i, s in enumerate(starts)]


def _generator(key, spawn_key=()) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(list(key), spawn_key=spawn_key)))


def _conditional_chunk(config: NetworkConfig, log_q0: float, key: tuple,
                       b: int, needs: dict[int, int]):
    """One chunk of the conditional sampler; returns pre arrays per layer.

    key is the chunk's entropy (request prefix plus chunk index).
    """
    if is_positively_homogeneous(config.nonlinearity):
        return _exact_chunk(config, log_q0, key, b, needs)
    return _matrix_chunk(config, log_q0, _generator(key), b, needs)


def _exact_chunk(config: NetworkConfig, log_q0: float, key: tuple, b: int,
                 needs: dict[int, int]):
    """Exact layer step of a positively homogeneous network: per layer, the
    positive count and the two chi-square sums, then the requested units."""
    # phi(u) = a*u for u < 0, so phi(-1)^2 = a^2
    a2 = apply(config.nonlinearity, -1.0) ** 2
    top = max(needs)
    out = {}
    log_r = np.full(b, math.log(config.weight_std_for(1)) + 0.5 * log_q0)
    for layer in range(1, top + 1):
        H = config.layer_widths[layer - 1]
        rng = _generator(key, spawn_key=(layer,))
        n_pos = rng.binomial(H, 0.5, size=b)
        s_pos = 2.0 * rng.standard_gamma(0.5 * n_pos)
        s_neg = 2.0 * rng.standard_gamma(0.5 * (H - n_pos))
        if layer in needs:
            out[layer] = _stick_break(rng, log_r, H, n_pos, s_pos, s_neg,
                                      needs[layer])
        if layer == top:
            break
        with np.errstate(divide="ignore"):
            log_sq = 2.0 * log_r + np.log(s_pos + a2 * s_neg)
        if config.include_bias:
            log_sq = np.logaddexp(log_sq, 0.0)
        log_r = math.log(config.weight_std_for(layer + 1)) + 0.5 * log_sq
    return out


def _stick_break(rng, log_r: np.ndarray, H: int, n_pos: np.ndarray,
                 s_pos: np.ndarray, s_neg: np.ndarray, j: int):
    """Units 0..j-1 of a layer of H units, drawn in index order given the
    number of positive units and the sums of Z^2 over each sign group."""
    b = log_r.shape[0]
    n_pos = n_pos.copy()
    n_neg = H - n_pos
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
        n_pos -= pos
        n_neg -= ~pos
        s_pos = np.where(pos, s_pos - z2, s_pos)
        s_neg = np.where(pos, s_neg, s_neg - z2)
        with np.errstate(divide="ignore"):
            logabs[:, i] = log_r + 0.5 * np.log(z2)
        signs[:, i] = np.where(pos, 1, -1)
    signs[np.isneginf(logabs)] = 0
    return signs, logabs


def _matrix_chunk(config: NetworkConfig, log_q0: float, rng, b: int,
                  needs: dict[int, int]):
    """Full-matrix layer step for activations that are not positively
    homogeneous: every unit of every layer up to the deepest requested.

    Each layer draws its (b, H) normals Z in one call. The requested units
    are (sign, log r + log|Z|) of their columns. The norm of h = phi(r Z)
    is a row dot product in plain doubles; only rows with |log r| at or
    above _LINEAR_LOG_R, dead rows and rows whose sum is not a finite,
    positive, normal double are reduced in log domain (_log_sq_norm).
    Still O(H) per layer per draw.
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
    """log sum_i phi(r Z_i)^2 for each row of Z, where r = e^log_r.

    Rows with |log r| below _LINEAR_LOG_R are summed in plain doubles. The
    rest (dead rows, rows far outside double range) and any row whose
    linear sum is not a finite, positive, normal double go to
    _log_sq_norm_signed_log.
    """
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
                needs: dict[int, int], entropy: tuple[int, ...],
                method: str = "conditional", chunk_size: int = DEFAULT_CHUNK,
                workers: int = 1) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Chunked deterministic sampling engine.

    needs maps 1-based layer index to the number of leading units whose
    pre-nonlinearity draws should be collected. Returns, per requested
    layer, (signs, log_magnitudes) arrays of shape (n_samples, n_units).
    The values collected for a layer do not depend on which other layers
    are requested, and unit j's column is the same in any request that
    includes it.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (config.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({config.input_dim},)")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if method not in ("conditional", "direct"):
        raise ValueError(f"unknown sampling method {method!r}")
    for layer, j in needs.items():
        if not (1 <= layer <= config.depth):
            raise ValueError(f"layer {layer} out of range 1..{config.depth}")
        if not (1 <= j <= config.layer_widths[layer - 1]):
            raise ValueError(f"layer {layer} has width {config.layer_widths[layer - 1]}, "
                             f"cannot collect {j} units")

    if method == "direct":
        chunk_size = _DIRECT_CHUNK
    chunks = _chunk_ranges(n_samples, chunk_size)
    log_q0 = math.log(float(np.dot(x, x)) + (1.0 if config.include_bias else 0.0))

    def one_chunk(task):
        idx, b = task
        key = (*entropy, idx)
        if method == "conditional":
            return _conditional_chunk(config, log_q0, key, b, needs)
        return _direct_chunk(config, x, _generator(key), b, needs)

    threads = worker_threads(workers, len(chunks))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_chunk, chunks))
    else:
        results = [one_chunk(t) for t in chunks]

    merged = {}
    for layer in needs:
        signs = np.concatenate([r[layer][0] for r in results], axis=0)
        lms = np.concatenate([r[layer][1] for r in results], axis=0)
        merged[layer] = (signs, lms)
    return merged


def _provenance(config: NetworkConfig, x: np.ndarray, seed: int, method: str,
                entropy: tuple[int, ...]) -> dict:
    return {
        "config": config.config_hash(),
        "input": input_hash(x),
        "seed": int(seed),
        "method": method,
        "stream": "/".join(str(e) for e in entropy),
    }


def sample_units(config: NetworkConfig, x: np.ndarray, layer: int,
                 unit_index: int, kind: str, n_samples: int, seed: int,
                 method: str = "conditional", chunk_size: int = DEFAULT_CHUNK,
                 workers: int = 1) -> UnitSampleSet:
    """Draw n_samples of one unit, each draw from an independent prior
    weight set (up to the sampling method's reparametrization).

    unit_index is 0-based. kind "pre" gives g(l)_m, "post" gives
    phi(g(l)_m).
    """
    if kind not in ("pre", "post"):
        raise ValueError(f"kind must be 'pre' or 'post', got {kind!r}")
    if not (1 <= layer <= config.depth):
        raise ValueError(f"layer {layer} out of range 1..{config.depth}")
    if not (0 <= unit_index < config.layer_widths[layer - 1]):
        raise ValueError(f"unit_index {unit_index} out of range for layer {layer}")
    entropy = ((int(seed), STREAM_UNITS) if method == "conditional"
               else (int(seed), STREAM_DIRECT))
    got = run_sampler(config, x, n_samples, {layer: unit_index + 1}, entropy,
                      method=method, chunk_size=chunk_size, workers=workers)
    signs, lms = got[layer]
    signs = signs[:, unit_index]
    lms = lms[:, unit_index]
    if kind == "post":
        signs, lms = apply_signed_log(config.nonlinearity, signs, lms)
    return UnitSampleSet(layer=layer, kind=kind, unit_index=unit_index,
                         signs=signs, log_magnitudes=lms,
                         provenance=_provenance(config, x, seed, method, entropy))


def sample_layer_units(config: NetworkConfig, x: np.ndarray, layers,
                       kind: str, n_samples: int, seed: int,
                       method: str = "conditional",
                       chunk_size: int = DEFAULT_CHUNK,
                       workers: int = 1) -> dict[int, UnitSampleSet]:
    """Unit 0 of several layers from a single propagation pass."""
    if kind not in ("pre", "post"):
        raise ValueError(f"kind must be 'pre' or 'post', got {kind!r}")
    layers = sorted(set(int(l) for l in layers))
    if not layers:
        return {}
    if layers[0] < 1 or layers[-1] > config.depth:
        raise ValueError(f"layers out of range 1..{config.depth}")
    entropy = ((int(seed), STREAM_UNITS) if method == "conditional"
               else (int(seed), STREAM_DIRECT))
    got = run_sampler(config, x, n_samples, {l: 1 for l in layers}, entropy,
                      method=method, chunk_size=chunk_size, workers=workers)
    out = {}
    for layer in layers:
        signs, lms = got[layer]
        signs = signs[:, 0]
        lms = lms[:, 0]
        if kind == "post":
            signs, lms = apply_signed_log(config.nonlinearity, signs, lms)
        out[layer] = UnitSampleSet(layer=layer, kind=kind, unit_index=0,
                                   signs=signs, log_magnitudes=lms,
                                   provenance=_provenance(config, x, seed,
                                                          method, entropy))
    return out


def sample_joint_units(config: NetworkConfig, x: np.ndarray, layer: int,
                       unit_indices, kind: str, n_samples: int,
                       entropy: tuple[int, ...],
                       method: str = "conditional",
                       chunk_size: int = DEFAULT_CHUNK,
                       workers: int = 1):
    """Joint draws of several units of one layer (shared weight draws).

    Returns (signs, log_magnitudes) of shape (n_samples, len(unit_indices)),
    columns in the order given. Callers own the entropy prefix.
    """
    if kind not in ("pre", "post"):
        raise ValueError(f"kind must be 'pre' or 'post', got {kind!r}")
    idx = [int(i) for i in unit_indices]
    if len(set(idx)) != len(idx):
        raise ValueError("unit indices must be distinct")
    if not (1 <= layer <= config.depth):
        raise ValueError(f"layer {layer} out of range 1..{config.depth}")
    width = config.layer_widths[layer - 1]
    if any(not (0 <= i < width) for i in idx):
        raise ValueError(f"unit indices out of range for layer {layer}")
    got = run_sampler(config, x, n_samples, {layer: max(idx) + 1}, entropy,
                      method=method, chunk_size=chunk_size, workers=workers)
    signs, lms = got[layer]
    signs = signs[:, idx]
    lms = lms[:, idx]
    if kind == "post":
        signs, lms = apply_signed_log(config.nonlinearity, signs, lms)
    return signs, lms
