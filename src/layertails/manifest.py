"""Run manifests: a JSON record of a command's resolved parameters and
the SHA-256 digests of every file it wrote. A manifest is self-contained
(the network description is embedded, not referenced), so `rerun` can
reproduce the outputs without the original config file and verify them
byte for byte.

The manifest also records the version of the sampler's seed-to-draws
mapping (`sampler`) and the output format (`format`), which changes when
the files move with the draws unchanged. Manifests written before either
field existed load as version 1 and format 1, so `rerun` can say why a
replay under another version or format differs.
`versions` records the layertails, numpy and python versions of the
build that wrote it (empty in manifests written before the field existed),
and numpy's active SIMD dispatch targets (numpy_dispatch): the streams
rest on numpy's generators, and the last bits of its exp, log, expm1 and
tanh kernels, which the draws and the sampler's saturation points go
through, on the dispatch. So `rerun` names a numpy or dispatch change when
files differ, but never compares the field.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import is_json_type
from .network_model import SAMPLER_VERSION

# The output format, for bytes that move while the draws do not:
# 1: every build before this field.
# 2: the Gaussian reference (gaussian_reference.csv) and the exact norms
#    (oracle.csv) from the standard library's erfc and lgamma, not scipy.
# 3: envelope.csv read from the activation table, exact off any grid,
#    without its two failure columns.
# 4: the moment-slope fit by a Householder QR in plain floats, not LAPACK
#    (tail-sweep's moment-slope theta_hat and se_theta and the recursion
#    rows built from them move in their last digits), and theta_summary.csv
#    gains weighted_rss and n_tail columns before error.
# 5: moment curves shift each leaf of 2^15 rows by its own maximum and
#    combine the leaves by math.fsum (tail_analysis._MomentFold), so
#    tail-sweep can fold its draws as they are drawn: curves of more than
#    2^15 draws (tail-sweep's moments and moment-slope rows, oracle.csv)
#    move in their last digits, and moments_layer*.csv gains a top_share
#    column, the largest draw's share of each k-th moment.
OUTPUT_FORMAT = 5


def _numpy_dispatch() -> str:
    """numpy's SIMD dispatch targets that this machine runs, in numpy's
    order, space-separated (for example "X86_V3 X86_V4 AVX512_ICL")."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = getattr(umath, "__cpu_features__", {})
    return " ".join(t for t in getattr(umath, "__cpu_dispatch__", ())
                    if features.get(t))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    command: str
    params: dict
    seed: int
    files: dict
    duration_s: float
    created: str = ""
    sampler: int = 1
    format: int = 1
    versions: dict = field(default_factory=dict)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "RunManifest":
        """Read a manifest; raises ValueError when the file is not a JSON
        object with the manifest's fields and their exact JSON types (a
        bool is not an int)."""
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError(f"manifest {path} is not a JSON object")
        fields = dataclasses.fields(cls)
        types = {"str": str, "dict": dict, "int": int, "float": (int, float)}
        problems = ([f"unknown field {name!r}" for name
                     in sorted(set(payload) - {f.name for f in fields})]
                    + [f"missing field {f.name!r}" for f in fields
                       if f.default is dataclasses.MISSING
                       and f.default_factory is dataclasses.MISSING
                       and f.name not in payload]
                    + [f"field {f.name!r} is not a JSON {f.type}" for f in fields
                       if f.name in payload
                       and not is_json_type(payload[f.name], types[f.type])])
        if problems:
            raise ValueError(f"manifest {path}: {', '.join(problems)}")
        return cls(**payload)


def build_manifest(command: str, params: dict, seed: int, file_paths: dict,
                   duration_s: float) -> RunManifest:
    """file_paths maps emitted file names to their on-disk paths."""
    from . import __version__  # the package imports this module first
    files = {name: sha256_file(path) for name, path in sorted(file_paths.items())}
    return RunManifest(command=command, params=params, seed=int(seed),
                       files=files, duration_s=float(duration_s),
                       created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                       sampler=SAMPLER_VERSION, format=OUTPUT_FORMAT,
                       versions={"layertails": __version__,
                                 "numpy": np.__version__,
                                 "numpy_dispatch": _numpy_dispatch(),
                                 "python": platform.python_version()})
