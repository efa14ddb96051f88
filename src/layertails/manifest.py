"""Run manifests: a JSON record of a command's resolved parameters and
the SHA-256 digests of every file it wrote. A manifest is self-contained
(the network description is embedded, not referenced), so `rerun` can
reproduce the outputs without the original config file and verify them
byte for byte.

The manifest also records the version of the sampler's seed-to-draws
mapping (`sampler`). Manifests written before the field existed load as
version 1, so `rerun` can say why a replay under another version differs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass

from .errors import is_json_type
from .network_model import SAMPLER_VERSION


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
    files = {name: sha256_file(path) for name, path in sorted(file_paths.items())}
    return RunManifest(command=command, params=params, seed=int(seed),
                       files=files, duration_s=float(duration_s),
                       created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                       sampler=SAMPLER_VERSION)
