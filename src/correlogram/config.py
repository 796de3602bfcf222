"""Run configuration files and output manifests.

A run is described by one JSON document. Top-level keys set the shared
experiment (kernels, horizon, lattice, seed); a ``command_defaults``
section holds per-command overrides that are merged over the globals
when that command runs. JSON keeps float round-trips lossless since
both sides print shortest representations.

Every command writes a ``run_manifest.json`` recording the command
name, a SHA-256 digest of the configuration, the artifact version, and
the name/hash/size of each output file. The configuration itself is
embedded so the digest can be recomputed on load.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

__all__ = [
    "ARTIFACT_VERSION",
    "COMMANDS",
    "ConfigError",
    "load_config",
    "command_view",
    "canonical_json",
    "config_digest",
    "resolve_out_dir",
    "RunManifest",
    "load_manifest",
    "verify_manifest",
]

ARTIFACT_VERSION = "1.0.0"

COMMANDS = ("check-kernel", "simulate", "estimate", "bounds", "montecarlo")

# Global defaults; any key may be overridden at the top level or inside
# command_defaults.<command>.
GLOBAL_DEFAULTS = {
    "h": {"name": "sinc"},
    "g_family": {"name": "triangular"},
    "c": 1.0,
    "delta": 100.0,
    "dt": 0.01,
    "T": 500.0,
    "interval": [0.0, 1.0],
    "tau_grid": [0.0, 0.5, 1.0],
    "base_seed": {"seed": 0, "stream_id": 0},
}

_KNOWN_TOP_LEVEL = set(GLOBAL_DEFAULTS) | {"out_dir", "command_defaults"}

# Keys that only make sense inside a specific command section.
_COMMAND_ONLY_KEYS = {
    "check-kernel": {"deltas", "lambda_window", "tol", "hunt_exponent", "lambda_max"},
    "simulate": {"deltas", "t_start"},
    "estimate": set(),
    "bounds": {"methods", "x_grid", "theorem4_x_multipliers", "r", "gamma",
               "y_tail_M", "y_tail_points"},
    "montecarlo": {"replications", "emit_max_reps"},
}


class ConfigError(ValueError):
    """The run configuration is missing, malformed, or inconsistent."""


def load_config(path) -> dict:
    """Parse and structurally validate a run configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(cfg) - _KNOWN_TOP_LEVEL
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    sections = cfg.get("command_defaults", {})
    if not isinstance(sections, dict):
        raise ConfigError("command_defaults must be a JSON object")
    bad = set(sections) - set(COMMANDS)
    if bad:
        raise ConfigError(f"command_defaults for unknown commands: {sorted(bad)}")
    for name, section in sections.items():
        if not isinstance(section, dict):
            raise ConfigError(f"command_defaults.{name} must be a JSON object")
        allowed = _KNOWN_TOP_LEVEL - {"out_dir", "command_defaults"}
        allowed |= _COMMAND_ONLY_KEYS[name]
        extra = set(section) - allowed
        if extra:
            raise ConfigError(
                f"command_defaults.{name} has unknown keys: {sorted(extra)}"
            )
    return cfg


def command_view(cfg: dict, command: str) -> dict:
    """Globals overlaid with the command's section of command_defaults."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    merged = dict(GLOBAL_DEFAULTS)
    merged.update(
        {k: v for k, v in cfg.items() if k not in ("out_dir", "command_defaults")}
    )
    merged.update(cfg.get("command_defaults", {}).get(command, {}))
    return merged


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, no whitespace, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


def resolve_out_dir(cli_out: Optional[str], cfg: dict, env=None) -> Path:
    """Output directory precedence: --out flag, CORRELOGRAM_OUT, config, '.'."""
    env = os.environ if env is None else env
    if cli_out:
        return Path(cli_out)
    from_env = env.get("CORRELOGRAM_OUT")
    if from_env:
        return Path(from_env)
    from_cfg = cfg.get("out_dir")
    if from_cfg:
        return Path(from_cfg)
    return Path(".")


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


MANIFEST_NAME = "run_manifest.json"


@dataclass
class RunManifest:
    """Record of one command run: inputs by digest, outputs by hash.

    Timestamps are informational only; reproducibility comparisons
    should ignore them and compare config_digest plus the output
    hashes, which are deterministic for a fixed config and seed.
    """

    command: str
    config_digest: str
    artifact_version: str = ARTIFACT_VERSION
    timestamps: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @classmethod
    def start(cls, command: str, cfg: dict) -> "RunManifest":
        return cls(
            command=command,
            config_digest=config_digest(cfg),
            timestamps={"started": _utc_now()},
            config=cfg,
        )

    def add_output(self, path) -> None:
        p = Path(path)
        self.outputs.append(
            {"name": p.name, "sha256": _sha256_file(p), "bytes": p.stat().st_size}
        )

    def finish(self, out_dir) -> Path:
        self.timestamps["finished"] = _utc_now()
        target = Path(out_dir) / MANIFEST_NAME
        payload = {
            "command": self.command,
            "config_digest": self.config_digest,
            "artifact_version": self.artifact_version,
            "timestamps": self.timestamps,
            "outputs": self.outputs,
            "config": self.config,
        }
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return target


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def load_manifest(path) -> RunManifest:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        return RunManifest(
            command=raw["command"],
            config_digest=raw["config_digest"],
            artifact_version=raw["artifact_version"],
            timestamps=raw.get("timestamps", {}),
            outputs=raw.get("outputs", []),
            config=raw.get("config", {}),
        )
    except KeyError as exc:
        raise ConfigError(f"manifest {path} is missing field {exc}") from exc


def verify_manifest(path) -> list:
    """Re-derive every digest in a manifest; return a list of problems.

    An empty list means the stored config digest matches the embedded
    config and every listed output file still hashes to its recorded
    value. Output files are looked up next to the manifest.
    """
    path = Path(path)
    manifest = load_manifest(path)
    problems = []
    recomputed = config_digest(manifest.config)
    if recomputed != manifest.config_digest:
        problems.append(
            f"config digest mismatch: stored {manifest.config_digest}, "
            f"recomputed {recomputed}"
        )
    for entry in manifest.outputs:
        target = path.parent / entry["name"]
        if not target.is_file():
            problems.append(f"missing output file {entry['name']}")
            continue
        actual = _sha256_file(target)
        if actual != entry["sha256"]:
            problems.append(f"hash mismatch for {entry['name']}")
        if target.stat().st_size != entry["bytes"]:
            problems.append(f"size mismatch for {entry['name']}")
    return problems
