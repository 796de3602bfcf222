"""Run configuration files and output manifests.

A run is described by one JSON document. Top-level keys set the shared
experiment (kernels, horizon, lattice, seed); a ``command_defaults``
section holds per-command overrides that are merged over the globals
when that command runs. ``KEYS`` lists every key with the commands
that take it, the parser of its value and its default; a value that
does not parse is a ``ConfigError``. ``command_view`` then runs the
command's checks that span keys, so the view it returns is one the
command can run. JSON keeps float round-trips lossless since both sides
print shortest representations; non-finite numbers (the constants
``NaN`` and ``Infinity``, which JSON itself does not have, or ``1e999``)
are rejected on load.

Every command writes a ``run_manifest.json`` recording the command
name, a SHA-256 digest of the configuration, the artifact version, and
the name/hash/size of each output file. The configuration itself is
embedded so the digest can be recomputed on load. Its timestamps add the
run's CPU time, minor page faults and peak resident set where the
platform reports them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple, Optional

try:
    import resource
except ImportError:  # no getrusage on this platform
    resource = None

from .bounds import _METHODS
from .estimator import _horizon_steps, _lagged_values, estimation_grid
from .kernels import family_from_name, kernel_from_spec
from .simulate import _block_ranges, _draw_values, _write_json, required_pad

__all__ = [
    "ARTIFACT_VERSION",
    "COMMANDS",
    "ConfigError",
    "KEYS",
    "load_config",
    "command_view",
    "view_kernels",
    "canonical_json",
    "config_digest",
    "resolve_out_dir",
    "RunManifest",
    "verify_manifest",
]

ARTIFACT_VERSION = "1.0.0"

COMMANDS = ("check-kernel", "simulate", "estimate", "bounds", "montecarlo")


class ConfigError(ValueError):
    """The run configuration is missing, malformed, or inconsistent."""


# Value parsers: each takes (key, raw JSON value) and returns the value
# the commands use, or raises ConfigError. JSON true/false is never a
# number, and a string is never a list.


def _fail(key: str, what: str, value):
    raise ConfigError(f"config key {key!r} must be {what}, got {value!r}")


def _is_finite(value) -> bool:
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _number(low: float = -math.inf, high: float = math.inf, closed: bool = False):
    """A finite number in (low, high), or in [low, high] when closed."""
    what = f"a number in {'[' if closed else '('}{low:g}, {high:g}{']' if closed else ')'}"

    def parse(key, value) -> float:
        if not _is_finite(value):
            _fail(key, "a finite number", value)
        if not (low <= value <= high if closed else low < value < high):
            _fail(key, what, value)
        return float(value)

    return parse


def _integer(low: int):
    """A JSON integer of at least ``low``."""

    def parse(key, value) -> int:
        if type(value) is not int or value < low:
            _fail(key, f"a JSON integer >= {low}", value)
        return value

    return parse


def _or_null(parse):
    """``parse``, or JSON null for an unset value."""
    return lambda key, value: None if value is None else parse(key, value)


def _numbers(key, value) -> list:
    if type(value) is not list or not value or not all(map(_is_finite, value)):
        _fail(key, "a non-empty list of finite numbers", value)
    return [float(v) for v in value]


def _positives(key, value) -> list:
    values = _numbers(key, value)
    if min(values) <= 0:
        _fail(key, "a non-empty list of positive numbers", value)
    return values


def _ascending(key, value) -> tuple:
    values = _numbers(key, value)
    if any(b <= a for a, b in zip(values, values[1:])):
        _fail(key, "a strictly ascending list of numbers", value)
    return tuple(values)


def _interval(key, value) -> tuple:
    values = _ascending(key, value)
    if len(values) != 2:
        _fail(key, "a two-number list [a, b] with a < b", value)
    return values


def _named(key, value) -> dict:
    if type(value) is not dict or "name" not in value:
        _fail(key, 'an object with a "name"', value)
    return value


def _window(key, value) -> dict:
    if set(_named(key, value)) != {"name"}:
        _fail(key, 'an object {"name": n} only; c and delta are the shared keys', value)
    return value


def _seed(key, value) -> dict:
    """``{"seed": s, "stream_id": i}``; a missing stream_id reads as 0."""
    if type(value) is dict and "seed" in value and set(value) <= {"seed", "stream_id"}:
        seed = {"seed": value["seed"], "stream_id": value.get("stream_id", 0)}
        if all(type(v) is int and 0 <= v < 2**64 for v in seed.values()):
            return seed
    _fail(key, 'an object {"seed": s, "stream_id": i} of unsigned 64-bit integers', value)


def _methods(key, value) -> list:
    if (type(value) is not list or not value or not all(v in _METHODS for v in value)
            or len(set(value)) < len(value)):
        _fail(key, f"a non-empty list of distinct bound methods from {list(_METHODS)}", value)
    return list(value)


class Key(NamedTuple):
    """One config key: the commands that take it (None: every command),
    the parser of its value, and its default."""

    name: str
    commands: Optional[tuple]
    parse: Callable
    default: object


_POSITIVE = _number(0.0)

# Every config key. A shared key may be set at the top level or in any
# command_defaults section; the others only in their command's section.
KEYS = (
    Key("h", None, _named, {"name": "sinc"}),
    Key("g_family", None, _window, {"name": "triangular"}),
    Key("c", None, _POSITIVE, 1.0),
    Key("delta", None, _POSITIVE, 100.0),
    Key("dt", None, _POSITIVE, 0.01),
    Key("T", None, _POSITIVE, 500.0),
    Key("interval", None, _interval, [0.0, 1.0]),
    Key("tau_grid", None, _ascending, [0.0, 0.5, 1.0]),
    Key("base_seed", None, _seed, {"seed": 0, "stream_id": 0}),
    Key("deltas", ("check-kernel",), _positives, [10.0, 100.0, 1000.0, 10000.0, 100000.0]),
    Key("lambda_window", ("check-kernel",), _POSITIVE, 1.0),
    Key("tol", ("check-kernel",), _POSITIVE, 1e-9),
    Key("hunt_exponent", ("check-kernel",), _number(1.0), 2.0),
    Key("lambda_max", ("check-kernel",), _POSITIVE, 200.0),
    Key("deltas", ("simulate",), _positives, [1.0, 10.0, 100.0, 1000.0]),
    Key("t_start", ("simulate",), _number(), 0.0),
    Key("methods", ("bounds",), _methods, list(_METHODS)),
    Key("x_grid", ("bounds",), _positives, [1.0, 2.0, 3.0, 4.0, 6.0, 8.0]),
    Key("theorem4_x_multipliers", ("bounds",), _positives, [1.5, 2.0, 3.0]),
    Key("r", ("bounds",), _number(0.0, 1.0), 0.5),
    Key("gamma", ("bounds",), _number(0.0, 1.0, closed=True), 0.5),
    Key("y_tail_M", ("bounds",), _integer(1), 2000),  # ignored: the corollaries take Rice's tail
    Key("y_tail_points", ("bounds",), _integer(1), 101),
    Key("replications", ("montecarlo",), _integer(2), 200),
    Key("emit_max_reps", ("montecarlo",), _or_null(_integer(1)), None),
)


def _command_keys(command: str) -> list:
    return [k for k in KEYS if k.commands is None or command in k.commands]


class _NonFinite(str):
    """A non-finite number of a parsed document, kept by its JSON text: the
    constants NaN, Infinity and -Infinity, or a number beyond the float
    range such as 1e999."""


def _float(text: str):
    value = float(text)
    return value if math.isfinite(value) else _NonFinite(text)


def _reject_non_finite(value, where: str) -> None:
    """ConfigError naming the first non-finite number in ``value`` and
    the dotted path to it."""
    if isinstance(value, _NonFinite):
        raise ConfigError(f"config value {where} is {value}; every number must be finite")
    if isinstance(value, list):
        value = dict(enumerate(value))
    for key, item in value.items() if isinstance(value, dict) else ():
        _reject_non_finite(item, f"{where}.{key}" if where else str(key))


def load_config(path) -> dict:
    """Parse and structurally validate a run configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text, parse_float=_float, parse_constant=_NonFinite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config document must be a JSON object")
    _reject_non_finite(cfg, "")
    unknown = set(cfg) - {k.name for k in KEYS if k.commands is None}
    unknown -= {"out_dir", "command_defaults"}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    if not isinstance(cfg.get("out_dir", ""), str):
        _fail("out_dir", "a string", cfg["out_dir"])
    sections = cfg.get("command_defaults", {})
    if not isinstance(sections, dict):
        raise ConfigError("command_defaults must be a JSON object")
    bad = set(sections) - set(COMMANDS)
    if bad:
        raise ConfigError(f"command_defaults for unknown commands: {sorted(bad)}")
    for name, section in sections.items():
        if not isinstance(section, dict):
            raise ConfigError(f"command_defaults.{name} must be a JSON object")
        extra = set(section) - {k.name for k in _command_keys(name)}
        if extra:
            raise ConfigError(
                f"command_defaults.{name} has unknown keys: {sorted(extra)}"
            )
    return cfg


def view_kernels(view: dict) -> tuple:
    """The kernel h and the window family (delta -> g_delta) of a command view."""
    return kernel_from_spec(view["h"]), family_from_name(view["g_family"]["name"], view["c"])


# The checks that span keys, one per command: each takes the parsed view,
# its kernel h and its window family (montecarlo's also the run's process
# count), and raises ValueError on values the command cannot run together.


def _check_kernel(view: dict, h, family) -> None:
    if view["deltas"] != sorted(view["deltas"]):
        raise ValueError(f"check-kernel deltas {view['deltas']} must be ascending")


def _simulate(view: dict, h, family) -> None:
    n = _horizon_steps(view["T"], view["dt"]) + 1
    # one process must fit; the draw is written by as many as _path_procs fits
    _fits_simulator(f"T={view['T']:g}", [h, *map(family, view["deltas"])], n, view["dt"])
    labels = [f"{d:g}" for d in view["deltas"]]
    clash = [d for d, label in zip(view["deltas"], labels) if labels.count(label) > 1]
    if clash:
        raise ValueError(f"deltas {clash} would write the same path_X_delta file names")


def _estimate(view: dict, h, family) -> None:
    taus = view["tau_grid"]
    grid = estimation_grid(view["T"], view["dt"], taus)
    _fits_simulator(f"T={view['T']:g} and tau_grid [{taus[0]:g}, {taus[-1]:g}]",
                    (h, family(view["delta"])), grid.n, grid.dt,
                    lags=(view["T"], taus[0], taus[-1], len(taus)))


#: The most float64 values one numpy array can hold: its size in bytes must
#: fit numpy's signed index type, as wide as ``sys.maxsize``.
_MAX_ARRAY_VALUES = sys.maxsize // 8


def _memory_values() -> int:
    """The float64 values the machine's physical memory holds, or
    ``_MAX_ARRAY_VALUES`` where ``os.sysconf`` cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 8
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        return _MAX_ARRAY_VALUES


def _cpus() -> int:
    """The CPUs this process may run on: its affinity set, or the machine's
    CPU count where the platform has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


#: ``mallopt`` parameter numbers of glibc's <malloc.h>, and the values set:
#: the ceiling glibc's own dynamic threshold reaches (32 MiB on 64-bit), and
#: twice that for trimming, as glibc's dynamic rule keeps it.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20


def _keep_freed_memory() -> None:
    """Let glibc's malloc keep freed blocks below 32 MiB for reuse.

    pocketfft allocates its scratch on every ``numpy.fft`` call and frees it
    on return. glibc serves a block that size with its own ``mmap`` and
    unmaps it on ``free``, so each call faults its scratch in afresh (211
    pages for a 62 208-point transform). With the thresholds set, the freed
    block stays in the heap and the next call reuses it; blocks above 32 MiB
    still get their own mapping. Does nothing off Linux or where the C
    library has no ``mallopt``; no arithmetic changes.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes  # numpy has imported it already

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library handle, or no mallopt in it
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD)


def _path_procs(kernels, n: int, dt: float) -> int:
    """The processes that write the block ranges of a draw of ``kernels`` on
    an ``n``-sample grid at ``dt`` at once: one a CPU and at most one a
    block, each holding one Simulator and one live draw, as many of them as
    fit in memory, and at least one."""
    _, shared, per_draw = _draw_values(kernels, n, dt)
    return max(1, min(len(_block_ranges(n, _cpus())), _memory_values() // (shared + per_draw)))


def _share_threads(share: int, procs: int) -> int:
    """The threads that run one process's ``share`` of a montecarlo run's
    replications when ``procs`` processes split the run: the process's CPUs
    divided among the processes, at least one and at most one a replication."""
    return max(1, min(_cpus() // procs, share))


def _fits_array(what: str, rows, cols=1) -> None:
    """ValueError when the ``rows x cols`` float64 array ``what`` cannot fit
    in memory; ``cols`` may be a float, and neither is multiplied out, so a
    count too large for a float is rejected too."""
    limit = _memory_values()
    if rows > limit / cols:
        shape = f"{rows} x {cols}" if cols != 1 else f"{rows}"
        raise ValueError(f"{what} would be {shape} values, more than "
                         f"the {limit} float64 values ({8 * limit / 2**30:.3g} GiB) "
                         f"that fit in memory")


def _fits_simulator(what: str, kernels, n: int, dt: float, lags=None,
                    simulators: int = 1, draws: int = 1) -> None:
    """ValueError when a streamed run of ``kernels`` on the ``n``-sample grid
    ``what`` at ``dt`` cannot count its samples in a 64-bit index or cannot
    fit in memory: the sampled taps on their own, then its working set, as
    ``simulate._draw_values`` counts it, for ``simulators`` Simulators that
    hold ``draws`` live draws between them. With ``lags = (T, first, last,
    count)`` each draw also sums a correlogram over the window [0, T) at
    ``count`` ascending lags from ``first`` to ``last``, whose buffers
    ``estimator._lagged_values`` counts."""
    if not math.isfinite(max(k.effective_support for k in kernels) / dt):
        raise ValueError(f"the kernel supports overflow a float in steps of dt={dt:g}")
    if n > sys.maxsize:
        raise ValueError(f"{what} at dt={dt:g} is {n} samples, more than a 64-bit index counts")
    pad = max(required_pad(k, dt) for k in kernels)
    _fits_array(f"the sampled kernel taps over {what} at dt={dt:g} (pad {pad}, "
                f"{len(kernels)} kernels)", len(kernels) + 2, 2 * pad + 1)
    block, shared, per_draw = _draw_values(kernels, n, dt)
    if lags is not None:
        T, first, last, count = lags
        span = round(last / dt) - round(first / dt)
        buffer, lagged = _lagged_values(_horizon_steps(T, dt), span, block, count)
        _fits_array(f"the correlogram look-ahead of {what} at dt={dt:g} "
                    f"({span} lag steps)", 2, buffer)
        per_draw += lagged
    at_once = f", {draws} draws at once" if draws > 1 else ""
    _fits_array(f"the streamed working set over {what} at dt={dt:g} "
                f"({n} samples in blocks of {block}, pad {pad}, {len(kernels)} kernels{at_once})",
                simulators * shared + draws * per_draw)


def _bounds(view: dict, h, family) -> None:
    parity = family(view["delta"]).parity
    if "theorem4_sup" in view["methods"] and parity != "even":
        raise ValueError(
            f"method theorem4_sup needs an even g_family window; "
            f"{view['g_family']['name']!r} has parity {parity!r}"
        )


def _montecarlo(view: dict, h, family, workers: int) -> None:
    (a, b), taus, dt = view["interval"], view["tau_grid"], view["dt"]
    if taus[0] < a - 1e-12 or taus[-1] > b + 1e-12:
        raise ValueError(f"tau_grid {list(taus)} must lie inside interval [{a}, {b}]")
    estimation_grid(view["T"], dt, taus)
    # every replication simulates over, and keeps Zhat on, the whole interval
    _fits_array(f"the replications' Zhat on the lattice of [{a:g}, {b:g}] at dt={dt:g} "
                f"(replications x lattice lags)", view["replications"], (b - a) / dt + 1)
    # the grid of the interval lattice's ends, one lag when both snap to it
    lo, hi = round(a / dt), round(b / dt)
    grid = estimation_grid(view["T"], dt, sorted({dt * lo, dt * hi}))
    # each of the run's processes draws through one Simulator, on the threads
    # that montecarlo._replicate_share starts
    M = view["replications"]
    procs = max(1, min(workers, M))
    draws = sum(_share_threads(len(range(p, M, procs)), procs) for p in range(procs))
    _fits_simulator(f"T={view['T']:g} and interval [{a:g}, {b:g}]", (h, family(view["delta"])),
                    grid.n, dt, lags=(view["T"], dt * lo, dt * hi, hi - lo + 1),
                    simulators=procs, draws=draws)


_SPANNING = {
    "check-kernel": _check_kernel,
    "simulate": _simulate,
    "estimate": _estimate,
    "bounds": _bounds,
}


def command_view(cfg: dict, command: str, workers: int = 1) -> dict:
    """The parsed value of every key the command takes: its
    command_defaults section over the top level over the defaults.

    The view is checked whole: its kernel specs build and the command's
    checks that span keys pass, so every usage error is a ConfigError
    raised here, before the command creates its output directory. A
    montecarlo view is checked for a run over ``workers`` processes.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    merged = {**cfg, **cfg.get("command_defaults", {}).get(command, {})}
    view = {
        k.name: k.parse(k.name, merged.get(k.name, k.default))
        for k in _command_keys(command)
    }
    try:
        h, family = view_kernels(view)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"invalid h or g_family: {exc}") from exc
    try:
        if command == "montecarlo":
            _montecarlo(view, h, family, workers)
        else:
            _SPANNING[command](view, h, family)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return view


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
    hashes, which are deterministic for a fixed config and seed. Where
    ``resource`` exists, ``finish`` adds ``timestamps["resources"]``: the
    run's CPU seconds and minor faults since ``start`` and its peak
    resident set, each counting this process and its reaped children.
    """

    command: str
    config_digest: str
    artifact_version: str = ARTIFACT_VERSION
    timestamps: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    _usage_at_start = None  # not a field: never written

    @classmethod
    def start(cls, command: str, cfg: dict) -> "RunManifest":
        manifest = cls(
            command=command,
            config_digest=config_digest(cfg),
            timestamps={"started": _utc_now()},
            config=cfg,
        )
        if resource is not None:
            manifest._usage_at_start = _usage()
        return manifest

    def add_output(self, path) -> None:
        p = Path(path)
        self.outputs.append(
            {"name": p.name, "sha256": _sha256_file(p), "bytes": p.stat().st_size}
        )

    def finish(self, out_dir) -> None:
        self.timestamps["finished"] = _utc_now()
        if self._usage_at_start is not None:
            *now, rss_kib = _usage()
            user, system, faults = (a - b for a, b in zip(now, self._usage_at_start))
            self.timestamps["resources"] = {
                "cpu_user_s": round(user, 6),
                "cpu_system_s": round(system, 6),
                "minor_faults": faults,
                "max_rss_mb": round(rss_kib / 1024, 3),
            }
        _write_json(Path(out_dir) / MANIFEST_NAME, asdict(self), sort_keys=True)


def _usage() -> tuple:
    """User and system CPU seconds and minor faults of this process and its
    reaped children, and the larger peak resident set of the two, in KiB."""
    own, kids = map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    rss = max(own.ru_maxrss, kids.ru_maxrss)  # KiB, but bytes on macOS
    return (own.ru_utime + kids.ru_utime, own.ru_stime + kids.ru_stime,
            own.ru_minflt + kids.ru_minflt, rss // 1024 if sys.platform == "darwin" else rss)


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def verify_manifest(path) -> list:
    """Re-derive every digest in a manifest; return a list of problems.

    An empty list means the stored config digest matches the embedded
    config and every listed output file still hashes to its recorded
    value. Output files are looked up next to the manifest, so an output
    name that is not a plain file name there (absolute, with a separator,
    ``.`` or ``..``) is a problem. A manifest that lacks a field of
    ``RunManifest``, or an output entry that lacks ``name``, ``sha256`` or
    ``bytes``, is a ConfigError naming it.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    missing = [f.name for f in fields(RunManifest) if f.name not in manifest]
    if missing:
        raise ConfigError(f"manifest {path} is missing fields {missing}")
    problems = []
    recomputed = config_digest(manifest["config"])
    if recomputed != manifest["config_digest"]:
        problems.append(
            f"config digest mismatch: stored {manifest['config_digest']}, "
            f"recomputed {recomputed}"
        )
    for entry in manifest["outputs"]:
        missing = [k for k in ("name", "sha256", "bytes") if k not in entry]
        if missing:
            raise ConfigError(f"manifest {path} has an output entry missing fields {missing}")
        name = entry["name"]
        if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
            problems.append(f"output {name!r} is not a file name next to the manifest")
            continue
        target = path.parent / name
        if not target.is_file():
            problems.append(f"missing output file {name}")
            continue
        actual = _sha256_file(target)
        if actual != entry["sha256"]:
            problems.append(f"hash mismatch for {name}")
        if target.stat().st_size != entry["bytes"]:
            problems.append(f"size mismatch for {name}")
    return problems
