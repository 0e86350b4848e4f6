"""Command-line surface: simulate | verify | born | postselect | marginal.

Configuration is a flat key=value text file with # comments; command-line
flags mirror the keys one-to-one and override the file.  Every command
writes a run manifest (resolved configuration, seed, tool version, wall
time, output digests, check flags) so a run can be reproduced exactly:
same configuration and seed give byte-identical CSV output for any worker
count.

Exit codes: 0 success / verification PASS, 1 verification FAIL,
2 configuration or run error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import sys
import time
from functools import partial

import numpy as np

from . import __version__, analysis, model, stats
from .atomic import atomic_open, fmt17, write_csv
from .engine import map_chunks
# perfbench's tracer wraps cli.simulate by name; the import keeps it resolvable.
from .engine import simulate  # noqa: F401
from .model import MeasurementConfig, Setting, SuperpositionSpec

__all__ = ["main", "resolve_config", "parse_config_file", "load_manifest_config"]

DEFAULT_SEED = 12345

# Every configuration key: (type, default, flag help).  The flag of a key is
# "--" + key with "_" replaced by "-"; bools are switches.
_KEYS = {
    "x1": (float, 1.0, None),
    "r": (float, 2.0, None),
    "alpha0": (float, None, "coherent cat: sets r=0, x1=2*alpha0"),
    "c1sq": (float, 0.5, None),
    "gtf": (float, 3.0, "dimensionless horizon g*t_f"),
    "dt": (float, 0.1, "dimensionless step g*dt"),
    "n": (int, 200_000, None),
    "seed": (int, None, None),
    "measure": (str, "x", None),
    "mixture": (bool, False, None),
    "grid_dx": (float, 0.1, None),
    "grid_dp": (float, 0.2, None),
    "workers": (int, None, "default: the CPUs this process may use; at most one per chunk"),
    "out_dir": (str, ".", None),
    "shift_x1": (float, 0.0, None),
    "oracle": (bool, False, None),
}

_MEASURES = ("x", "p")


class ConfigError(Exception):
    pass


def _parse_bool(raw):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _read_text(path):
    """The text of a config or manifest file; an unreadable file is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}")


def parse_config_file(path):
    """Read a key=value config file; errors carry the offending line number."""
    values = {}
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line.strip()!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        typ = _KEYS[key][0]
        try:
            values[key] = _parse_bool(raw) if typ is bool else typ(raw)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: invalid {typ.__name__} value {raw!r} for {key}"
            )
    return values


def _manifest_value(path, key, value):
    """A manifest config value, checked against the key's type."""
    typ, default, _ = _KEYS[key]
    allowed = (int, float) if typ is float else typ
    if (value is None and default is None) or (
        isinstance(value, allowed) and isinstance(value, bool) == (typ is bool)
    ):
        return value
    raise ConfigError(f"{path}: invalid {typ.__name__} value {value!r} for {key}")


def load_manifest_config(path):
    """Pull the resolved config dict back out of a run manifest."""
    try:
        manifest = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}")
    if not isinstance(manifest, dict) or "config" not in manifest:
        raise ConfigError(f"{path}: no config section in manifest")
    config = manifest["config"]
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: manifest config is not an object")
    if config.get("g", 1.0) != 1.0:
        raise ConfigError(f"{path}: g = {config['g']!r}; only unit-gain runs are reproducible")
    return {k: _manifest_value(path, k, v) for k, v in config.items() if k in _KEYS}


def _finite(value):
    try:
        return math.isfinite(value)
    except OverflowError:  # a manifest's int past the float range
        return False


def resolve_config(file_values, flag_values):
    """Defaults < config file < flags; then derive spec, cfg and grid steps."""
    merged = {key: default for key, (_, default, _) in _KEYS.items()}
    merged.update(file_values)
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value
    for key, (typ, _, _) in _KEYS.items():
        # JSON has no token for a NaN or an infinity, and no run can use one.
        if typ is float and merged[key] is not None and not _finite(merged[key]):
            raise ConfigError(f"{key} must be finite, got {merged[key]!r}")
    if merged["seed"] is None:
        env = os.environ.get("QTRAJ_SEED")
        if env is not None:
            try:
                merged["seed"] = int(env)
            except ValueError:
                raise ConfigError(f"QTRAJ_SEED must be an integer, got {env!r}")
        else:
            merged["seed"] = DEFAULT_SEED
    if merged["alpha0"] is not None:
        merged["r"] = 0.0
        merged["x1"] = 2.0 * merged["alpha0"]
    if merged["workers"] is None:
        # The CPUs this process may run on, where the platform reports its affinity.
        affinity = getattr(os, "sched_getaffinity", None)
        merged["workers"] = len(affinity(0)) if affinity else os.cpu_count() or 1
    if merged["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {merged['workers']}")
    if not (0.0 < merged["grid_dx"] <= 1.0 and 0.0 < merged["grid_dp"] <= 1.0):
        # No packet is narrower than the vacuum width 1, so each slice's window
        # of +-6 widths keeps at least 12 bins along each axis.
        raise ConfigError("grid_dx and grid_dp must lie in (0, 1], the vacuum width")
    if merged["measure"] not in _MEASURES:
        raise ConfigError(f"measure must be 'x' or 'p', got {merged['measure']!r}")
    try:
        spec = SuperpositionSpec(
            c1_sq=merged["c1sq"],
            x1=merged["x1"],
            r=merged["r"],
            mixture=merged["mixture"],
        )
        cfg = MeasurementConfig(
            setting=Setting.X if merged["measure"] == "x" else Setting.P,
            t_f=merged["gtf"],
            dt=merged["dt"],
            n_samples=int(merged["n"]),
            seed=int(merged["seed"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    # The farthest |x| or |p| a command forms lies within the model.reach of
    # the largest hill centre, shifted or not: the postselection oracle's
    # reach.  Coordinates are differenced and squared, so twice the reach,
    # squared, must be finite.
    reach = model.reach(spec.x1 + max(merged["shift_x1"], 0.0), spec.r, cfg.t_f)
    if not math.isfinite((2.0 * reach) * (2.0 * reach)):
        raise ConfigError(
            f"coordinates reach {reach:.3g}, e^gtf * (x1 + shift_x1) plus 14 widths; "
            f"twice that, squared, overflows a float"
        )
    return merged, spec, cfg


# Bytes read per step while hashing an artifact, into one reused buffer.
_HASH_BUFFER = 1 << 16


def _sha256(path):
    digest = hashlib.sha256()
    buf = bytearray(_HASH_BUFFER)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(view[:n])
    return digest.hexdigest()


def _write_manifest(out_dir, command, merged, outputs, checks, t_start):
    manifest = {
        "tool": "qtraj",
        "version": __version__,
        "command": command,
        "config": {k: merged[k] for k in _KEYS},
        "seed": merged["seed"],
        "wall_time_s": time.monotonic() - t_start,
        "outputs": [{"path": os.path.basename(p), "sha256": _sha256(p)} for p in outputs],
        "checks": checks,
    }
    _json_dump(os.path.join(out_dir, "manifest.json"), _json_text(manifest))


def _json_text(payload):
    """The strict JSON text of payload: a NaN or an infinity, which JSON has
    no token for, is refused with ValueError.  A command builds the text of
    its JSON artifact before it writes its first artifact, so such a refusal
    leaves none behind."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _json_dump(path, text):
    with atomic_open(path) as fh:
        fh.write(text)


def _cmd_simulate(merged, spec, cfg):
    def blocks():
        # One block per chunk as map_chunks yields it: the run's paths are never gathered.
        for batch in map_chunks(spec, cfg, None, merged["workers"]):
            n, k = batch.amplified.shape
            x, p = batch.amplified, batch.attenuated
            if cfg.setting is Setting.P:
                x, p = p, x
            # Per-row and per-slice values are formatted once, then their text repeated.
            t = np.tile(fmt17(batch.times_stored()), n)
            ids = fmt17(np.arange(batch.first_row, batch.first_row + n)).repeat(k)
            yield ids, t, x.ravel(), p.ravel(), fmt17(batch.boundary_hill).repeat(k)

    path = os.path.join(merged["out_dir"], "trajectories.csv")
    write_csv(path, ("sample_id", "t", "x", "p", "hill"), blocks())
    print(f"simulate: {cfg.n_samples} trajectories x {cfg.n_steps + 1} slices -> {path}")
    return 0, [path], {}


def _cmd_verify(merged, spec, cfg):
    out_dir = merged["out_dir"]
    # The shifted model is built first, so that a shift it refuses costs no simulation.
    model_spec = dataclasses.replace(spec, x1=spec.x1 + merged["shift_x1"])
    grid = stats.Grid3.auto(spec, cfg, dx=merged["grid_dx"], dp=merged["grid_dp"])
    binned = stats.accumulate_counts(spec, cfg, grid, workers=merged["workers"])
    # The bin probabilities are built one slice at a time and each is freed once the
    # chi-squared has used it, so no more than one slice of them is held.
    report = stats.chi2_time_averaged(binned, stats.iter_bin_probs(model_spec, cfg, grid))
    report_text = _json_text(report.to_dict())
    # The histogram goes first: if its writer fails, no artifact of this run is left.
    hist_path = os.path.join(out_dir, "histogram.csv")
    stats.write_histogram_csv(hist_path, binned)
    report_path = os.path.join(out_dir, "chi2_report.json")
    _json_dump(report_path, report_text)
    verdict = "PASS" if report.passed else "FAIL"
    print(
        f"verify: chi2_bar={report.chi2_bar:.1f} k={report.k:.1f} "
        f"band=[{report.band_lo:.1f}, {report.band_hi:.1f}] -> {verdict}"
    )
    checks = {"chi2_pass": bool(report.passed)}
    return (0 if report.passed else 1), [report_path, hist_path], checks


def _cmd_born(merged, spec, cfg):
    oracle_mass = analysis.born_oracle(spec, cfg)
    parts = map_chunks(spec, cfg, analysis.born_part, merged["workers"], ())
    estimate = analysis.born_from_parts(spec, cfg, parts)
    z = (estimate.f_plus - spec.c1_sq) / estimate.se if estimate.se > 0 else float("nan")
    payload = estimate.to_dict()
    payload.update(
        {
            "c1_sq": spec.c1_sq,
            "oracle_mass_plus": oracle_mass,
            "z_vs_c1sq": z,
            "within_3se": bool(abs(estimate.f_plus - spec.c1_sq) < 3.0 * estimate.se),
        }
    )
    path = os.path.join(merged["out_dir"], "born.json")
    _json_dump(path, _json_text(payload))
    print(
        f"born: f_plus={estimate.f_plus:.5f} (c1_sq={spec.c1_sq}, se={estimate.se:.1e}, "
        f"oracle={oracle_mass:.5f})"
    )
    return 0, [path], {"born_within_3se": payload["within_3se"]}


def _cmd_postselect(merged, spec, cfg):
    out_dir = merged["out_dir"]
    # The measure-x check and the oracle run first: a config they refuse costs no simulation.
    model.boundary_hill(spec, cfg)
    oracle = analysis.postselect_oracle(spec, cfg, sign="+") if merged["oracle"] else None
    edges = analysis.default_qplus_edges(spec)
    part = partial(analysis.postselect_part, sign="+", hist_edges=edges)
    parts = map_chunks(spec, cfg, part, merged["workers"], ())
    report = analysis.postselect_from_parts(parts, "+", edges)
    payload = {"sampled": report.to_dict()}
    if oracle is not None:
        payload["oracle"] = oracle.to_dict()
    path = os.path.join(out_dir, "postselect.json")
    _json_dump(path, _json_text(payload))
    hist_path = os.path.join(out_dir, "qplus_histogram.csv")
    analysis.write_qplus_csv(hist_path, report)
    eps = "nan" if not math.isfinite(report.epsilon) else f"{report.epsilon:.4f}"
    print(
        f"postselect: n={report.n_selected} var_x_cond={report.var_x_cond:.4f} "
        f"var_p_cond={report.var_p_cond:.4f} epsilon={eps}"
    )
    return 0, [path, hist_path], {}


def _cmd_marginal(merged, spec, cfg):
    rows = []
    sx0, sp0 = map(math.sqrt, model.packet(spec, 0.0)[:2])
    gtf = cfg.sign * cfg.t_f
    sxf2, spf2, gx1 = model.packet(spec, gtf)
    sxf, spf = math.sqrt(sxf2), math.sqrt(spf2)
    xs0 = np.linspace(-(spec.x1 + 6 * sx0), spec.x1 + 6 * sx0, 2001)
    xsf = np.linspace(-(gx1 + 6 * sxf), gx1 + 6 * sxf, 2001)
    ps0 = np.linspace(-6 * sp0, 6 * sp0, 2001)
    rows.append(("x_initial", xs0, model.marginal_x(spec, xs0)))
    rows.append(("x_final", xsf, model.marginal_x(spec, xsf, gtf)))
    rows.append(("p_initial", ps0, model.marginal_p(spec, ps0)))
    if cfg.setting is Setting.P:
        psf = np.linspace(-6 * spf, 6 * spf, 2001)
        rows.append(("p_final", psf, model.marginal_p(spec, psf, gtf)))
        pt = np.linspace(-6 * math.exp(spec.r), 6 * math.exp(spec.r), 2001)
        rows.append(("p_final_scaled", pt, model.marginal_p_amplified_scaled(spec, pt)))
    else:
        xt = np.linspace(-(spec.x1 + 6), spec.x1 + 6, 2001)
        rows.append(("x_final_scaled", xt, model.scaled_x_marginal(spec, xt, gtf)))
    path = os.path.join(merged["out_dir"], "marginals.csv")
    blocks = (([kind] * len(c), c, d) for kind, c, d in rows)
    write_csv(path, ("kind", "coord", "density"), blocks)
    print(f"marginal: analytic curves -> {path}")
    return 0, [path], {}


_COMMANDS = {
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "born": _cmd_born,
    "postselect": _cmd_postselect,
    "marginal": _cmd_marginal,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qtraj",
        description="Forward-backward stochastic trajectory simulator for "
        "quadrature measurement by parametric amplification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("config", nargs="?", help="key=value config file")
        cmd.add_argument("--from-manifest", help="reuse the config of a previous run manifest")
        for key, (typ, _, help_text) in _KEYS.items():
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                cmd.add_argument(flag, action="store_const", const=True, help=help_text)
            else:
                choices = _MEASURES if key == "measure" else None
                cmd.add_argument(flag, type=typ, choices=choices, help=help_text)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = {}
        if args.from_manifest:
            file_values.update(load_manifest_config(args.from_manifest))
        if args.config:
            file_values.update(parse_config_file(args.config))
        flag_values = {k: getattr(args, k) for k in _KEYS}
        merged, spec, cfg = resolve_config(file_values, flag_values)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    out_dir = merged["out_dir"]
    created = not os.path.isdir(out_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
        rc, outputs, checks = _COMMANDS[args.command](merged, spec, cfg)
        _write_manifest(out_dir, args.command, merged, outputs, checks, t0)
    except (ValueError, OSError, RuntimeError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if created:
            # rmdir refuses a directory that is not empty, which is then kept.
            with contextlib.suppress(OSError):
                os.rmdir(out_dir)
        return 2
    return rc


if __name__ == "__main__":
    sys.exit(main())
