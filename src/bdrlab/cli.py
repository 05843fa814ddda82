"""Deterministic command-line front end.

Subcommands: synth, scaling, flops, calib, atr-sim. Configuration comes from
flags and/or a JSON config file. The file's values are read as flags placed
before the command line's, so argparse converts and checks them as it does
flags (a bad value is named by its flag: "argument --trials: invalid int
value: 'abc'"), and a command-line flag wins. The parser is built once per
process and never changed after. Output is CSV (6 significant digits) or JSON
(full precision plus run metadata).

Exit codes: 0 success, 1 usage/config error, 2 acceptance-gate failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import __version__
from .atr import (BACKBONE_G, DEEP_LAYERS, HEADS_G, PREDICTORS_G,
                  SHALLOW_LAYERS, HysteresisConfig, apply_hysteresis,
                  flip_rate, per_layer_pruned_cost, total_flops)
from .calib import CalibrationConfig, r_ece
from .stats import scaling_sweep, WIDTH_BIN_LABELS
from .synth import (NOISE_FAMILIES, NoiseSpec, TimeGrid, _apply_ar1,
                    make_distance_field, make_kernel_features,
                    sample_noise_matrix)

GATE_FAIL = 2
IO_ERROR = 3
USAGE_ERROR = 1


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


# Parsed values left out of the config hash: where and how the output is
# written, the config file (its values are already in the parsed flags), and
# the handler function, whose repr changes from run to run.
UNHASHED = ("out", "format", "config", "func")
# Commands that draw nothing: they accept --seed like every command, but it
# cannot change their output, so it stays out of their hash.
UNSEEDED = ("flops",)


def _metadata(args) -> dict:
    """The seed, a hash of the parsed values bar UNHASHED (and the seed of
    an UNSEEDED command), the tool version."""
    skip = UNHASHED + (("seed",) if args.command in UNSEEDED else ())
    cfg = {k: v for k, v in vars(args).items() if k not in skip}
    blob = json.dumps(cfg, sort_keys=True).encode()
    return {"seed": args.seed,
            "config_hash": hashlib.sha256(blob).hexdigest()[:16],
            "tool_version": __version__}


def _emit(args, header, rows):
    """Write the rows as CSV (6 significant digits) or as JSON records with
    the run metadata, to stdout or to args.out. The text is built in full
    before the file is opened, so a failed run leaves no file."""
    if args.format == "json":
        payload = {"metadata": _metadata(args),
                   "records": [dict(zip(header, row)) for row in rows]}
        text = json.dumps(payload, indent=2, sort_keys=True,
                          default=float) + "\n"
    else:
        text = "".join(",".join(map(_fmt, line)) + "\n"
                       for line in [header, *rows])
    if args.out == "-":
        sys.stdout.write(text)
        return
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# The library names the field a bad value was given for at the start of its
# ValueError ("num_trials must be >= 2"); per command, the flag that sets
# each such field, which the message names instead.
NOISE_FLAGS = {"scale": "--noise-scale", "rho": "--rho", "nu": "--nu"}
FIELD_FLAGS = {
    "synth": {"num_positions": "--num-positions", "stride": "--stride",
              "kappa": "--kappa", "boundaries": "--boundaries",
              "centers": "--boundaries", **NOISE_FLAGS},
    "scaling": {"num_trials": "--trials", "num_positions": "--num-positions",
                "kappa": "--kappas", "stride": "--strides", **NOISE_FLAGS},
    "atr-sim": {"trace_rho": "--trace-rho", "gain": "--gain",
                "gamma": "--gamma"},
}


def _in_flag_terms(command: str, exc: ValueError) -> str:
    """The library's message with the field it starts with replaced by the
    flag that sets it, e.g. "--trials must be >= 2"; a message that starts
    with no such field, as the CLI's own do, is kept as it is."""
    field, _, rest = str(exc).partition(" ")
    flag = FIELD_FLAGS.get(command, {}).get(field)
    return f"{flag} {rest}" if flag else str(exc)


def _noise_from(args) -> NoiseSpec:
    return NoiseSpec(family=args.noise_family, scale=args.noise_scale,
                     rho=args.rho, nu=args.nu)


def cmd_synth(args) -> int:
    grid = TimeGrid(stride=args.stride, num_positions=args.num_positions)
    if args.series == "distance":
        values = make_distance_field(grid, args.boundaries)
    elif args.series == "features":
        if len(args.boundaries) != 1:
            raise ValueError("--series features takes exactly one boundary")
        values = make_kernel_features(grid, args.boundaries[0], args.kappa)
    else:  # noisy observations of the distance field
        if args.seed is None:
            raise ValueError("--seed is required for noisy generation")
        clean = make_distance_field(grid, args.boundaries)
        eps = sample_noise_matrix(_noise_from(args), args.seed, 1,
                                  grid.num_positions)[0]
        values = clean + grid.stride * eps
    t = grid.times()
    rows = [(i, t[i], float(values[i])) for i in range(grid.num_positions)]
    _emit(args, ("position", "time_frames", "value"), rows)
    return 0


def cmd_scaling(args) -> int:
    if args.seed is None:
        raise ValueError("--seed is required")
    if not (np.isfinite(args.band_low) and np.isfinite(args.band_high)
            and args.band_low <= args.band_high):
        raise ValueError("--band-low and --band-high must be finite and ordered")
    cells, slope, intercept, r2, bins = scaling_sweep(
        args.kappas, args.strides, args.num_positions, _noise_from(args),
        args.trials, args.seed)
    summary = [("slope", slope), ("intercept", intercept), ("r_squared", r2),
               *((f"bin:{label}", "" if mean is None else mean)
                 for label, mean in zip(WIDTH_BIN_LABELS, bins))]
    # a summary row puts its label under kappa and its value under R
    rows = cells + [{**dict.fromkeys(cells[0], ""), "kappa": label, "R": value}
                    for label, value in summary]
    _emit(args, tuple(cells[0]), [tuple(row.values()) for row in rows])
    if args.gate and not (args.band_low <= slope <= args.band_high):
        return GATE_FAIL
    return 0


def cmd_flops(args) -> int:
    header = ("expected_tau", "keep_ratio", "backbone_g", "shallow_g",
              "deep_g", "heads_g", "predictors_g", "per_layer_pruned_g",
              "total_g")
    rows = []
    for tau, keep in args.points:
        try:
            plp, total = per_layer_pruned_cost(keep), total_flops(keep, tau)
        except ValueError as exc:  # the library names the field
            raise ValueError(f"--points pair {tau!r}:{keep!r}: {exc}")
        rows.append((tau, keep, BACKBONE_G, SHALLOW_LAYERS * plp,
                     tau * DEEP_LAYERS * plp, HEADS_G, PREDICTORS_G, plp,
                     total))
    _emit(args, header, rows)
    return 0


def _calib_scenario(name: str, samples: int, seed: int):
    rng = np.random.default_rng(seed)
    sigma = np.exp(rng.uniform(np.log(0.2), np.log(5.0), samples))
    errors = rng.standard_normal(samples)
    errors *= sigma
    if name == "sigma_x2":
        sigma *= 2.0
    return errors, sigma


def _read_error_sigma_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty input file")
    errors, sigmas = [], []
    for ln, line in enumerate(lines, start=1):
        parts = line.split(",")
        try:
            error, sigma = float(parts[0]), float(parts[1])
        except (IndexError, ValueError):
            if ln == 1 or not line.strip():  # the header or a blank line
                continue
            raise ValueError(f"malformed CSV at line {ln}: {line!r}")
        if ln == 1:
            raise ValueError(f"--input line 1 must be a header, not {line!r}")
        errors.append(error)
        sigmas.append(sigma)
    if not errors:
        raise ValueError("input file has no data rows")
    return np.array(errors), np.array(sigmas)


def cmd_calib(args) -> int:
    if args.bins < 2:
        raise ValueError("--bins must be at least 2")
    if args.input:
        errors, sigmas = _read_error_sigma_csv(args.input)
        if errors.size < args.bins:
            raise ValueError(f"--input has {errors.size} data rows, fewer "
                             f"than --bins {args.bins}")
    else:
        if args.seed is None:
            raise ValueError("--seed is required for synthetic scenarios")
        if args.samples < args.bins:
            raise ValueError(f"--samples must be at least --bins {args.bins}")
        errors, sigmas = _calib_scenario(args.scenario, args.samples, args.seed)
    cfg = CalibrationConfig(num_bins=args.bins)
    value, rows = r_ece(errors, sigmas, cfg, return_bins=True)
    header = ("bin", "count", "mean_sigma_sq", "coverage")
    out_rows = [(i, c, ms, cov) for i, (c, ms, cov) in enumerate(rows)]
    out_rows.append(("r_ece", "", "", value))
    _emit(args, header, out_rows)
    return 0


def tau_scenario(length: int, rho: float, gain: float, seed: int) -> np.ndarray:
    """Synthetic depth-allocation trace: logistic of an AR(1) latent.

    rho defaults near cos(0.182*pi) so the raw flip rate of the latent sits
    around the observed 18% level; it must lie in (-1, 1).
    """
    if not -1.0 < rho < 1.0:
        raise ValueError("trace_rho must be in (-1, 1)")
    if not np.isfinite(gain):
        raise ValueError("gain must be finite")
    eta = np.random.default_rng(seed).normal(0.0, 1.0, length)
    x = _apply_ar1(eta, rho)
    return 1.0 / (1.0 + np.exp(-gain * x))


def cmd_atr_sim(args) -> int:
    if args.seed is None:
        raise ValueError("--seed is required")
    if args.length < 2:
        raise ValueError("--length must be at least 2: flip rates need a pair")
    tau = tau_scenario(args.length, args.trace_rho, args.gain, args.seed)
    raw_flip = flip_rate(tau)
    header = ("mode", "gamma", "flip_rate_raw", "flip_rate_stabilized",
              "mean_tau_raw", "mean_tau_stabilized")
    rows = []
    for mode in ("hold_previous", "deadzone_half"):
        cfg = HysteresisConfig(gamma=args.gamma, mode=mode)
        stab = apply_hysteresis(tau, cfg)
        rows.append((mode, args.gamma, raw_flip, flip_rate(stab),
                     float(np.mean(tau)), float(np.mean(stab))))
    _emit(args, header, rows)
    return 0


def _floats(text: str) -> list:
    """A comma list of numbers, such as --kappas 1,2,4,8."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of numbers such as 1,2,4, not {text!r}")


def _flops_points(text: str) -> list:
    """A comma list of expected_tau:keep_ratio pairs."""
    points = []
    for part in text.split(","):
        try:
            tau, keep = part.split(":")
            points.append((float(tau), float(keep)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{part!r} is not an expected_tau:keep_ratio pair")
    return points


def _seed(text: str) -> int:
    """A non-negative integer, as numpy's generators take."""
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, not {text!r}")


def _add_common(p):
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--config", default=None,
                   help="JSON config file; flags override its values")


def _add_noise(p):
    p.add_argument("--noise-family", choices=NOISE_FAMILIES,
                   default=NoiseSpec.family)
    p.add_argument("--noise-scale", type=float, default=NoiseSpec.scale)
    p.add_argument("--rho", type=float, default=NoiseSpec.rho)
    p.add_argument("--nu", type=float, default=NoiseSpec.nu)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bdrlab")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="emit synthetic series")
    _add_common(p)
    _add_noise(p)
    p.add_argument("--series", choices=("distance", "features", "noisy"),
                   default="distance")
    p.add_argument("--num-positions", type=int, default=100)
    p.add_argument("--stride", type=float, default=1.0)
    p.add_argument("--boundaries", type=_floats, default="25")
    p.add_argument("--kappa", type=float, default=2.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("scaling", help="variance-ratio scaling sweep")
    _add_common(p)
    _add_noise(p)
    p.add_argument("--kappas", type=_floats, default="1,2,4,8")
    p.add_argument("--strides", type=_floats, default="1,2,4,8")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--num-positions", type=int, default=200)
    p.add_argument("--gate", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="exit 2 unless the fitted slope is inside the band")
    p.add_argument("--band-low", type=float, default=0.8)
    p.add_argument("--band-high", type=float, default=1.3)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("flops", help="itemised analytic cost table")
    _add_common(p)
    p.add_argument("--points", type=_flops_points, default="0.16:0.8",
                   help="comma list of expected_tau:keep_ratio pairs")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("calib", help="regression calibration report")
    _add_common(p)
    p.add_argument("--scenario", choices=("well_calibrated", "sigma_x2"),
                   default="well_calibrated")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--bins", type=int, default=CalibrationConfig.num_bins)
    p.add_argument("--input", default=None,
                   help="CSV of error,sigma instead of a scenario")
    p.set_defaults(func=cmd_calib)

    p = sub.add_parser("atr-sim", help="hysteresis stabilisation report")
    _add_common(p)
    p.add_argument("--length", type=int, default=10000)
    p.add_argument("--trace-rho", type=float, default=0.84)
    p.add_argument("--gain", type=float, default=0.2)
    p.add_argument("--gamma", type=float, default=HysteresisConfig.gamma)
    p.set_defaults(func=cmd_atr_sim)
    return ap


PARSER = build_parser()


def _config_flags(command: str, path: str):
    """Yield the JSON config file's values as flags of the subcommand, each
    `--flag=value` (the `=` keeps a value such as "-5,30" from reading as an
    option) or a bare switch set to true, for argparse to convert and check
    as it does the command line's own."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    sub = next(a for a in PARSER._actions if a.dest == "command").choices[command]
    actions = {a.dest: a for a in sub._actions
               if a.option_strings and a.dest not in ("help", "config")}
    for key, value in cfg.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key: {key}")
        flag = action.option_strings[0]
        if action.nargs == 0:  # a switch such as --gate
            if not isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be true or false")
            if value:
                yield flag
        elif isinstance(value, (bool, list, dict)) or value is None:
            raise ValueError(f"config key {key!r} must be a string or a number")
        else:
            yield f"{flag}={value}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = PARSER.parse_args(argv)
        if args.config:
            # the file's flags go right after the subcommand name, so a
            # command-line flag in any spelling comes later and wins
            at = argv.index(args.command) + 1
            args = PARSER.parse_args(
                [*argv[:at], *_config_flags(args.command, args.config),
                 *argv[at:]])
        return args.func(args)
    except SystemExit as exc:  # argparse exits 2 on bad flags; remap
        return 0 if exc.code in (0, None) else USAGE_ERROR
    except ValueError as exc:  # the CLI's own checks and the library's
        print(f"error: {_in_flag_terms(args.command, exc)}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:  # a size too large to allocate
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
