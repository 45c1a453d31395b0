"""Command-line interface.

Commands
    rate             closed-form chain report from a [chain] config
    simulate         Monte Carlo the chain (or one elementary link)
    link-experiment  storage-time and mode-count scans of the link model
    fit              least-squares fit of a CSV (exp | linear | sinusoid)
    sweep            rate as a function of one chain parameter

Every result file and the manifest are laid out here, from the records the
library returns.

Exit codes: 0 success, 2 config/CSV parse failure or bad arguments, 3 domain
violation, 4 degenerate run (timeout-dominated simulation, zero heralds),
5 fit did not converge.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys
import time
import warnings
from pathlib import Path

from . import __version__
from .chain_sim import simulate_chain, simulate_elementary_link
from .config_io import (
    CHAIN_FIELDS,
    canonical_json,
    format_cell,
    format_float,
    parse_config,
    write_csv_atomic,
    write_text_atomic,
)
from .errors import (RANGES, ConfigError, DlczSimError, NoHeraldsError, ParameterError,
                     StalledChainError, rule)
from .experiments import mode_count_scan, storage_time_scan
from .fitters import Samples, fit_exponential, fit_linear_origin, fit_sinusoid
from .rate import swap_chain

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_DEGENERATE = 4
EXIT_NO_CONVERGENCE = 5

# version of the manifest.json layout
ARTIFACT_VERSION = "1.0"

# Link slots (train x mode x node) one link-experiment may draw: about 1 min at the
# ~0.55 ns a slot of the shipped config (2.6e8 slots) on a 2-core Xeon, more if more are lit.
MAX_LINK_SLOTS = 10**11


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="INI configuration file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out-dir", type=Path, help="directory for result files")


def _flag(cast, allowed):
    """argparse type: ``cast`` the text and check it against RANGES[allowed]."""
    def convert(text: str):
        try:
            value = cast(text)
        except ValueError:
            kind = "an integer" if cast is int else "a number"
            raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}") from None
        lo, hi = RANGES[allowed]
        if not lo < value < hi:
            raise argparse.ArgumentTypeError(f"must be {rule(allowed)}, got {value!r}")
        return value
    return convert


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlczsim",
        description="Temporally multiplexed DLCZ repeater link simulator")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="closed-form repeater-chain rate")
    _common_flags(p_rate)
    p_rate.add_argument("--format", choices=("json", "csv"), default="json",
                        help="write rate.json or rate.csv")
    p_rate.set_defaults(func=cmd_rate)

    p_sim = sub.add_parser("simulate", help="Monte Carlo chain simulation")
    _common_flags(p_sim)
    p_sim.add_argument("--trials", type=int, help="override the config trial count")
    p_sim.add_argument("--workers", type=_flag(int, ">= 1"), default=1,
                       help="accepted for compatibility (>= 1); every trial runs in "
                            "this process, so results are identical for any value")
    p_sim.add_argument("--elementary", action="store_true",
                       help="simulate only elementary-link generation")
    p_sim.set_defaults(func=cmd_simulate)

    p_link = sub.add_parser("link-experiment",
                            help="concurrence/visibility/efficiency scans")
    _common_flags(p_link)
    p_link.set_defaults(func=cmd_link_experiment)

    p_fit = sub.add_parser("fit", help="least-squares fit of a CSV file")
    p_fit.add_argument("csv", type=Path, help="input CSV with header x,y[,weight]")
    p_fit.add_argument("--model", choices=("exp", "linear", "sinusoid"), required=True)
    p_fit.add_argument("--out-dir", type=Path, help="directory for result files")
    p_fit.set_defaults(func=cmd_fit)

    p_sweep = sub.add_parser("sweep", help="rate versus one chain parameter")
    _common_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, help="ChainParams field to sweep")
    p_sweep.add_argument("--min", type=_flag(float, None), required=True)
    p_sweep.add_argument("--max", type=_flag(float, None), required=True)
    p_sweep.add_argument("--steps", type=_flag(int, "in [2, 100000]"), default=20)
    p_sweep.add_argument("--fixed-total-km", type=_flag(float, "> 0"), default=None,
                         help="when sweeping l0, keep the end-to-end distance at this "
                              "value by re-deriving n_levels per grid point")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _config_as_dict(config) -> dict:
    """The resolved parameter set, as the manifest records it."""
    out: dict = {"trials": config.trials, "seed": config.seed,
                 "max_sim_time_s": config.max_sim_time}
    if config.link is not None:
        out["link"] = dataclasses.asdict(config.link)
    if config.chain is not None:
        out["chain"] = dataclasses.asdict(config.chain)
    out["experiment"] = dataclasses.asdict(config.experiment)
    return out


def _load_config(args, section: str):
    if args.config is None:
        raise ConfigError("this command requires --config")
    config = parse_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if getattr(args, "trials", None) is not None:
        config = dataclasses.replace(config, trials=args.trials)
    if getattr(config, section) is None:
        raise ConfigError(f"{args.command} requires a [{section}] section")
    return config


class _Run:
    """Start time, result files and manifest of one command.

    Files are written only under --out-dir. A path that is, or lies under, an
    existing non-directory is rejected before any work; the directory itself
    is made by the first write, so a run that fails first leaves none.
    """

    def __init__(self, args, command: str):
        self.out_dir, self.command = args.out_dir, command
        self.started = time.time()
        self.outputs: list[str] = []
        if self.out_dir is not None:
            found = next((p for p in (self.out_dir, *self.out_dir.parents)
                          if os.path.exists(p)), None)
            if found is not None and not os.path.isdir(found):
                raise ConfigError(f"--out-dir {self.out_dir}: {found} is not a directory")

    def _write(self, name: str, write, *args, **kwargs) -> str:
        path = self.out_dir / name
        try:
            write(path, *args, **kwargs)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        return str(path)

    def emit(self, name: str, write, *args, **kwargs) -> None:
        """Write result file ``name`` with ``write(path, *args, **kwargs)``."""
        if self.out_dir is not None:
            self.outputs.append(self._write(name, write, *args, **kwargs))

    def finish(self, parameters: dict, seed: int, code: int = EXIT_OK) -> int:
        """Write the manifest and return the exit code."""
        if self.out_dir is not None:
            now = time.time()
            self._write("manifest.json", write_text_atomic, canonical_json({
                "artifact_version": ARTIFACT_VERSION,
                "command": self.command,
                "created_unix": now,
                "duration_s": now - self.started,
                "outputs": sorted(self.outputs),
                "parameters": parameters,
                "seed": seed,
            }))
        return code


def cmd_rate(args) -> int:
    run = _Run(args, "rate")
    config = _load_config(args, "chain")
    try:
        report = swap_chain(config.chain)
    except StalledChainError as exc:
        print(f"warning: {exc}", file=sys.stderr)
        print("rate_hz 0")
        result = {"rate_hz": 0.0, "stalled_level": exc.level}
        rows, trailers = [], ("rate_hz 0", f"stalled_level {exc.level}")
    else:
        for level, t_i in enumerate(report.level_time, start=1):
            if not math.isfinite(t_i):
                # the rate is then 0, but no result file can hold an infinite time
                raise ParameterError(f"the level-{level} mean time t_{level} overflows")

        print(f"T_cc_s          {format_float(report.t_cc)}")
        print(f"P0              {format_float(report.p0)}")
        print(f"P0_multiplexed  {format_float(report.p0_multiplexed)}"
              f"   (linear N*P0 {format_float(report.p0_linear)})")
        print(f"t0_s            {format_float(report.t0)}")
        for i, (p_i, t_i) in enumerate(zip(report.level_success, report.level_time), start=1):
            print(f"level {i}:  P={format_float(p_i)}  t_s={format_float(t_i)}")
        print(f"P_pr            {format_float(report.p_pr)}")
        print(f"rate_hz         {format_float(report.rate_hz)}")
        result = {
            "p0": report.p0,
            "p0_multiplexed": report.p0_multiplexed,
            "p0_linear": report.p0_linear,
            "t_cc_s": report.t_cc,
            "t0_s": report.t0,
            "level_success": report.level_success,
            "level_time_s": report.level_time,
            "p_pr": report.p_pr,
            "rate_hz": report.rate_hz,
        }
        rows = [(i, p, t) for i, (p, t) in
                enumerate(zip(report.level_success, report.level_time), start=1)]
        trailers = (f"rate_hz {format_float(report.rate_hz)}",)

    if args.format == "csv":
        run.emit("rate.csv", write_csv_atomic, ("level", "p_i", "t_i_s"), rows,
                 trailer_comments=trailers)
    else:
        run.emit("rate.json", write_text_atomic, canonical_json(result))
    return run.finish(_config_as_dict(config), config.seed)


def cmd_simulate(args) -> int:
    run = _Run(args, "simulate")
    config = _load_config(args, "chain")

    if args.elementary:
        trace = simulate_elementary_link(config.chain, config.trials, config.seed)
        print(f"intervals {trace.intervals}  successes {trace.successes}")
        print(f"empirical_success {format_float(trace.empirical_success)}  "
              f"analytic {format_float(trace.analytic_success)}")
        run.emit("trace.json", write_text_atomic, canonical_json({
            "mode": "elementary",
            "intervals": trace.intervals,
            "successes": trace.successes,
            "empirical_success": trace.empirical_success,
            "analytic_success": trace.analytic_success,
            "waiting_times_tcc": trace.waiting_times.tolist(),
        }))
        return run.finish(_config_as_dict(config), config.seed)

    trace = simulate_chain(config)
    print(f"delivered {trace.delivered}/{config.trials}  timeouts {trace.timeouts}")
    print(f"empirical_rate_hz {format_float(trace.empirical_rate)} "
          f"+/- {format_float(trace.rate_stderr)}")
    print(f"analytic_rate_hz  {format_float(trace.analytic_rate)}")
    run.emit("trace.json", write_text_atomic, canonical_json({
        "trials": config.trials,
        "seed": config.seed,
        "delivered": trace.delivered,
        "timeouts": trace.timeouts,
        "swap_attempts": trace.swap_attempts.tolist(),
        "swap_successes": trace.swap_successes.tolist(),
        "readout_attempts": trace.readout_attempts,
        "readout_successes": trace.readout_successes,
        "empirical_rate_hz": trace.empirical_rate,
        "rate_stderr_hz": trace.rate_stderr if math.isfinite(trace.rate_stderr) else None,
        "analytic_rate_hz": trace.analytic_rate,
        "mean_delivery_time_s": (float(trace.delivery_times.mean())
                                 if trace.delivered else None),
        "delivery_times_s": trace.delivery_times.tolist(),
    }))
    run.emit("latency.csv", write_csv_atomic, ("bin_start_s", "bin_end_s", "count"), [
        (float(lo), float(hi), int(count)) for lo, hi, count in
        zip(trace.histogram_edges[:-1], trace.histogram_edges[1:], trace.histogram_counts)])
    if trace.timeouts > 0.5 * config.trials:
        print(f"error: {trace.timeouts} of {config.trials} trials timed out at "
              f"max_sim_time={config.max_sim_time}s", file=sys.stderr)
        return run.finish(_config_as_dict(config), config.seed, EXIT_DEGENERATE)
    return run.finish(_config_as_dict(config), config.seed)


def _emit_scan(run: _Run, name: str, rows: list[dict]) -> None:
    """Print scan rows as column-value pairs and write them as CSV with the
    first row's keys as header."""
    for row in rows:
        print("  ".join(f"{key} {format_cell(value)}" for key, value in row.items()))
    run.emit(name, write_csv_atomic, tuple(rows[0]), [tuple(row.values()) for row in rows])


def cmd_link_experiment(args) -> int:
    run = _Run(args, "link-experiment")
    config = _load_config(args, "link")
    exp = config.experiment
    slots = (2 * config.link.mode_count * exp.trains * len(exp.storage_times_us)
             + sum(2 * n * max(1, exp.window_budget // n) for n in exp.mode_counts))
    if slots > MAX_LINK_SLOTS:
        raise ParameterError(f"the scans would draw {slots} link slots, more than "
                             f"{MAX_LINK_SLOTS}: lower trains or window_budget")

    storage_points = storage_time_scan(
        config.link, exp.storage_times, exp.trains, config.seed,
        phases=exp.fringe_phases, shots_per_phase=exp.fringe_shots)
    mode_points = mode_count_scan(
        config.link, exp.mode_counts, exp.storage_times[0], exp.window_budget,
        config.seed, phases=exp.fringe_phases, shots_per_phase=exp.fringe_shots)
    for p in storage_points + mode_points:
        if not p.fit_converged:
            print(f"warning: the fringe fit did not converge at storage time "
                  f"{format_float(p.storage_time * 1e6)} us, N = {p.mode_count}",
                  file=sys.stderr)
    # both scans finish before any output, so a scan that raises writes no file
    _emit_scan(run, "storage_scan.csv", [
        {"storage_time_us": p.storage_time * 1e6, "C": p.concurrence,
         "C_stderr": p.concurrence_stderr, "V": p.visibility, "eta": p.efficiency}
        for p in storage_points])
    _emit_scan(run, "mode_scan.csv", [
        {"mode_count": p.mode_count, "P_D": p.detection_probability, "C": p.concurrence}
        for p in mode_points])
    return run.finish(_config_as_dict(config), config.seed)


_FIT_DISPATCH = {
    "exp": fit_exponential,
    "linear": fit_linear_origin,
    "sinusoid": fit_sinusoid,
}


def cmd_fit(args) -> int:
    run = _Run(args, "fit")
    samples = Samples.from_csv(args.csv)
    result = _FIT_DISPATCH[args.model](samples)
    text = canonical_json(dataclasses.asdict(result))
    print(text, end="")
    run.emit("fit.json", write_text_atomic, text)
    code = EXIT_OK
    if not result.converged:
        print("error: fit did not converge", file=sys.stderr)
        code = EXIT_NO_CONVERGENCE
    return run.finish({"csv": str(args.csv), "model": args.model}, 0, code)


def _monotonicity(values) -> str:
    increasing = all(b >= a for a, b in zip(values, values[1:]))
    decreasing = all(b <= a for a, b in zip(values, values[1:]))
    if increasing and decreasing:
        return "constant"
    if increasing:
        return "non-decreasing"
    if decreasing:
        return "non-increasing"
    peak = max(range(len(values)), key=values.__getitem__)
    if 0 < peak < len(values) - 1:
        return f"interior-maximum at index {peak}"
    return "non-monotonic"


def cmd_sweep(args) -> int:
    run = _Run(args, "sweep")
    config = _load_config(args, "chain")
    casts = {name: cast for name, cast, _ in CHAIN_FIELDS}
    if args.param not in casts:
        raise ConfigError(f"unknown chain parameter {args.param!r}; choose from "
                          f"{sorted(casts)}")
    if args.max <= args.min:
        raise ConfigError("need --max > --min")
    if args.fixed_total_km is not None and args.param != "l0":
        raise ConfigError("--fixed-total-km only applies to --param l0")

    is_int = casts[args.param] is int
    grid = []
    for i in range(args.steps):
        value = args.min + (args.max - args.min) * i / (args.steps - 1)
        grid.append(int(round(value)) if is_int else value)

    rows = []
    for value in grid:
        fields = {args.param: value}
        if args.fixed_total_km is not None and value > 0:
            # keep 2^n * l0 as close to the requested span as integer n allows (a
            # difference of logs stays finite where the ratio would overflow);
            # ChainParams names a non-positive l0
            fields["n_levels"] = max(0, round(math.log2(args.fixed_total_km) - math.log2(value)))
        chain = dataclasses.replace(config.chain, **fields)
        try:
            rate = swap_chain(chain).rate_hz
        except StalledChainError:
            rate = 0.0
        rows.append((value, rate))
    diagnostic = _monotonicity([rate for _, rate in rows])

    for value, rate in rows:
        print(f"{args.param} {format_float(float(value))}  rate_hz {format_float(rate)}")
    print(f"# monotonicity: {diagnostic}")
    run.emit("sweep.csv", write_csv_atomic, (args.param, "rate_hz"), rows,
             trailer_comments=(f"monotonicity: {diagnostic}",))
    return run.finish({**_config_as_dict(config), "param": args.param,
                       "min": args.min, "max": args.max, "steps": args.steps,
                       "monotonicity": diagnostic},
                      config.seed)


def _show_warning(message, *args, **kwargs) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # a library warning is one `warning:` line, like every other diagnostic
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        except NoHeraldsError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DEGENERATE
        except DlczSimError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
