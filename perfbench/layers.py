"""Per-layer instrumentation: which dlczsim functions get spans, and the
per-layer metrics computed from those spans and counters.

The layers are the modules of ``src/dlczsim``. Only public functions are
wrapped, at the module attribute their caller looks up. Private kernels
(``_stokes_clicks``, ``_sample_excitations``) get no span; the one private
function touched, ``fitters._refit_unit_visibility``, is only counted.
"""

from __future__ import annotations

import numpy as np

from spans import Patches, Tracer

LEVELS = 4      # nesting levels of both chain workloads

# (name, unit, better) of every metric a traced run prints.
PER_LAYER = [
    ("chain_sim.busy_s", "s", "lower"),
    ("chain_sim.trials", "count", "higher"),
    ("chain_sim.trials_per_s", "1/s", "higher"),
    ("chain_sim.ticks", "count", "lower"),
    ("chain_sim.ticks_per_s", "1/s", "higher"),
    *((f"chain_sim.swap_attempts.l{lev}", "count", "lower") for lev in range(1, LEVELS + 1)),
    *((f"chain_sim.swap_success_frac.l{lev}", "fraction", "higher")
      for lev in range(1, LEVELS + 1)),
    ("chain_sim.readout_success_frac", "fraction", "higher"),
    ("chain_sim.delivered_frac", "fraction", "higher"),
    ("streams.substream_calls", "count", "lower"),
    ("streams.substream_s", "s", "lower"),
    ("link_physics.calls", "count", "lower"),
    ("link_physics.busy_s", "s", "lower"),
    ("link_physics.slots", "count", "higher"),
    ("link_physics.slots_per_s", "1/s", "higher"),
    ("link_physics.herald_frac", "fraction", "higher"),
    ("link_physics.closed_form_s", "s", "lower"),
    ("experiments.storage_scan_s", "s", "lower"),
    ("experiments.mode_scan_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("metrics.bootstrap_calls", "count", "lower"),
    ("metrics.bootstrap_s", "s", "lower"),
    ("fitters.fit_sinusoid_calls", "count", "lower"),
    ("fitters.fit_sinusoid_s", "s", "lower"),
    ("fitters.refit_calls", "count", "lower"),
    ("rate.swap_chain_calls", "count", "lower"),
    ("rate.swap_chain_us", "us", "lower"),
    ("config_io.parse_s", "s", "lower"),
    ("config_io.write_s", "s", "lower"),
    ("config_io.bytes_written", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _chain_counts(counts, args, kwargs, trace) -> None:
    chain = trace.config.chain
    max_ticks = int(trace.config.max_sim_time / chain.t_cc)
    counts["chain.trials"] += trace.config.trials
    counts["chain.delivered"] += trace.delivered
    counts["chain.ticks"] += (int(np.rint(trace.delivery_times / chain.t_cc).sum())
                              + trace.timeouts * max_ticks)
    counts["chain.readout_attempts"] += trace.readout_attempts
    counts["chain.readout_successes"] += trace.readout_successes
    for lev, (att, suc) in enumerate(zip(trace.swap_attempts, trace.swap_successes), start=1):
        counts[f"chain.swap_attempts.l{lev}"] += int(att)
        counts[f"chain.swap_successes.l{lev}"] += int(suc)


def _link_counts(counts, args, kwargs, tally) -> None:
    params = args[0]
    counts["link.trains"] += tally.trains
    counts["link.heralded"] += tally.heralded
    counts["link.slots"] += tally.trains * 2 * params.mode_count


def _bytes_written(counts, args, kwargs, result) -> None:
    counts["config_io.bytes"] += len(args[1].encode())


def instrument(tracer: Tracer, patches: Patches) -> None:
    import dlczsim.chain_sim as chain_sim
    import dlczsim.cli as cli
    import dlczsim.config_io as config_io
    import dlczsim.experiments as experiments
    import dlczsim.fitters as fitters

    tracer.wrap(patches, cli, "main", "cli")
    tracer.wrap(patches, cli, "simulate_chain", "chain_sim", _chain_counts)
    tracer.wrap(patches, chain_sim, "substream", "streams")
    tracer.wrap(patches, experiments, "substream", "streams")
    tracer.wrap(patches, cli, "storage_time_scan", "experiments.storage_scan")
    tracer.wrap(patches, cli, "mode_count_scan", "experiments.mode_scan")
    tracer.wrap(patches, experiments, "run_link_trials", "link_physics", _link_counts)
    tracer.wrap(patches, experiments, "fringe_expectation", "link_physics.closed_form")
    tracer.wrap(patches, experiments, "bootstrap_concurrence_stderr", "metrics.bootstrap")
    tracer.wrap(patches, experiments, "fit_sinusoid", "fitters.fit_sinusoid")
    tracer.count(patches, fitters, "_refit_unit_visibility", "fitters.refit")
    tracer.wrap(patches, cli, "swap_chain", "rate.swap_chain")
    tracer.wrap(patches, chain_sim, "swap_chain", "rate.swap_chain")
    tracer.wrap(patches, cli, "parse_config", "config_io.parse")
    tracer.wrap(patches, cli, "write_text_atomic", "config_io.write", _bytes_written)
    tracer.wrap(patches, cli, "write_csv_atomic", "config_io.write")
    # write_csv_atomic and RunManifest.write reach it through config_io's globals
    tracer.wrap(patches, config_io, "write_text_atomic", "config_io.write", _bytes_written)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    spans, c = tracer.summary(), tracer.counts

    def get(name: str, key: str) -> float:
        return spans[name][key] if name in spans else 0.0

    chain_busy = get("chain_sim", "self_s")
    link_busy = get("link_physics", "self_s")
    values = {
        "chain_sim.busy_s": chain_busy,
        "chain_sim.trials": c["chain.trials"],
        "chain_sim.trials_per_s": _ratio(c["chain.trials"], chain_busy),
        "chain_sim.ticks": c["chain.ticks"],
        "chain_sim.ticks_per_s": _ratio(c["chain.ticks"], chain_busy),
        "chain_sim.readout_success_frac": _ratio(c["chain.readout_successes"],
                                                 c["chain.readout_attempts"]),
        "chain_sim.delivered_frac": _ratio(c["chain.delivered"], c["chain.trials"]),
        "streams.substream_calls": get("streams", "calls"),
        "streams.substream_s": get("streams", "total_s"),
        "link_physics.calls": get("link_physics", "calls"),
        "link_physics.busy_s": link_busy,
        "link_physics.slots": c["link.slots"],
        "link_physics.slots_per_s": _ratio(c["link.slots"], link_busy),
        "link_physics.herald_frac": _ratio(c["link.heralded"], c["link.trains"]),
        "link_physics.closed_form_s": get("link_physics.closed_form", "total_s"),
        "experiments.storage_scan_s": get("experiments.storage_scan", "total_s"),
        "experiments.mode_scan_s": get("experiments.mode_scan", "total_s"),
        "experiments.self_s": (get("experiments.storage_scan", "self_s")
                               + get("experiments.mode_scan", "self_s")),
        "metrics.bootstrap_calls": get("metrics.bootstrap", "calls"),
        "metrics.bootstrap_s": get("metrics.bootstrap", "total_s"),
        "fitters.fit_sinusoid_calls": get("fitters.fit_sinusoid", "calls"),
        "fitters.fit_sinusoid_s": get("fitters.fit_sinusoid", "total_s"),
        "fitters.refit_calls": c["fitters.refit"],
        "rate.swap_chain_calls": get("rate.swap_chain", "calls"),
        "rate.swap_chain_us": 1e6 * _ratio(get("rate.swap_chain", "total_s"),
                                           get("rate.swap_chain", "calls")),
        "config_io.parse_s": get("config_io.parse", "total_s"),
        "config_io.write_s": get("config_io.write", "self_s"),
        "config_io.bytes_written": c["config_io.bytes"],
        "cli.self_s": get("cli", "self_s"),
        "trace.overhead_s": overhead_s,
    }
    for lev in range(1, LEVELS + 1):
        attempts = c[f"chain.swap_attempts.l{lev}"]
        values[f"chain_sim.swap_attempts.l{lev}"] = attempts
        values[f"chain_sim.swap_success_frac.l{lev}"] = _ratio(
            c[f"chain.swap_successes.l{lev}"], attempts)
    return values
