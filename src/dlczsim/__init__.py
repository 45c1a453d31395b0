"""Simulator and analytic calculator for temporally multiplexed DLCZ repeater links.

The modules map onto the problem's layers:

    link_physics   photon statistics of one elementary link: batch sampling
                   pipeline and its exact closed forms
    metrics        concurrence / visibility / retrieval-efficiency estimators
    rate           the chain law and its closed-form nested-chain rate recursion
    chain_sim      level-pooled Monte Carlo of the full chain, on the same law
    fitters        weighted least-squares fits (exponential, linear, fringe)
    experiments    storage-time and mode-count scan pipelines
    config_io      every input record and its key spec, INI configs, result files
    errors         exception types, value ranges and the field validator
    streams        seeded random sub-streams
    cli            the `dlczsim` command

Import names from these modules; the package itself exports only __version__.
"""

__version__ = "1.0.0"
