"""``repro.runner`` — the parallel, cached experiment-sweep engine.

The reproduction's whole-surface sweep (``python -m repro run all``)
used to be one sequential pytest subprocess; this package turns it into
a scheduled sweep: experiments from :data:`repro.experiments.EXPERIMENTS`
fan out across a process pool with per-experiment timeouts, one
automatic retry on worker failure, deterministic per-experiment seed
shards, and a content-addressed result cache keyed by the bench file +
the ``src/repro`` tree — so a warm re-run after an unrelated edit skips
everything unchanged and reports it as ``cached``.  The paper's
layered-defense argument depends on exactly this: cross-layer sweeps
cheap enough to re-run on every change.

Quickstart::

    from repro.experiments import EXPERIMENTS
    from repro.runner import SweepRunner

    report = SweepRunner(EXPERIMENTS, jobs=4).run()
    print(report.to_table())

CLI::

    python -m repro run all --jobs 4            # parallel, cached sweep
    python -m repro run all --jobs 4 --json     # validated sweep document
    python -m repro run fig2 --no-cache         # force one re-run
"""

from repro.runner.cache import (CACHE_VERSION, ResultCache, default_cache_dir,
                                experiment_key, tree_digest)
from repro.runner.engine import (DEFAULT_COMMAND_TEMPLATE, DEFAULT_TIMEOUT_S,
                                 ExperimentResult, SweepRunner)
from repro.runner.report import SchemaError, SweepReport, validate_sweep_dict
from repro.runner.worker import execute, parse_artifacts

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_COMMAND_TEMPLATE",
    "DEFAULT_TIMEOUT_S",
    "ExperimentResult",
    "ResultCache",
    "SchemaError",
    "SweepReport",
    "SweepRunner",
    "default_cache_dir",
    "execute",
    "experiment_key",
    "parse_artifacts",
    "tree_digest",
    "validate_sweep_dict",
]
