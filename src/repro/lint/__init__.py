"""``repro.lint``: a flow-aware determinism/dataflow/concurrency analyzer.

AST-based static analysis specialized to this pipeline's contracts:

* determinism rules (DET001-DET005) flag run-to-run variation sources in
  modules reachable from the pipeline stage bodies;
* dataflow rules (DF001-DF005) check the declarative stage graph
  (:data:`repro.core.pipeline.STAGE_GRAPH`) against the stage bodies;
* async rules (ASYNC001-ASYNC004) guard the serve layer's coroutines:
  shared-state races across ``await``, blocking calls on the event
  loop, fire-and-forget tasks, locks held across awaits;
* resource rules (RES001-RES003) track acquire/release obligations on
  the CFG: temp files must reach replace-or-unlink, handles and
  sockets must be finalized on every path;
* exception rules (EXC001-EXC002) keep broad/bare excepts from
  swallowing failures in the durability-critical modules;
* concurrency rules (CONC001-CONC003, CONC005) pin the crash-safety and
  fork-boundary idioms — fsync must *dominate* ``os.replace``, lock
  releases must cover every path out of an acquire.

The flow-aware families run on a per-function control-flow graph
(:mod:`repro.lint.cfg`) with generic dataflow analyses on top
(:mod:`repro.lint.dataflow`: dominators, post-dominators, reaching
definitions, obligation tracking).

Run it as ``repro lint`` (see :mod:`repro.cli`) or programmatically::

    from repro.lint import run_lint
    report = run_lint(["src/repro"], jobs=4,
                      cache_path=".repro-lint-cache.json")
    print(report.human())

Findings are suppressed per site with a mandatory reason::

    t0 = time.perf_counter()  # repro-lint: disable=DET001 reason=telemetry

See ``docs/STATIC_ANALYSIS.md`` for the rule catalog and policy.
"""

from repro.lint.cfg import CFG, CFGNode, Edge, build_cfg
from repro.lint.dataflow import (
    dominators,
    path_with_await,
    postdominators,
    reaching_definitions,
    track_obligations,
)
from repro.lint.engine import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    FileContext,
    FileTiming,
    Finding,
    LintEngine,
    LintReport,
    ProjectContext,
    Rule,
    Suppression,
    parse_suppressions,
)
from repro.lint.rules import RULESET_VERSION, all_rules
from repro.lint.rules.dataflow import (
    CtxEffects,
    GraphFinding,
    check_stage_graph,
    collect_ctx_effects,
)
from repro.lint.runner import run_lint
from repro.lint.schema import (
    LINT_REPORT_SCHEMA,
    LINT_REPORT_SCHEMA_V1,
    validate_report,
)

__all__ = [
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "CFG",
    "CFGNode",
    "Edge",
    "build_cfg",
    "dominators",
    "postdominators",
    "reaching_definitions",
    "track_obligations",
    "path_with_await",
    "FileContext",
    "FileTiming",
    "Finding",
    "LintEngine",
    "LintReport",
    "ProjectContext",
    "Rule",
    "Suppression",
    "parse_suppressions",
    "RULESET_VERSION",
    "all_rules",
    "run_lint",
    "CtxEffects",
    "GraphFinding",
    "check_stage_graph",
    "collect_ctx_effects",
    "LINT_REPORT_SCHEMA",
    "LINT_REPORT_SCHEMA_V1",
    "validate_report",
]
