"""repro.analysis — project-specific static analysis (``reprolint``).

An AST-based lint engine plus two rule packs encoding this
repository's domain invariants:

* per-file rules — seeded randomness (R1), no float equality on hot
  paths (R2), CSR-view lifetimes (R3), mutable defaults / shadowed
  builtins (R4), registered metric names (R5), and unit-suffixed
  queueing/cost identifiers (R6);
* project-wide concurrency rules over the interprocedural lock-context
  dataflow of :mod:`repro.analysis.project` — lock order /
  self-deadlock (R7), blocking calls under write holds (R8),
  ``# guarded-by:`` attribute contexts (R9), CSR-snapshot escape
  across calls and lock releases (R10), and metric-registry access in
  serving critical sections (R11).

Run it as ``python -m repro.analysis src/`` or via ``tools/reprolint``;
see docs/DEVELOPMENT.md for rule rationale and suppression policy.
"""

from repro.analysis import (  # noqa: F401  (registers both rule packs)
    concurrency as _concurrency,
    rules as _rules,
)
from repro.analysis.engine import (
    PROJECT_RULES,
    RULES,
    Finding,
    LintConfig,
    LintModule,
    ProjectRule,
    Rule,
    exit_code,
    format_findings,
    known_rule_ids,
    register,
    register_project,
    run_paths,
    run_source,
)

__all__ = [
    "Finding",
    "LintConfig",
    "LintModule",
    "PROJECT_RULES",
    "ProjectRule",
    "RULES",
    "Rule",
    "exit_code",
    "format_findings",
    "known_rule_ids",
    "register",
    "register_project",
    "run_paths",
    "run_source",
]
