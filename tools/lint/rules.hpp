#pragma once
// Pass 3 of scrubber-lint: the rule set. Per-file lexical rules (the v1
// rules plus the direct scrubber-deterministic region rule), the
// whole-program layering check over the include graph, and the central
// NOLINT application that also reports stale suppressions.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/callgraph.hpp"
#include "lint/index.hpp"

namespace scrubber::lint {

/// Every rule id the analyzer can emit, in --list-rules order.
const std::vector<std::string>& all_rule_ids();

/// The declared module DAG: module -> set of modules it may include
/// (itself always allowed). Modules absent from the map (tools, bench,
/// top-level src files) are unrestricted.
const std::map<std::string, std::set<std::string>>& module_dag();

/// Runs every per-file lexical rule over one lexed file.
void run_file_rules(const LexedFile& file, Sink& sink);

/// scrubber-layering: quoted includes must follow the declared module DAG.
void rule_layering(const ProjectIndex& index, Sink& sink);

/// scrubber-unreferenced: a function or class defined under src/ whose
/// name appears only at its own declarations, its definitions or inside
/// its own bodies. Any other appearance of the identifier counts as a use
/// (call, `&f`, template argument, macro body) anywhere outside tests/,
/// including in `reference_only` files, which are lexed for identifiers
/// and never linted (examples/ and bench_e2e/). Names are matched without
/// scopes, so an override is used whenever its base is.
void rule_unreferenced(const ProjectIndex& index,
                       const std::vector<LexedFile>& reference_only,
                       Sink& sink);

/// Applies NOLINT suppressions to `raw` and appends survivors to `kept`,
/// together with malformed-NOLINT diagnostics and scrubber-stale-nolint
/// findings for suppression sites that silenced nothing (neither a
/// generated diagnostic nor a call-graph edge in `edge_used`).
void apply_suppressions(const ProjectIndex& index, Sink raw,
                        const UsedSuppressions& edge_used, Sink& kept);

}  // namespace scrubber::lint
