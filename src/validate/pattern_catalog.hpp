// Catalog of RTSJ cross-scope communication patterns (paper refs [1,5,17]:
// Corsaro & Santoro 2005; Benowitz & Niessner 2003; Pizlo et al. 2004).
//
// At design time the validator checks that an explicitly chosen pattern is
// applicable to a binding's area relation, and suggests one when the
// designer left the choice open — "compositions violating RTSJ are
// identified and possible solutions proposed" (§3.2). The runtime
// implementations live in membrane/patterns.hpp; the planner maps these
// names onto memory interceptors.
#pragma once

#include <string>
#include <vector>

#include "model/metamodel.hpp"
#include "validate/area_relation.hpp"

namespace rtcf::validate {

/// Stable pattern names.
inline constexpr const char* kPatternDirect = "direct";
inline constexpr const char* kPatternScopeEnter = "scope-enter";
inline constexpr const char* kPatternDeepCopy = "deep-copy";
inline constexpr const char* kPatternImmortalForward = "immortal-forward";
inline constexpr const char* kPatternSharedScope = "shared-scope";
inline constexpr const char* kPatternHandoff = "handoff";
inline constexpr const char* kPatternWedgeThread = "wedge-thread";

/// All pattern names the framework understands.
const std::vector<std::string>& known_patterns();

bool is_known_pattern(const std::string& name);

/// True when `pattern` can implement a binding with the given area
/// relation and protocol.
bool pattern_applicable(const std::string& pattern, AreaRelation relation,
                        model::Protocol protocol);

/// Context needed to pick a safe default pattern.
struct PatternQuery {
  AreaRelation relation = AreaRelation::Same;
  model::Protocol protocol = model::Protocol::Synchronous;
  bool client_no_heap = false;  ///< Client executes on an NHRT.
  bool server_in_heap = false;  ///< Server state lives on the heap.
  bool common_scope_ancestor = false;  ///< Disjoint scopes sharing an outer
                                       ///< scope (enables shared-scope).
};

/// The framework's default choice for `query`; empty when no pattern can
/// make the binding RTSJ-legal (e.g. a synchronous call from an NHRT into
/// heap state), in which case the validator reports an error.
std::string suggest_pattern(const PatternQuery& query);

class ExecutionDomains;

/// Resolves the effective pattern of a binding in `arch`: the explicitly
/// declared pattern when present, otherwise the framework suggestion.
/// Returns the empty string when no legal pattern exists. Shared by the
/// validator, the planner, and the code emitter so all three agree.
/// `exec` is the architecture's execution domains (validator.hpp), built
/// once by the caller and shared across every binding it resolves.
std::string resolve_binding_pattern(const model::Architecture& arch,
                                    const ExecutionDomains& exec,
                                    const model::Binding& binding);

}  // namespace rtcf::validate
