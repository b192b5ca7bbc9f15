#include "validate/pattern_catalog.hpp"

#include "validate/validator.hpp"

namespace rtcf::validate {

using model::Protocol;

const std::vector<std::string>& known_patterns() {
  static const std::vector<std::string> patterns = {
      kPatternDirect,        kPatternScopeEnter, kPatternDeepCopy,
      kPatternImmortalForward, kPatternSharedScope, kPatternHandoff,
      kPatternWedgeThread,
  };
  return patterns;
}

bool is_known_pattern(const std::string& name) {
  for (const auto& p : known_patterns()) {
    if (p == name) return true;
  }
  return false;
}

bool pattern_applicable(const std::string& pattern, AreaRelation relation,
                        Protocol protocol) {
  if (pattern == kPatternDirect) {
    // Only legal when no lifetime boundary is crossed toward a
    // shorter-lived target.
    return relation == AreaRelation::Same ||
           relation == AreaRelation::ServerOuter;
  }
  if (pattern == kPatternScopeEnter) {
    // The client enters the server's scope for the duration of the call.
    return relation == AreaRelation::ServerInner &&
           protocol == Protocol::Synchronous;
  }
  if (pattern == kPatternWedgeThread) {
    // A wedge keeps the server scope alive between asynchronous releases.
    return relation == AreaRelation::ServerInner &&
           protocol == Protocol::Asynchronous;
  }
  if (pattern == kPatternDeepCopy) {
    // Copying the payload into the target area works for any relation.
    return true;
  }
  if (pattern == kPatternImmortalForward) {
    // Payload staged in immortal memory; universal but never reclaimed, so
    // only sensible for fixed-size recycled buffers.
    return true;
  }
  if (pattern == kPatternSharedScope) {
    // Both parties communicate through a common ancestor scope.
    return relation == AreaRelation::Disjoint ||
           relation == AreaRelation::Same;
  }
  if (pattern == kPatternHandoff) {
    // Producer-owned object handed to the consumer through a pinned
    // exchange slot; classic for disjoint producer/consumer scopes.
    return relation == AreaRelation::Disjoint;
  }
  return false;
}

std::string resolve_binding_pattern(const model::Architecture& arch,
                                    const ExecutionDomains& exec,
                                    const model::Binding& binding) {
  if (!binding.desc.pattern.empty()) return binding.desc.pattern;
  const auto* client = arch.find(binding.client.component);
  const auto* server = arch.find(binding.server.component);
  if (client == nullptr || server == nullptr) return {};
  const auto* client_area = arch.memory_area_of(*client);
  const auto* server_area = arch.memory_area_of(*server);

  PatternQuery query;
  query.relation = relate_areas(arch, client_area, server_area);
  query.protocol = binding.desc.protocol;
  query.client_no_heap = exec.on_nhrt(*client);
  query.server_in_heap = server_area == nullptr ||
                         server_area->type() == model::AreaType::Heap;
  if (client_area != nullptr && server_area != nullptr &&
      query.relation == AreaRelation::Disjoint) {
    const auto* a = design_parent_scope(arch, *client_area);
    const auto* b = design_parent_scope(arch, *server_area);
    query.common_scope_ancestor = (a != nullptr && a == b);
  }
  return suggest_pattern(query);
}

std::string suggest_pattern(const PatternQuery& q) {
  switch (q.relation) {
    case AreaRelation::Same:
      return kPatternDirect;
    case AreaRelation::ServerOuter:
      if (q.server_in_heap && q.client_no_heap) {
        // An NHRT may never touch heap state synchronously; asynchronous
        // traffic can be staged in immortal memory and drained by a
        // heap-side thread.
        return q.protocol == Protocol::Asynchronous ? kPatternImmortalForward
                                                    : std::string{};
      }
      return kPatternDirect;
    case AreaRelation::ServerInner:
      return q.protocol == Protocol::Synchronous ? kPatternScopeEnter
                                                 : kPatternWedgeThread;
    case AreaRelation::Disjoint:
      if (q.protocol == Protocol::Asynchronous) return kPatternImmortalForward;
      return q.common_scope_ancestor ? kPatternSharedScope : kPatternDeepCopy;
  }
  return {};
}

}  // namespace rtcf::validate
