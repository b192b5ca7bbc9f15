// RTSJ conformance validation of component architectures (§3.1–3.2).
//
// "The compliance with RTSJ is enforced during the design process. This
// provides an immediate feedback and the designer can appropriately modify
// an architecture whenever it violates RTSJ."
//
// Rule identifiers (stable, used by tests and tools):
//   AC-DOMAIN-UNIQUE       active component in exactly one ThreadDomain
//   AC-PERIOD-POSITIVE     periodic activation needs a positive period
//   AC-SPORADIC-TRIGGER    sporadic component should have an incoming
//                          asynchronous binding (its release trigger)
//   AC-CONTENT-CLASS       functional component should name a content class
//   TD-NO-NESTING          ThreadDomains must not nest
//   TD-ACTIVE-ONLY         ThreadDomains contain only active components
//   TD-PRIORITY-RANGE      domain priority must match its thread type band
//   TD-NHRT-NO-HEAP        an NHRT domain must not encapsulate heap memory
//                          nor execute components allocated on the heap
//   NF-NO-INTERFACES       non-functional composites declare no functional
//                          interfaces
//   MA-SCOPED-SINGLE-PARENT design-time single parent rule for scoped areas
//   MA-SCOPED-SIZE         scoped/immortal areas declare a positive size
//   MA-DEPLOYED            functional components should have a memory
//                          assignment (default heap otherwise)
//   BIND-ENDPOINTS         binding endpoints resolve with matching
//                          roles/signatures
//   BIND-ASYNC-BUFFER      asynchronous bindings declare a buffer size
//   BIND-NHRT-HEAP-SYNC    no synchronous call from an NHRT into heap state
//   BIND-PATTERN-KNOWN     explicit pattern must exist and be applicable
//   BIND-PATTERN-SUGGEST   cross-area binding without a pattern: the
//                          framework proposes one (info)
//   MODE-COMPONENT-KNOWN   mode entries and rebind endpoints reference
//                          declared components of the right kind
//   MODE-REBIND-LEGAL      a mode rebind is as legal as a declared
//                          binding: matching server signature, RTSJ-legal
//                          communication pattern
//   MODE-DEGRADED-UNIQUE   at most one mode carries the degraded flag
//   MODE-SWAPPABLE         mode transitions only touch components declared
//                          swappable (presence, rate, contract, rebinds)
//   MODE-SCHEDULABLE       every mode's enabled task set passes
//                          response-time analysis independently
#pragma once

#include <unordered_map>
#include <vector>

#include "model/metamodel.hpp"
#include "validate/report.hpp"

namespace rtcf::validate {

/// Runs every rule against `arch` and returns the full report.
Report validate(const model::Architecture& arch);

/// Which ThreadDomains' threads can execute each component of one
/// architecture: an active component executes in its own domain; a passive
/// component executes in the domains of every client that calls it
/// synchronously (a fixpoint across bindings). The fixpoint runs once, in
/// the constructor, over every component and binding; the planner, the
/// validator and the code emitter build one per architecture and query it
/// per binding. The value borrows `arch` and is only valid while `arch` is
/// alive and unmodified.
class ExecutionDomains {
 public:
  explicit ExecutionDomains(const model::Architecture& arch);

  /// The domains that can execute `component`, in pointer order (empty
  /// for a component no thread reaches, or one not in the architecture).
  const std::vector<const model::ThreadDomain*>& of(
      const model::Component& component) const;
  /// True when any NoHeapRealtime domain executes `component`.
  bool on_nhrt(const model::Component& component) const;

 private:
  std::unordered_map<const model::Component*,
                     std::vector<const model::ThreadDomain*>>
      domains_;
};

}  // namespace rtcf::validate
