// The RTSJ conformance rule engine (§3.1–3.2), rule by rule.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>

#include "model/views.hpp"
#include "scenario/production_scenario.hpp"
#include "validate/validator.hpp"

namespace rtcf::validate {
namespace {

using namespace rtcf::model;

/// Minimal valid skeleton: one periodic active component in an RT domain
/// in immortal memory.
Architecture base_architecture() {
  Architecture arch;
  auto& a = arch.add_active("A", ActivationKind::Periodic,
                            rtsj::RelativeTime::milliseconds(5));
  a.set_content_class("AImpl");
  auto& domain = arch.add_thread_domain("D", DomainType::Realtime, 20);
  arch.add_child(domain, a);
  auto& imm = arch.add_memory_area("Imm", AreaType::Immortal, 1024);
  arch.add_child(imm, domain);
  return arch;
}

TEST(ValidatorTest, CleanArchitecturePasses) {
  const auto report = validate(base_architecture());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.warning_count(), 0u);
}

TEST(ValidatorTest, MotivationExamplePasses) {
  const auto report = validate(scenario::make_production_architecture());
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ValidatorTest, ActiveWithoutDomainIsAnError) {
  Architecture arch;
  auto& a = arch.add_active("Orphan", ActivationKind::Periodic,
                            rtsj::RelativeTime::milliseconds(1));
  a.set_content_class("X");
  const auto report = validate(arch);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has_rule("AC-DOMAIN-UNIQUE"));
}

TEST(ValidatorTest, ActiveInTwoDomainsIsAnError) {
  auto arch = base_architecture();
  auto& second = arch.add_thread_domain("D2", DomainType::Realtime, 22);
  arch.add_child(second, *arch.find("A"));
  const auto report = validate(arch);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has_rule("AC-DOMAIN-UNIQUE"));
}

TEST(ValidatorTest, PeriodicNeedsPositivePeriod) {
  Architecture arch;
  auto& a = arch.add_active("A", ActivationKind::Periodic,
                            rtsj::RelativeTime::zero());
  a.set_content_class("X");
  auto& domain = arch.add_thread_domain("D", DomainType::Realtime, 20);
  arch.add_child(domain, a);
  const auto report = validate(arch);
  EXPECT_TRUE(report.has_rule("AC-PERIOD-POSITIVE"));
}

TEST(ValidatorTest, SporadicWithoutTriggerWarns) {
  Architecture arch;
  auto& a = arch.add_active("S", ActivationKind::Sporadic);
  a.set_content_class("X");
  auto& domain = arch.add_thread_domain("D", DomainType::Realtime, 20);
  arch.add_child(domain, a);
  const auto report = validate(arch);
  EXPECT_TRUE(report.has_rule("AC-SPORADIC-TRIGGER"));
  // Warning, not error.
  EXPECT_EQ(report.by_rule("AC-SPORADIC-TRIGGER")[0].severity,
            Severity::Warning);
}

TEST(ValidatorTest, MissingContentClassWarns) {
  Architecture arch;
  auto& a = arch.add_active("A", ActivationKind::Periodic,
                            rtsj::RelativeTime::milliseconds(1));
  auto& domain = arch.add_thread_domain("D", DomainType::Realtime, 20);
  arch.add_child(domain, a);
  const auto report = validate(arch);
  EXPECT_TRUE(report.has_rule("AC-CONTENT-CLASS"));
}

TEST(ValidatorTest, ThreadDomainsMustNotNest) {
  auto arch = base_architecture();
  auto& inner = arch.add_thread_domain("DInner", DomainType::Realtime, 21);
  arch.add_child(*arch.find("D"), inner);
  const auto report = validate(arch);
  EXPECT_TRUE(report.has_rule("TD-NO-NESTING"));
}

TEST(ValidatorTest, ThreadDomainsContainOnlyActiveComponents) {
  auto arch = base_architecture();
  auto& passive = arch.add_passive("P");
  passive.set_content_class("PImpl");
  arch.add_child(*arch.find("D"), passive);
  const auto report = validate(arch);
  EXPECT_TRUE(report.has_rule("TD-ACTIVE-ONLY"));
}

TEST(ValidatorTest, DomainPriorityMustMatchBand) {
  {
    Architecture arch;
    arch.add_thread_domain("TooLow", DomainType::NoHeapRealtime, 5);
    EXPECT_TRUE(validate(arch).has_rule("TD-PRIORITY-RANGE"));
  }
  {
    Architecture arch;
    arch.add_thread_domain("TooHigh", DomainType::Regular, 20);
    EXPECT_TRUE(validate(arch).has_rule("TD-PRIORITY-RANGE"));
  }
  {
    Architecture arch;
    arch.add_thread_domain("FineRt", DomainType::Realtime, 38);
    arch.add_thread_domain("FineReg", DomainType::Regular, 10);
    EXPECT_FALSE(validate(arch).has_rule("TD-PRIORITY-RANGE"));
  }
}

TEST(ValidatorTest, NhrtDomainMustNotEncapsulateHeap) {
  Architecture arch;
  auto& nhrt = arch.add_thread_domain("N", DomainType::NoHeapRealtime, 30);
  auto& heap = arch.add_memory_area("H", AreaType::Heap, 0);
  arch.add_child(nhrt, heap);
  const auto report = validate(arch);
  EXPECT_TRUE(report.has_rule("TD-NHRT-NO-HEAP"));
}

TEST(ValidatorTest, NhrtComponentMustNotLiveOnHeap) {
  Architecture arch;
  auto& a = arch.add_active("A", ActivationKind::Periodic,
                            rtsj::RelativeTime::milliseconds(1));
  a.set_content_class("X");
  auto& nhrt = arch.add_thread_domain("N", DomainType::NoHeapRealtime, 30);
  arch.add_child(nhrt, a);
  auto& heap = arch.add_memory_area("H", AreaType::Heap, 0);
  arch.add_child(heap, a);  // sharing: A is in the domain AND the heap area
  const auto report = validate(arch);
  EXPECT_TRUE(report.has_rule("TD-NHRT-NO-HEAP"));
}

TEST(ValidatorTest, NonFunctionalComponentsDeclareNoInterfaces) {
  Architecture arch;
  auto& domain = arch.add_thread_domain("D", DomainType::Realtime, 20);
  domain.add_interface({"x", InterfaceRole::Server, "I"});
  const auto report = validate(arch);
  EXPECT_TRUE(report.has_rule("NF-NO-INTERFACES"));
}

TEST(ValidatorTest, ScopedAreaNeedsSize) {
  Architecture arch;
  arch.add_memory_area("S", AreaType::Scoped, 0);
  EXPECT_TRUE(validate(arch).has_rule("MA-SCOPED-SIZE"));
}

TEST(ValidatorTest, ScopedAreaSingleParentAtDesignTime) {
  Architecture arch;
  auto& s = arch.add_memory_area("S", AreaType::Scoped, 1024);
  auto& p1 = arch.add_memory_area("P1", AreaType::Scoped, 4096);
  auto& p2 = arch.add_memory_area("P2", AreaType::Scoped, 4096);
  arch.add_child(p1, s);
  arch.add_child(p2, s);
  const auto report = validate(arch);
  EXPECT_TRUE(report.has_rule("MA-SCOPED-SINGLE-PARENT"));
}

TEST(ValidatorTest, UndeployedFunctionalComponentWarns) {
  Architecture arch;
  auto& p = arch.add_passive("Floating");
  p.set_content_class("X");
  const auto report = validate(arch);
  EXPECT_TRUE(report.has_rule("MA-DEPLOYED"));
}

TEST(ValidatorTest, BindingEndpointResolution) {
  auto arch = base_architecture();
  arch.add_binding({{"A", "nope"}, {"Ghost", "x"}, {}});
  const auto report = validate(arch);
  const auto diags = report.by_rule("BIND-ENDPOINTS");
  // Unknown server component + unknown client interface.
  EXPECT_GE(diags.size(), 2u);
}

TEST(ValidatorTest, BindingRoleAndSignatureChecks) {
  Architecture arch;
  auto& a = arch.add_active("A", ActivationKind::Periodic,
                            rtsj::RelativeTime::milliseconds(1));
  a.set_content_class("AI");
  a.add_interface({"out", InterfaceRole::Client, "IFoo"});
  auto& b = arch.add_passive("B");
  b.set_content_class("BI");
  b.add_interface({"in", InterfaceRole::Server, "IBar"});
  auto& domain = arch.add_thread_domain("D", DomainType::Realtime, 20);
  arch.add_child(domain, a);
  auto& imm = arch.add_memory_area("Imm", AreaType::Immortal, 1024);
  arch.add_child(imm, domain);
  arch.add_child(imm, b);

  // Signature mismatch IFoo vs IBar.
  arch.add_binding({{"A", "out"}, {"B", "in"}, {}});
  EXPECT_TRUE(validate(arch).has_rule("BIND-ENDPOINTS"));

  // Role mismatch: using a server interface as client end.
  arch.mutable_bindings().clear();
  arch.add_binding({{"B", "in"}, {"A", "out"}, {}});
  EXPECT_TRUE(validate(arch).has_rule("BIND-ENDPOINTS"));
}

TEST(ValidatorTest, AsyncBindingNeedsBufferSize) {
  auto arch = scenario::make_production_architecture();
  arch.mutable_bindings()[0].desc.buffer_size = 0;
  EXPECT_TRUE(validate(arch).has_rule("BIND-ASYNC-BUFFER"));
}

TEST(ValidatorTest, SyncNhrtToHeapIsRejected) {
  auto arch = scenario::make_production_architecture();
  // Rewire the monitoring system's synchronous console binding at the
  // heap-allocated audit log: NHRT -> heap synchronous = RTSJ violation.
  auto* audit = arch.find("AuditLog");
  audit->add_interface({"iConsole", InterfaceRole::Server, "IConsole"});
  arch.mutable_bindings()[1].server = {"AuditLog", "iConsole"};
  const auto report = validate(arch);
  EXPECT_TRUE(report.has_rule("BIND-NHRT-HEAP-SYNC"));
}

TEST(ValidatorTest, UnknownPatternIsRejected) {
  auto arch = scenario::make_production_architecture();
  arch.mutable_bindings()[1].desc.pattern = "teleport";
  EXPECT_TRUE(validate(arch).has_rule("BIND-PATTERN-KNOWN"));
}

TEST(ValidatorTest, InapplicablePatternIsRejected) {
  auto arch = scenario::make_production_architecture();
  // scope-enter on a same-area asynchronous binding: not applicable.
  arch.mutable_bindings()[0].desc.pattern = "scope-enter";
  EXPECT_TRUE(validate(arch).has_rule("BIND-PATTERN-KNOWN"));
}

TEST(ValidatorTest, CrossAreaBindingGetsPatternSuggestion) {
  const auto arch = scenario::make_production_architecture();
  const auto report = validate(arch);
  const auto suggestions = report.by_rule("BIND-PATTERN-SUGGEST");
  ASSERT_EQ(suggestions.size(), 2u);  // console (sync) + audit (async)
  EXPECT_NE(suggestions[0].message.find("scope-enter"), std::string::npos);
  EXPECT_NE(suggestions[1].message.find("immortal-forward"),
            std::string::npos);
}

TEST(ValidatorTest, ContractedComponentIsCompleteAndClean) {
  auto arch = base_architecture();
  auto* a = arch.find_as<ActiveComponent>("A");
  a->set_criticality(Criticality::Low);
  TimingContract contract;
  contract.wcet_budget = rtsj::RelativeTime::milliseconds(1);
  contract.miss_ratio_bound = 0.1;
  contract.window = 8;
  a->set_timing_contract(contract);
  const auto report = validate(arch);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_FALSE(report.has_rule("AC-CONTRACT-COMPLETE"));
}

TEST(ValidatorTest, ContractWithoutCriticalityIsAnError) {
  auto arch = base_architecture();
  auto* a = arch.find_as<ActiveComponent>("A");
  TimingContract contract;
  contract.wcet_budget = rtsj::RelativeTime::milliseconds(1);
  a->set_timing_contract(contract);
  const auto report = validate(arch);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(report.has_rule("AC-CONTRACT-COMPLETE"));
  EXPECT_EQ(report.by_rule("AC-CONTRACT-COMPLETE")[0].severity,
            Severity::Error);
  EXPECT_EQ(report.by_rule("AC-CONTRACT-COMPLETE")[0].subject, "A");
}

TEST(ValidatorTest, ContractWithoutDeadlineIsAnError) {
  // A sporadic component with no minimum interarrival time has no implicit
  // deadline, so a miss-ratio contract on it is unverifiable.
  Architecture arch;
  auto& s = arch.add_active("S", ActivationKind::Sporadic);
  s.set_content_class("X");
  s.set_criticality(Criticality::Low);
  TimingContract contract;
  contract.miss_ratio_bound = 0.2;
  s.set_timing_contract(contract);
  auto& domain = arch.add_thread_domain("D", DomainType::Realtime, 20);
  arch.add_child(domain, s);
  const auto report = validate(arch);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has_rule("AC-CONTRACT-COMPLETE"));
}

TEST(ValidatorTest, ContractBoundsMustBeSane) {
  auto arch = base_architecture();
  auto* a = arch.find_as<ActiveComponent>("A");
  a->set_criticality(Criticality::High);
  TimingContract contract;
  contract.miss_ratio_bound = 1.5;   // outside [0, 1]
  contract.max_arrival_rate_hz = -3; // negative
  contract.window = 0;               // empty window
  a->set_timing_contract(contract);
  const auto report = validate(arch);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.by_rule("AC-CONTRACT-BOUNDS").size(), 3u);

  // NaN bounds must be rejected too (every comparison against NaN is
  // false, so naive range checks would let them through).
  contract.miss_ratio_bound = std::numeric_limits<double>::quiet_NaN();
  contract.max_arrival_rate_hz = std::numeric_limits<double>::quiet_NaN();
  contract.window = 8;
  a->set_timing_contract(contract);
  const auto nan_report = validate(arch);
  EXPECT_EQ(nan_report.by_rule("AC-CONTRACT-BOUNDS").size(), 2u);
}

TEST(ValidatorTest, ExecutingDomainsPropagateThroughSyncBindings) {
  const auto arch = scenario::make_production_architecture();
  // Console is passive: it executes on its synchronous caller's domain
  // (the NHRT2 monitoring domain).
  const ExecutionDomains exec(arch);
  const auto& domains = exec.of(*arch.find("Console"));
  ASSERT_EQ(domains.size(), 1u);
  EXPECT_EQ(domains[0]->name(), "NHRT2");
  // AuditLog is active: exactly its own domain.
  const auto& audit = exec.of(*arch.find("AuditLog"));
  ASSERT_EQ(audit.size(), 1u);
  EXPECT_EQ(audit[0]->name(), "reg1");
}

/// The per-query fixpoint ExecutionDomains replaced, kept verbatim as the
/// reference: the whole fixpoint, rebuilt to answer for one component.
std::vector<const ThreadDomain*> per_query_domains(const Architecture& arch,
                                                   const Component& component) {
  std::map<const Component*, std::set<const ThreadDomain*>> domains;
  for (const auto& owned : arch.components()) {
    if (owned->kind() == ComponentKind::Active) {
      for (auto* d : arch.thread_domains_of(*owned)) {
        domains[owned.get()].insert(d);
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Binding& b : arch.bindings()) {
      if (b.desc.protocol != Protocol::Synchronous) continue;
      const Component* client = arch.find(b.client.component);
      const Component* server = arch.find(b.server.component);
      if (client == nullptr || server == nullptr) continue;
      if (server->kind() != ComponentKind::Passive) continue;
      for (const auto* d : domains[client]) {
        if (domains[server].insert(d).second) changed = true;
      }
    }
  }
  const auto& set = domains[&component];
  return {set.begin(), set.end()};
}

void expect_matches_per_query(const Architecture& arch) {
  const ExecutionDomains exec(arch);
  for (const auto& owned : arch.components()) {
    EXPECT_EQ(exec.of(*owned), per_query_domains(arch, *owned))
        << owned->name();
    bool nhrt = false;
    for (const auto* d : per_query_domains(arch, *owned)) {
      nhrt = nhrt || d->type() == DomainType::NoHeapRealtime;
    }
    EXPECT_EQ(exec.on_nhrt(*owned), nhrt) << owned->name();
  }
}

TEST(ValidatorTest, ExecutionDomainsMatchPerQueryFixpointOnProduction) {
  expect_matches_per_query(scenario::make_production_architecture());
}

TEST(ValidatorTest, ExecutionDomainsMatchPerQueryFixpointOnSharedServer) {
  // A passive server called synchronously by an NHRT client and by a
  // regular client, behind a passive relay (two fixpoint rounds): it
  // executes on both domains, and so does nothing else.
  Architecture arch;
  auto& nhrt_client = arch.add_active("Fast", ActivationKind::Periodic,
                                      rtsj::RelativeTime::milliseconds(5));
  auto& regular_client = arch.add_active(
      "Slow", ActivationKind::Periodic, rtsj::RelativeTime::milliseconds(50));
  auto& relay = arch.add_passive("Relay");
  auto& server = arch.add_passive("Store");
  auto& idle = arch.add_passive("Idle");
  for (Component* c : {static_cast<Component*>(&nhrt_client),
                       static_cast<Component*>(&regular_client),
                       static_cast<Component*>(&relay)}) {
    c->add_interface({"out", InterfaceRole::Client, "IStore"});
  }
  relay.add_interface({"in", InterfaceRole::Server, "IStore"});
  server.add_interface({"in", InterfaceRole::Server, "IStore"});
  idle.add_interface({"in", InterfaceRole::Server, "IStore"});
  auto& nhrt = arch.add_thread_domain("NHRT", DomainType::NoHeapRealtime, 30);
  auto& regular = arch.add_thread_domain("Reg", DomainType::Regular, 5);
  arch.add_child(nhrt, nhrt_client);
  arch.add_child(regular, regular_client);
  auto& imm = arch.add_memory_area("Imm", AreaType::Immortal, 4096);
  for (Component* c : {static_cast<Component*>(&nhrt),
                       static_cast<Component*>(&regular),
                       static_cast<Component*>(&relay),
                       static_cast<Component*>(&server),
                       static_cast<Component*>(&idle)}) {
    arch.add_child(imm, *c);
  }
  const auto bind = [&](const std::string& client, const std::string& srv) {
    Binding b;
    b.client = {client, "out"};
    b.server = {srv, "in"};
    arch.add_binding(b);
  };
  bind("Relay", "Store");  // declared before its caller's binding
  bind("Fast", "Relay");
  bind("Slow", "Store");

  expect_matches_per_query(arch);
  const ExecutionDomains exec(arch);
  EXPECT_EQ(exec.of(server).size(), 2u);
  EXPECT_TRUE(exec.on_nhrt(server));
  EXPECT_TRUE(exec.on_nhrt(relay));
  EXPECT_FALSE(exec.on_nhrt(regular_client));
  EXPECT_TRUE(exec.of(idle).empty());
}

}  // namespace
}  // namespace rtcf::validate
