// Multi-tenant assemblies end to end: the TENANT-* rule family over
// snapshot plans (membership, capability routing, area/domain scoping,
// budget envelopes, export/import declarations, mode-rebind legality),
// RTA-gated admission control (accept with a staged reload, reject with
// machine-readable reasons carrying the owning tenant and its ADL source
// line, compose-conflict rejection, purity of rejection), the per-tenant
// overload governor (demotion scoped to the violating tenant, criticality
// floors, reset), RuntimeMonitor tenant adoption, and the deterministic
// two-tenant sim replay (overload in one tenant sheds nothing in the
// other — bit-for-bit reproducible).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "adl/loader.hpp"
#include "dist/plan_codec.hpp"
#include "model/assembly_plan.hpp"
#include "model/metamodel.hpp"
#include "monitor/contract.hpp"
#include "monitor/governor.hpp"
#include "monitor/runtime_monitor.hpp"
#include "runtime/content_registry.hpp"
#include "sim/scheduler.hpp"
#include "soleil/plan.hpp"
#include "tenant/admission.hpp"
#include "tenant/compose.hpp"
#include "validate/tenancy.hpp"
#include "validate/validator.hpp"

namespace rtcf {
namespace {

using model::ActivationKind;
using model::Architecture;
using model::AreaType;
using model::AssemblyPlan;
using model::Criticality;
using model::DomainType;
using model::InterfaceRole;
using model::Protocol;
using model::TenantDecl;
using monitor::GovernorLevel;
using monitor::OverloadGovernor;
using tenant::AdmissionController;
using tenant::AdmissionDecision;
using tenant::AdmissionReason;
using validate::Severity;

// ---- fixtures -------------------------------------------------------------

class TenantTaskImpl final : public comm::Content {
 public:
  void on_release() override {}
};
RTCF_REGISTER_CONTENT(TenantTaskImpl)

/// One self-contained tenant slice: a periodic component in its own RT
/// domain inside its own area. `prefix` namespaces every element. The
/// admission fixtures use heap areas (a new scoped area cannot be
/// instantiated by a live reload — DELTA-AREA-UNKNOWN).
model::ActiveComponent& add_slice(Architecture& arch,
                                  const std::string& prefix, int priority,
                                  rtsj::RelativeTime period,
                                  rtsj::RelativeTime cost,
                                  std::size_t area_bytes = 4096,
                                  AreaType area_type = AreaType::Scoped) {
  auto& comp = arch.add_active(prefix + ".Task", ActivationKind::Periodic,
                               period);
  comp.set_cost(cost);
  comp.set_criticality(Criticality::Low);
  comp.set_content_class("TenantTaskImpl");
  comp.set_swappable(true);
  auto& domain =
      arch.add_thread_domain(prefix + ".RT", DomainType::Realtime, priority);
  auto& area =
      arch.add_memory_area(prefix + ".Area", area_type, area_bytes);
  arch.add_child(area, domain);
  arch.add_child(domain, comp);
  return comp;
}

/// Declares a tenant over `members` with a generous budget.
TenantDecl& add_tenant(Architecture& arch, const std::string& name,
                       std::vector<std::string> members,
                       double cpu = 0.9, std::size_t memory = 1 << 20) {
  TenantDecl decl;
  decl.name = name;
  decl.budget.cpu_utilization = cpu;
  decl.budget.memory_bytes = memory;
  decl.members = std::move(members);
  return arch.add_tenant(std::move(decl));
}

/// Two tenants, alpha's component calling into beta's through an
/// asynchronous binding. `declare_route` adds the export/import pair the
/// TENANT-CAPABILITY-ROUTED rule demands.
Architecture make_two_tenants(bool declare_route) {
  Architecture arch;
  auto& caller = add_slice(arch, "alpha", 20, rtsj::RelativeTime::
                           milliseconds(10), rtsj::RelativeTime::
                           microseconds(500));
  caller.add_interface({"out", InterfaceRole::Client, "IFeed"});

  auto& serving = arch.add_active("beta.Sink", ActivationKind::Sporadic,
                                  rtsj::RelativeTime::zero());
  serving.set_criticality(Criticality::Low);
  serving.add_interface({"in", InterfaceRole::Server, "IFeed"});
  auto& bdomain = arch.add_thread_domain("beta.RT", DomainType::Realtime, 15);
  auto& barea = arch.add_memory_area("beta.Area", AreaType::Scoped, 8192);
  arch.add_child(barea, bdomain);
  arch.add_child(bdomain, serving);

  model::Binding binding;
  binding.client = {"alpha.Task", "out"};
  binding.server = {"beta.Sink", "in"};
  binding.desc.protocol = Protocol::Asynchronous;
  binding.desc.buffer_size = 8;
  arch.add_binding(binding);

  add_tenant(arch, "alpha", {"alpha.Task"});
  add_tenant(arch, "beta", {"beta.Sink"});
  if (declare_route) {
    // Re-fetch after both declarations: add_tenant invalidates earlier
    // references when the tenant vector grows.
    const_cast<TenantDecl&>(*arch.find_tenant("beta"))
        .exports.push_back({"feed", "beta.Sink", "in"});
    const_cast<TenantDecl&>(*arch.find_tenant("alpha"))
        .imports.push_back({"feed", "beta"});
  }
  return arch;
}

validate::Report tenancy_of(const Architecture& arch) {
  return validate::validate_tenancy(
      soleil::snapshot_assembly(arch, /*partitions=*/1));
}

// ---- TENANT-* rules -------------------------------------------------------

TEST(TenancyRulesTest, CleanTwoTenantAssemblyPasses) {
  const Architecture arch = make_two_tenants(/*declare_route=*/true);
  const AssemblyPlan plan = soleil::snapshot_assembly(arch, 1);
  const auto report = validate::validate_tenancy(plan);
  EXPECT_TRUE(report.ok()) << report.to_string();

  // Snapshot membership is fully expanded: the enclosing area and domain
  // of each member ride along as owned resources.
  const auto* alpha = plan.find_tenant("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_TRUE(alpha->owns_component("alpha.Task"));
  EXPECT_TRUE(alpha->owns_area("alpha.Area"));
  EXPECT_EQ(plan.tenant_of("beta.Sink"), plan.find_tenant("beta"));
  EXPECT_EQ(plan.tenant_of("nobody"), nullptr);
}

TEST(TenancyRulesTest, FlagsUnknownAndNonExclusiveMembers) {
  Architecture arch = make_two_tenants(true);
  add_tenant(arch, "gamma", {"ghost.Task", "alpha.Task"});
  const auto report = tenancy_of(arch);
  EXPECT_TRUE(report.has_rule("TENANT-MEMBER-UNKNOWN"));
  EXPECT_TRUE(report.has_rule("TENANT-MEMBER-EXCLUSIVE"));
  EXPECT_FALSE(report.ok());
}

TEST(TenancyRulesTest, CrossTenantBindingNeedsExportAndImport) {
  // No route declared at all: the serving tenant exports nothing.
  const auto report = tenancy_of(make_two_tenants(false));
  const auto hits = report.by_rule("TENANT-CAPABILITY-ROUTED");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].subject, "alpha");
  EXPECT_NE(hits[0].message.find("exports no capability"),
            std::string::npos);
}

TEST(TenancyRulesTest, ExportWithoutImportStillRejected) {
  Architecture arch;
  auto& caller = add_slice(arch, "alpha", 20,
                           rtsj::RelativeTime::milliseconds(10),
                           rtsj::RelativeTime::microseconds(500));
  caller.add_interface({"out", InterfaceRole::Client, "IFeed"});
  auto& serving = arch.add_active("beta.Sink", ActivationKind::Sporadic,
                                  rtsj::RelativeTime::zero());
  serving.add_interface({"in", InterfaceRole::Server, "IFeed"});
  auto& bdomain = arch.add_thread_domain("beta.RT", DomainType::Realtime, 15);
  arch.add_child(bdomain, serving);
  model::Binding binding;
  binding.client = {"alpha.Task", "out"};
  binding.server = {"beta.Sink", "in"};
  binding.desc.protocol = Protocol::Asynchronous;
  binding.desc.buffer_size = 8;
  arch.add_binding(binding);
  add_tenant(arch, "alpha", {"alpha.Task"});
  auto& beta = add_tenant(arch, "beta", {"beta.Sink"});
  beta.exports.push_back({"feed", "beta.Sink", "in"});

  const auto report = tenancy_of(arch);
  const auto hits = report.by_rule("TENANT-CAPABILITY-ROUTED");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("does not import capability 'feed'"),
            std::string::npos);
}

TEST(TenancyRulesTest, TenantlessEndpointsAreExemptFromRouting) {
  // The operator slice binds into a tenant freely: only tenant-to-tenant
  // edges are capability-routed.
  Architecture arch = make_two_tenants(false);
  auto& op = arch.add_active("op.Probe", ActivationKind::Periodic,
                             rtsj::RelativeTime::milliseconds(50));
  op.set_cost(rtsj::RelativeTime::microseconds(10));
  op.add_interface({"tap", InterfaceRole::Client, "IFeed"});
  auto& domain = arch.add_thread_domain("op.RT", DomainType::Realtime, 5);
  arch.add_child(domain, op);
  model::Binding binding;
  binding.client = {"op.Probe", "tap"};
  binding.server = {"beta.Sink", "in"};
  binding.desc.protocol = Protocol::Asynchronous;
  binding.desc.buffer_size = 4;
  arch.add_binding(binding);

  const auto report = tenancy_of(arch);
  // Exactly one routing error (alpha -> beta), none for the operator edge.
  EXPECT_EQ(report.by_rule("TENANT-CAPABILITY-ROUTED").size(), 1u);
}

TEST(TenancyRulesTest, ModeRebindAcrossTenantsNeedsTheSameRoute) {
  Architecture arch = make_two_tenants(true);
  // A second server in beta the mode redirects alpha's port onto; the
  // redirect is a new cross-tenant route and needs its own capability.
  auto& spare = arch.add_active("beta.Spare", ActivationKind::Sporadic,
                                rtsj::RelativeTime::zero());
  spare.add_interface({"in", InterfaceRole::Server, "IFeed"});
  arch.add_child(*arch.find("beta.RT"), spare);
  TenantDecl& beta =
      const_cast<TenantDecl&>(*arch.find_tenant("beta"));
  beta.members.push_back("beta.Spare");

  model::ModeDecl mode;
  mode.name = "Failover";
  mode.components.push_back({"alpha.Task", {}, {}});
  mode.components.push_back({"beta.Sink", {}, {}});
  mode.components.push_back({"beta.Spare", {}, {}});
  mode.rebinds.push_back({"alpha.Task", "out", "beta.Spare"});
  arch.add_mode(std::move(mode));

  const auto report = tenancy_of(arch);
  const auto hits = report.by_rule("TENANT-CAPABILITY-ROUTED");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("mode rebind"), std::string::npos);

  // Declaring the redirect's capability route makes the mode legal. The
  // existing 'feed' import on alpha covers any capability from beta only
  // if the name matches, so the spare needs its own export and import.
  TenantDecl& beta2 =
      const_cast<TenantDecl&>(*arch.find_tenant("beta"));
  beta2.exports.push_back({"spare-feed", "beta.Spare", "in"});
  TenantDecl& alpha =
      const_cast<TenantDecl&>(*arch.find_tenant("alpha"));
  alpha.imports.push_back({"spare-feed", "beta"});
  EXPECT_TRUE(tenancy_of(arch).ok());
}

TEST(TenancyRulesTest, SharedAreasAndDomainsBreakIsolation) {
  // Two tenants' components in one thread domain and one memory area.
  Architecture arch;
  auto& a = arch.add_active("alpha.Task", ActivationKind::Periodic,
                            rtsj::RelativeTime::milliseconds(10));
  a.set_cost(rtsj::RelativeTime::microseconds(100));
  auto& b = arch.add_active("beta.Task", ActivationKind::Periodic,
                            rtsj::RelativeTime::milliseconds(10));
  b.set_cost(rtsj::RelativeTime::microseconds(100));
  auto& domain = arch.add_thread_domain("shared.RT", DomainType::Realtime, 10);
  auto& area = arch.add_memory_area("shared.Area", AreaType::Scoped, 4096);
  arch.add_child(area, domain);
  arch.add_child(domain, a);
  arch.add_child(domain, b);
  add_tenant(arch, "alpha", {"alpha.Task"});
  add_tenant(arch, "beta", {"beta.Task"});

  const auto report = tenancy_of(arch);
  EXPECT_TRUE(report.has_rule("TENANT-AREA-SCOPED"));
  EXPECT_TRUE(report.has_rule("TENANT-DOMAIN-EXCLUSIVE"));
  EXPECT_FALSE(report.ok());
}

TEST(TenancyRulesTest, TenantPlusOperatorSharingIsOnlyAWarning) {
  Architecture arch;
  auto& a = arch.add_active("alpha.Task", ActivationKind::Periodic,
                            rtsj::RelativeTime::milliseconds(10));
  a.set_cost(rtsj::RelativeTime::microseconds(100));
  auto& op = arch.add_active("op.Probe", ActivationKind::Periodic,
                             rtsj::RelativeTime::milliseconds(50));
  op.set_cost(rtsj::RelativeTime::microseconds(10));
  auto& domain = arch.add_thread_domain("shared.RT", DomainType::Realtime, 10);
  arch.add_child(domain, a);
  arch.add_child(domain, op);
  add_tenant(arch, "alpha", {"alpha.Task"});

  const auto report = tenancy_of(arch);
  EXPECT_TRUE(report.ok()) << report.to_string();
  ASSERT_EQ(report.by_rule("TENANT-DOMAIN-EXCLUSIVE").size(), 1u);
  EXPECT_EQ(report.by_rule("TENANT-DOMAIN-EXCLUSIVE")[0].severity,
            Severity::Warning);
}

TEST(TenancyRulesTest, BudgetBoundsCoverCpuMemoryAndMalformedEnvelopes) {
  // CPU: 500us / 10ms = 0.05 utilization against a 0.01 budget.
  {
    Architecture arch = make_two_tenants(true);
    const_cast<TenantDecl&>(*arch.find_tenant("alpha"))
        .budget.cpu_utilization = 0.01;
    const auto report = tenancy_of(arch);
    const auto hits = report.by_rule("TENANT-BUDGET-BOUNDS");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].subject, "alpha");
  }
  // Memory: alpha owns a 4096-byte area against a 1000-byte budget.
  {
    Architecture arch = make_two_tenants(true);
    const_cast<TenantDecl&>(*arch.find_tenant("alpha"))
        .budget.memory_bytes = 1000;
    EXPECT_TRUE(tenancy_of(arch).has_rule("TENANT-BUDGET-BOUNDS"));
  }
  // Malformed: a negative CPU budget is itself an error.
  {
    Architecture arch = make_two_tenants(true);
    const_cast<TenantDecl&>(*arch.find_tenant("beta"))
        .budget.cpu_utilization = -0.5;
    EXPECT_TRUE(tenancy_of(arch).has_rule("TENANT-BUDGET-BOUNDS"));
  }
  // Exact fit passes (the rule allows utilization == budget).
  {
    Architecture arch = make_two_tenants(true);
    const_cast<TenantDecl&>(*arch.find_tenant("alpha"))
        .budget.cpu_utilization = 0.05;
    EXPECT_TRUE(tenancy_of(arch).ok());
  }
}

TEST(TenancyRulesTest, ExportAndImportDeclarationsAreChecked) {
  Architecture arch = make_two_tenants(true);
  TenantDecl& alpha = const_cast<TenantDecl&>(*arch.find_tenant("alpha"));
  TenantDecl& beta = const_cast<TenantDecl&>(*arch.find_tenant("beta"));
  // Exporting a component the tenant does not own.
  beta.exports.push_back({"stolen", "alpha.Task", "out"});
  // Exporting a client interface (only server ends are capabilities).
  alpha.exports.push_back({"backwards", "alpha.Task", "out"});
  // Importing from a tenant that does not exist, a capability the source
  // does not export, and from the tenant itself.
  alpha.imports.push_back({"feed", "nobody"});
  alpha.imports.push_back({"unexported", "beta"});
  beta.imports.push_back({"feed", "beta"});

  const auto report = tenancy_of(arch);
  EXPECT_EQ(report.by_rule("TENANT-EXPORT-UNKNOWN").size(), 2u);
  EXPECT_EQ(report.by_rule("TENANT-IMPORT-UNKNOWN").size(), 3u);
}

TEST(TenancyRulesTest, DuplicateExportNamesAreRejected) {
  Architecture arch = make_two_tenants(true);
  TenantDecl& beta = const_cast<TenantDecl&>(*arch.find_tenant("beta"));
  beta.exports.push_back({"feed", "beta.Sink", "in"});  // second 'feed'
  const auto report = tenancy_of(arch);
  const auto hits = report.by_rule("TENANT-EXPORT-UNKNOWN");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("more than once"), std::string::npos);
}

TEST(TenancyRulesTest, TenantlessPlanPassesVacuously) {
  Architecture arch;
  add_slice(arch, "solo", 10, rtsj::RelativeTime::milliseconds(10),
            rtsj::RelativeTime::milliseconds(1));
  EXPECT_TRUE(tenancy_of(arch).ok());
}

// ---- admission control ----------------------------------------------------

/// Resident assembly: tenant alpha with one 2ms/10ms task on the heap.
Architecture make_resident() {
  Architecture arch;
  add_slice(arch, "alpha", 20, rtsj::RelativeTime::milliseconds(10),
            rtsj::RelativeTime::milliseconds(2), 0, AreaType::Heap);
  add_tenant(arch, "alpha", {"alpha.Task"});
  return arch;
}

/// Candidate slice: tenant beta with one task of the given cost.
Architecture make_candidate(rtsj::RelativeTime cost) {
  Architecture arch;
  add_slice(arch, "beta", 15, rtsj::RelativeTime::milliseconds(10), cost, 0,
            AreaType::Heap);
  add_tenant(arch, "beta", {"beta.Task"});
  return arch;
}

TEST(AdmissionTest, AcceptsASchedulableTenantWithAStagedReload) {
  const Architecture resident = make_resident();
  const AssemblyPlan running = soleil::snapshot_assembly(resident, 1);
  const Architecture candidate =
      make_candidate(rtsj::RelativeTime::milliseconds(1));

  const AdmissionDecision decision =
      AdmissionController{}.admit(running, resident, candidate);
  ASSERT_TRUE(decision.accepted) << decision.report.to_string();
  EXPECT_TRUE(decision.reasons.empty());
  ASSERT_EQ(decision.candidate_tenants,
            std::vector<std::string>{"beta"});
  // The modeless composed-RTA verdict is recorded even on acceptance.
  ASSERT_EQ(decision.rta.size(), 1u);
  EXPECT_TRUE(decision.rta[0].mode.empty());
  EXPECT_TRUE(decision.rta[0].schedulable);
  // The staged transition adds exactly the candidate's component and the
  // placed target snapshot knows both tenants.
  ASSERT_TRUE(decision.reload.ok());
  ASSERT_EQ(decision.reload.delta.add_components.size(), 1u);
  EXPECT_EQ(decision.reload.delta.add_components[0].name, "beta.Task");
  EXPECT_TRUE(decision.reload.delta.remove_components.empty());
  EXPECT_NE(decision.reload.target.find_tenant("alpha"), nullptr);
  EXPECT_NE(decision.reload.target.find_tenant("beta"), nullptr);
}

TEST(AdmissionTest, RejectsWhenTheComposedTaskSetIsUnschedulable) {
  const Architecture resident = make_resident();
  const AssemblyPlan running = soleil::snapshot_assembly(resident, 1);
  // 2ms + 9ms of demand per 10ms period: no response-time bound exists.
  const Architecture candidate =
      make_candidate(rtsj::RelativeTime::milliseconds(9));

  // Rejection purity: admit() composes and analyses but applies nothing —
  // the running snapshot's bytes are identical before and after.
  const std::vector<std::uint8_t> before = dist::encode_plan(running);
  const AdmissionDecision decision =
      AdmissionController{}.admit(running, resident, candidate);
  EXPECT_EQ(dist::encode_plan(running), before);

  ASSERT_FALSE(decision.accepted);
  const AdmissionReason* reason = decision.reason_for("TENANT-ADMIT-RTA");
  ASSERT_NE(reason, nullptr) << decision.report.to_string();
  EXPECT_NE(reason->message.find("not schedulable"), std::string::npos);
  ASSERT_EQ(decision.rta.size(), 1u);
  EXPECT_FALSE(decision.rta[0].schedulable);
}

TEST(AdmissionTest, RejectsNameCollisionsAsComposeConflicts) {
  const Architecture resident = make_resident();
  const AssemblyPlan running = soleil::snapshot_assembly(resident, 1);
  // The candidate re-declares the resident's component name.
  Architecture candidate;
  add_slice(candidate, "alpha", 15, rtsj::RelativeTime::milliseconds(10),
            rtsj::RelativeTime::milliseconds(1));
  add_tenant(candidate, "beta", {"alpha.Task"});

  const AdmissionDecision decision =
      AdmissionController{}.admit(running, resident, candidate);
  ASSERT_FALSE(decision.accepted);
  EXPECT_NE(decision.reason_for("TENANT-COMPOSE-CONFLICT"), nullptr)
      << decision.report.to_string();
}

TEST(AdmissionTest, RejectionReasonsCarryTenantNameAndAdlLine) {
  const Architecture resident = make_resident();
  const AssemblyPlan running = soleil::snapshot_assembly(resident, 1);
  // The candidate arrives as ADL text; its <Tenant> element sits on line 8
  // and declares a CPU budget its own member cannot fit (0.2 needed vs
  // 0.01 declared), so TENANT-BUDGET-BOUNDS fires on the composition.
  const char* adl_text = R"(<Architecture>
  <ActiveComponent name="beta.Task" type="periodic" periodicity="10ms"
                   cost="2ms" criticality="low"/>
  <MemoryArea name="beta.Area">
    <AreaDesc type="scope" size="4KB"/>
    <ThreadDomain name="beta.RT"><DomainDesc type="RT" priority="15"/>
      <ActiveComp name="beta.Task"/></ThreadDomain></MemoryArea>
  <Tenant name="beta">
    <Budget cpu="0.01" memory="1MB"/>
    <Member name="beta.Task"/>
  </Tenant>
</Architecture>)";
  const Architecture candidate = adl::load_architecture(adl_text);
  ASSERT_EQ(candidate.tenants().size(), 1u);
  const int tenant_line = candidate.tenants()[0].adl_line;
  EXPECT_EQ(tenant_line, 8);

  const AdmissionDecision decision =
      AdmissionController{}.admit(running, resident, candidate);
  ASSERT_FALSE(decision.accepted);
  const AdmissionReason* reason =
      decision.reason_for("TENANT-BUDGET-BOUNDS");
  ASSERT_NE(reason, nullptr) << decision.report.to_string();
  // Machine-readable context: the owning tenant and where it was declared.
  EXPECT_EQ(reason->tenant, "beta");
  EXPECT_EQ(reason->adl_line, tenant_line);
  // The human-readable message carries the same line context inline.
  EXPECT_NE(reason->message.find("(line " + std::to_string(tenant_line) +
                                 ")"),
            std::string::npos)
      << reason->message;
}

/// Resident tenant t0 exporting t0.Task's input, and a candidate tenant
/// t1 (its area of `candidate_area` type) feeding it asynchronously
/// through a declared route: a cross-area binding, so the validator
/// suggests a pattern (info BIND-PATTERN-SUGGEST).
struct RoutedPair {
  Architecture resident;
  Architecture candidate;
};

RoutedPair make_routed_pair(AreaType candidate_area) {
  RoutedPair pair;
  auto& server = add_slice(pair.resident, "t0", 20,
                           rtsj::RelativeTime::milliseconds(10),
                           rtsj::RelativeTime::microseconds(500));
  server.add_interface({"in", InterfaceRole::Server, "IChain"});
  add_tenant(pair.resident, "t0", {"t0.Task"})
      .exports.push_back({"t0.feed", "t0.Task", "in"});
  auto& client = add_slice(pair.candidate, "t1", 15,
                           rtsj::RelativeTime::milliseconds(10),
                           rtsj::RelativeTime::microseconds(500), 4096,
                           candidate_area);
  client.add_interface({"out", InterfaceRole::Client, "IChain"});
  model::Binding binding;
  binding.client = {"t1.Task", "out"};
  binding.server = {"t0.Task", "in"};
  binding.desc.protocol = Protocol::Asynchronous;
  binding.desc.buffer_size = 4;
  pair.candidate.add_binding(binding);
  add_tenant(pair.candidate, "t1", {"t1.Task"})
      .imports.push_back({"t0.feed", "t0"});
  return pair;
}

/// Every (severity, rule, subject, message) of `report` appears once.
void expect_no_duplicate_diagnostics(const validate::Report& report) {
  const auto& all = report.diagnostics();
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_FALSE(all[i].severity == all[j].severity &&
                   all[i].rule == all[j].rule &&
                   all[i].subject == all[j].subject &&
                   all[i].message == all[j].message)
          << "listed twice: " << all[i].to_string();
    }
  }
}

TEST(AdmissionTest, ReportListsEveryDiagnosticOnce) {
  // Disjoint scoped areas: the suggestion fires, and the candidate's new
  // scoped area makes the transition itself fail (DELTA-AREA-UNKNOWN) —
  // the composition was validated and reached the delta step.
  {
    const RoutedPair pair = make_routed_pair(AreaType::Scoped);
    const AssemblyPlan running = soleil::snapshot_assembly(pair.resident, 1);
    const AdmissionDecision decision =
        AdmissionController{}.admit(running, pair.resident, pair.candidate);
    EXPECT_FALSE(decision.accepted);
    EXPECT_NE(decision.reason_for("DELTA-AREA-UNKNOWN"), nullptr);
    const auto suggest = decision.report.by_rule("BIND-PATTERN-SUGGEST");
    ASSERT_EQ(suggest.size(), 1u) << decision.report.to_string();
    EXPECT_EQ(suggest[0].subject, "t1.Task.out -> t0.Task.in");
    expect_no_duplicate_diagnostics(decision.report);
  }
  // A heap-area candidate is admitted; its staged reload carries the same
  // single-listed diagnostics as the decision.
  {
    const RoutedPair pair = make_routed_pair(AreaType::Heap);
    const AssemblyPlan running = soleil::snapshot_assembly(pair.resident, 1);
    const AdmissionDecision decision =
        AdmissionController{}.admit(running, pair.resident, pair.candidate);
    ASSERT_TRUE(decision.accepted) << decision.report.to_string();
    EXPECT_EQ(decision.report.by_rule("BIND-PATTERN-SUGGEST").size(), 1u);
    expect_no_duplicate_diagnostics(decision.report);
    EXPECT_EQ(decision.reload.report.to_string(),
              decision.report.to_string());
  }
}

TEST(AdmissionTest, ComposeMergesSlicesAndReportsConflicts) {
  const Architecture resident = make_resident();
  const Architecture candidate =
      make_candidate(rtsj::RelativeTime::milliseconds(1));
  validate::Report report;
  const Architecture merged =
      tenant::merge_architectures(resident, candidate, report);
  EXPECT_TRUE(report.ok());
  EXPECT_NE(merged.find("alpha.Task"), nullptr);
  EXPECT_NE(merged.find("beta.Task"), nullptr);
  EXPECT_EQ(merged.tenants().size(), 2u);

  // Merging the same slice twice collides on every declaration.
  validate::Report conflicts;
  Architecture twice = tenant::merge_architectures(resident, resident,
                                                   conflicts);
  (void)twice;
  EXPECT_TRUE(conflicts.has_rule("TENANT-COMPOSE-CONFLICT"));
}

// ---- per-tenant governor --------------------------------------------------

TEST(TenantGovernorTest, DemotionIsScopedToTheViolatingTenant) {
  OverloadGovernor governor;
  const auto alpha = governor.add_tenant("alpha", Criticality::Low);
  const auto beta = governor.add_tenant("beta", Criticality::Low);
  const auto a_low =
      governor.add_component("a.low", Criticality::Low, alpha);
  const auto a_high =
      governor.add_component("a.high", Criticality::High, alpha);
  const auto b_low =
      governor.add_component("b.low", Criticality::Low, beta);
  const auto free_low = governor.add_component("free.low", Criticality::Low);

  // Four violated windows from alpha's low component: rate-limit after
  // two, shed after two more — in alpha only.
  for (int i = 0; i < 4; ++i) governor.on_window_violated(a_low);
  EXPECT_EQ(governor.tenant_level(alpha), GovernorLevel::Shed);
  EXPECT_EQ(governor.tenant_level(beta), GovernorLevel::Normal);
  EXPECT_EQ(governor.tenant_level(0), GovernorLevel::Normal);
  // The assembly-wide signal is the max across tenants.
  EXPECT_EQ(governor.level(), GovernorLevel::Shed);

  // Only alpha's low-criticality releases are shed; the bystander tenant
  // and the default envelope keep running.
  EXPECT_EQ(governor.admit_release(a_low),
            OverloadGovernor::Admission::Shed);
  EXPECT_EQ(governor.admit_release(a_high),
            OverloadGovernor::Admission::Run);
  EXPECT_EQ(governor.admit_release(b_low),
            OverloadGovernor::Admission::Run);
  EXPECT_EQ(governor.admit_release(free_low),
            OverloadGovernor::Admission::Run);

  // Every transition names its tenant.
  const auto decisions = governor.decisions();
  ASSERT_EQ(decisions.size(), 2u);
  for (const auto& d : decisions) {
    EXPECT_STREQ(d.tenant, "alpha");
    EXPECT_STREQ(d.trigger, "a.low");
  }
}

TEST(TenantGovernorTest, HighCriticalityFloorMakesATenantUndegradable) {
  OverloadGovernor governor;
  const auto vip = governor.add_tenant("vip", Criticality::High);
  const auto low = governor.add_component("vip.low", Criticality::Low, vip);
  for (int i = 0; i < 8; ++i) governor.on_window_violated(low);
  EXPECT_EQ(governor.tenant_level(vip), GovernorLevel::Normal);
  EXPECT_TRUE(governor.decisions().empty());
  EXPECT_EQ(governor.admit_release(low), OverloadGovernor::Admission::Run);
}

TEST(TenantGovernorTest, ResetReturnsEveryTenantToNormal) {
  OverloadGovernor governor;
  const auto alpha = governor.add_tenant("alpha", Criticality::Low);
  const auto beta = governor.add_tenant("beta", Criticality::Low);
  const auto a_low = governor.add_component("a.low", Criticality::Low, alpha);
  const auto b_low = governor.add_component("b.low", Criticality::Low, beta);
  for (int i = 0; i < 4; ++i) governor.on_window_violated(a_low);
  for (int i = 0; i < 2; ++i) governor.on_window_violated(b_low);
  EXPECT_EQ(governor.tenant_level(alpha), GovernorLevel::Shed);
  EXPECT_EQ(governor.tenant_level(beta), GovernorLevel::RateLimit);

  governor.reset();
  EXPECT_EQ(governor.tenant_level(alpha), GovernorLevel::Normal);
  EXPECT_EQ(governor.tenant_level(beta), GovernorLevel::Normal);
  EXPECT_EQ(governor.level(), GovernorLevel::Normal);
  EXPECT_EQ(governor.admit_release(a_low),
            OverloadGovernor::Admission::Run);
  EXPECT_EQ(governor.admit_release(b_low),
            OverloadGovernor::Admission::Run);
}

TEST(TenantGovernorTest, MonitorAdoptsPlanTenantsIdempotently) {
  Architecture arch = make_two_tenants(true);
  const AssemblyPlan plan = soleil::snapshot_assembly(arch, 1);

  monitor::RuntimeMonitor mon;
  mon.adopt_tenants(plan);
  // Tenant 0 is the implicit default envelope; alpha and beta follow.
  EXPECT_EQ(mon.governor().tenant_count(), 3u);
  // Re-adoption after a live reload registers nothing twice.
  mon.adopt_tenants(plan);
  EXPECT_EQ(mon.governor().tenant_count(), 3u);

  auto& area = rtsj::ImmortalMemory::instance();
  const auto& member =
      mon.add_component("alpha.Task", area, Criticality::Low, nullptr);
  const auto& outsider =
      mon.add_component("op.Probe", area, Criticality::Low, nullptr);
  // Members land in their tenant's scope, outsiders in the default.
  EXPECT_STREQ(mon.governor().tenant_name(
                   mon.governor().component_tenant(member.governor_id)),
               "alpha");
  EXPECT_EQ(mon.governor().component_tenant(outsider.governor_id), 0u);
}

// ---- deterministic two-tenant sim replay ----------------------------------

struct TwoTenantRun {
  sim::TaskStats bulk;    // alpha's overloading task
  sim::TaskStats ctrl;    // alpha's high-criticality task
  sim::TaskStats victim;  // beta's task — must stay whole
  std::vector<std::string> decisions;  // "tenant:level@trigger"
  std::vector<std::string> trace;
};

/// Alpha's low-criticality bulk task overruns its budget and is governed
/// down; beta's task shares the CPU but not the envelope.
TwoTenantRun run_two_tenants() {
  sim::PreemptiveScheduler sched;
  sched.enable_trace();

  sim::TaskConfig bulk;
  bulk.name = "alpha.Bulk";
  bulk.kind = sim::ThreadKind::Realtime;
  bulk.priority = 25;
  bulk.release = sim::ReleaseKind::Periodic;
  bulk.period = sim::RelativeTime::milliseconds(10);
  bulk.cost = sim::RelativeTime::milliseconds(8);  // overruns 3ms budget
  const sim::TaskId bulk_id = sched.add_task(bulk);

  sim::TaskConfig ctrl;
  ctrl.name = "alpha.Ctrl";
  ctrl.kind = sim::ThreadKind::Realtime;
  ctrl.priority = 20;
  ctrl.release = sim::ReleaseKind::Periodic;
  ctrl.period = sim::RelativeTime::milliseconds(10);
  ctrl.cost = sim::RelativeTime::milliseconds(1);
  const sim::TaskId ctrl_id = sched.add_task(ctrl);

  sim::TaskConfig victim;
  victim.name = "beta.Victim";
  victim.kind = sim::ThreadKind::Realtime;
  victim.priority = 22;  // preempts ctrl, yields to bulk
  victim.release = sim::ReleaseKind::Periodic;
  victim.period = sim::RelativeTime::milliseconds(20);
  victim.cost = sim::RelativeTime::milliseconds(1);
  const sim::TaskId victim_id = sched.add_task(victim);

  OverloadGovernor governor;
  const auto alpha = governor.add_tenant("alpha", Criticality::Low);
  const auto beta = governor.add_tenant("beta", Criticality::Low);
  const auto gov_bulk =
      governor.add_component("alpha.Bulk", Criticality::Low, alpha);
  const auto gov_ctrl =
      governor.add_component("alpha.Ctrl", Criticality::High, alpha);
  const auto gov_victim =
      governor.add_component("beta.Victim", Criticality::Low, beta);

  const auto gate = [&governor](std::size_t id) {
    return [&governor, id](sim::TaskId, std::uint64_t) {
      return governor.admit_release(id) ==
             OverloadGovernor::Admission::Run;
    };
  };
  sched.set_release_gate(bulk_id, gate(gov_bulk));
  sched.set_release_gate(ctrl_id, gate(gov_ctrl));
  sched.set_release_gate(victim_id, gate(gov_victim));

  model::TimingContract contract;
  contract.wcet_budget = sim::RelativeTime::milliseconds(3);
  contract.window = 4;
  monitor::ContractMonitor bulk_contract("alpha.Bulk", contract);
  sched.set_on_complete(bulk_id, [&](sim::AbsoluteTime) {
    monitor::Violation out[2];
    monitor::WindowOutcome outcome = monitor::WindowOutcome::Open;
    bulk_contract.record_execution(sim::RelativeTime::milliseconds(8),
                                   false, out, &outcome);
    if (outcome == monitor::WindowOutcome::Violated) {
      governor.on_window_violated(gov_bulk);
    } else if (outcome == monitor::WindowOutcome::Clean) {
      governor.on_window_clean(gov_bulk);
    }
  });

  sched.run_until(sim::AbsoluteTime::epoch() + sim::RelativeTime::seconds(1));

  TwoTenantRun result;
  result.bulk = sched.stats(bulk_id);
  result.ctrl = sched.stats(ctrl_id);
  result.victim = sched.stats(victim_id);
  for (const auto& d : governor.decisions()) {
    result.decisions.push_back(std::string(d.tenant) + ":" +
                               to_string(d.level) + "@" + d.trigger);
  }
  for (const auto& event : sched.trace()) {
    result.trace.push_back(event.to_string(sched));
  }
  return result;
}

TEST(TenantSimTest, OverloadInOneTenantNeverShedsTheOther) {
  const TwoTenantRun run = run_two_tenants();

  // Alpha escalates to Shed through its own bulk task...
  ASSERT_EQ(run.decisions.size(), 2u);
  EXPECT_EQ(run.decisions[0], "alpha:rate-limit@alpha.Bulk");
  EXPECT_EQ(run.decisions[1], "alpha:shed@alpha.Bulk");
  EXPECT_GT(run.bulk.shed_releases, 0u);
  // ...while alpha's high-criticality task and every beta release run.
  EXPECT_EQ(run.ctrl.shed_releases, 0u);
  EXPECT_EQ(run.victim.shed_releases, 0u);
  EXPECT_EQ(run.victim.deadline_misses, 0u)
      << "the bystander tenant must come through the overload whole";
  EXPECT_EQ(run.victim.releases_completed, 50u);

  // The trace never sheds outside the overloaded tenant.
  for (const auto& line : run.trace) {
    EXPECT_EQ(line.find("shed beta.Victim"), std::string::npos);
    EXPECT_EQ(line.find("shed alpha.Ctrl"), std::string::npos);
  }
}

TEST(TenantSimTest, TwoTenantReplayIsBitForBit) {
  const TwoTenantRun first = run_two_tenants();
  const TwoTenantRun second = run_two_tenants();
  EXPECT_EQ(first.decisions, second.decisions);
  ASSERT_EQ(first.trace.size(), second.trace.size());
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.victim.releases_completed,
            second.victim.releases_completed);
  EXPECT_EQ(first.bulk.shed_releases, second.bulk.shed_releases);
}

}  // namespace
}  // namespace rtcf
