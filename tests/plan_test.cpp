// The Soleil planner: pattern resolution and buffer/staging placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "adversity/arch_gen.hpp"
#include "scenario/production_scenario.hpp"
#include "soleil/plan.hpp"
#include "validate/area_relation.hpp"
#include "validate/pattern_catalog.hpp"

namespace rtcf::soleil {
namespace {

using membrane::PatternOp;

class PlanTest : public ::testing::Test {
 protected:
  PlanTest()
      : arch_(scenario::make_production_architecture()),
        env_(arch_),
        plan_(make_plan(arch_, env_)) {}

  const PlannedBinding& binding_to(const std::string& server) const {
    for (const auto& pb : plan_.bindings) {
      if (pb.server->name() == server) return pb;
    }
    throw std::logic_error("no binding to " + server);
  }

  model::Architecture arch_;
  runtime::RuntimeEnvironment env_;
  Plan plan_;
};

TEST_F(PlanTest, PlansAllComponentsAndBindings) {
  EXPECT_EQ(plan_.components.size(), 4u);
  EXPECT_EQ(plan_.bindings.size(), 3u);
  ASSERT_NE(plan_.find_component("Console"), nullptr);
  EXPECT_EQ(plan_.find_component("Console")->active, nullptr);
  EXPECT_EQ(plan_.find_component("missing"), nullptr);
}

TEST_F(PlanTest, SameAreaBindingIsDirect) {
  const auto& pb = binding_to("MonitoringSystem");
  EXPECT_EQ(pb.op, PatternOp::Direct);
  EXPECT_EQ(pb.staging_area, nullptr);
  // Both endpoints in Imm1: the buffer sits in immortal memory.
  EXPECT_EQ(pb.buffer_area, &rtsj::ImmortalMemory::instance());
  EXPECT_EQ(pb.buffer_size, 10u);
}

TEST_F(PlanTest, ScopedServerGetsScopeEnter) {
  const auto& pb = binding_to("Console");
  EXPECT_EQ(pb.op, PatternOp::ScopeEnter);
  EXPECT_EQ(pb.server_area->kind(), rtsj::AreaKind::Scoped);
  EXPECT_EQ(pb.buffer_area, nullptr) << "synchronous: no buffer";
}

TEST_F(PlanTest, NhrtToHeapAsyncGetsImmortalForward) {
  const auto& pb = binding_to("AuditLog");
  EXPECT_EQ(pb.op, PatternOp::ImmortalForward);
  EXPECT_EQ(pb.staging_area, &rtsj::ImmortalMemory::instance());
  EXPECT_EQ(pb.buffer_area, &rtsj::ImmortalMemory::instance())
      << "an NHRT participant must never be handed heap storage";
}

TEST_F(PlanTest, ExplicitPatternOverridesSuggestion) {
  auto arch = scenario::make_production_architecture();
  arch.mutable_bindings()[0].desc.pattern = "deep-copy";
  runtime::RuntimeEnvironment env(arch);
  const auto plan = make_plan(arch, env);
  EXPECT_EQ(plan.bindings[0].op, PatternOp::DeepCopy);
}

TEST_F(PlanTest, ThreadsAndAreasResolved) {
  const auto* pl = plan_.find_component("ProductionLine");
  ASSERT_NE(pl, nullptr);
  ASSERT_NE(pl->thread, nullptr);
  EXPECT_EQ(pl->thread->kind(), rtsj::ThreadKind::NoHeapRealtime);
  EXPECT_EQ(pl->area, &rtsj::ImmortalMemory::instance());
  const auto* audit = plan_.find_component("AuditLog");
  EXPECT_EQ(audit->area, &rtsj::HeapMemory::instance());
}

TEST(PlanErrorsTest, SyncNhrtToHeapIsUnplannable) {
  auto arch = scenario::make_production_architecture();
  // Make the console binding point at heap-allocated state.
  auto& heap_console = arch.add_passive("HeapConsole");
  heap_console.set_content_class("X");
  heap_console.add_interface(
      {"iConsole", model::InterfaceRole::Server, "IConsole"});
  arch.add_child(*arch.find("H1"), heap_console);
  arch.mutable_bindings()[1].server = {"HeapConsole", "iConsole"};
  runtime::RuntimeEnvironment env(arch);
  EXPECT_THROW(make_plan(arch, env), PlanningError);
}

TEST(PlanErrorsTest, UnknownEndpointIsUnplannable) {
  auto arch = scenario::make_production_architecture();
  arch.mutable_bindings()[0].server.component = "Ghost";
  runtime::RuntimeEnvironment env(arch);
  EXPECT_THROW(make_plan(arch, env), PlanningError);
}

TEST(PlanSharedScopeTest, SiblingScopesUnderCommonParentShareIt) {
  using namespace model;
  Architecture arch;
  auto& a = arch.add_active("A", ActivationKind::Periodic,
                            rtsj::RelativeTime::milliseconds(1));
  a.set_content_class("AI");
  a.add_interface({"out", InterfaceRole::Client, "I"});
  auto& b = arch.add_passive("B");
  b.set_content_class("BI");
  b.add_interface({"in", InterfaceRole::Server, "I"});
  auto& domain = arch.add_thread_domain("D", DomainType::Realtime, 20);
  arch.add_child(domain, a);

  auto& parent = arch.add_memory_area("Parent", AreaType::Scoped, 64 * 1024);
  auto& sa = arch.add_memory_area("SA", AreaType::Scoped, 8 * 1024);
  auto& sb = arch.add_memory_area("SB", AreaType::Scoped, 8 * 1024);
  arch.add_child(parent, sa);
  arch.add_child(parent, sb);
  arch.add_child(sa, domain);
  arch.add_child(sb, b);
  arch.add_binding({{"A", "out"}, {"B", "in"}, {}});  // sync, disjoint

  runtime::RuntimeEnvironment env(arch);
  const auto plan = make_plan(arch, env);
  ASSERT_EQ(plan.bindings.size(), 1u);
  EXPECT_EQ(plan.bindings[0].op, PatternOp::SharedScope);
  EXPECT_EQ(plan.bindings[0].staging_area,
            &env.area_runtime(parent))
      << "staging belongs in the common ancestor scope";
}

TEST(PlanModeNamesTest, ToStringCoversAllModes) {
  EXPECT_STREQ(to_string(Mode::Soleil), "SOLEIL");
  EXPECT_STREQ(to_string(Mode::MergeAll), "MERGE_ALL");
  EXPECT_STREQ(to_string(Mode::UltraMerge), "ULTRA_MERGE");
}

// ---- snapshot identity ----------------------------------------------------
//
// reference_snapshot() is the planner's snapshot as it was written before
// the execution domains were computed once per architecture and tenant
// ownership once per snapshot: the per-query fixpoint for every NHRT
// question and Architecture::tenant_of() for every (tenant, component)
// pair. It freezes that output; snapshot_assembly must stay equal to it.

bool reference_on_nhrt(const model::Architecture& arch,
                       const model::Component& component) {
  using namespace model;
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
  for (const auto* d : domains[&component]) {
    if (d->type() == DomainType::NoHeapRealtime) return true;
  }
  return false;
}

std::string reference_placement(const model::MemoryAreaComponent* area) {
  return area == nullptr ? model::kAreaHeap : area->name();
}

model::AssemblyPlan reference_snapshot(const model::Architecture& arch,
                                       std::size_t partitions) {
  using namespace model;
  AssemblyPlan plan;
  AssemblyPlanBuilder builder{plan};
  for (const auto& owned : arch.components()) {
    if (!owned->is_functional()) continue;
    ComponentSpec spec;
    spec.name = owned->name();
    spec.kind = owned->kind();
    spec.swappable = owned->swappable();
    spec.interfaces = owned->interfaces();
    if (const auto* active =
            dynamic_cast<const ActiveComponent*>(owned.get())) {
      spec.activation = active->activation();
      spec.period = active->period();
      spec.cost = active->cost();
      spec.content_class = active->content_class();
      spec.criticality = active->criticality().value_or(Criticality::High);
      spec.contract = active->timing_contract();
      if (const auto* domain = arch.thread_domain_of(*owned)) {
        spec.thread_domain = domain->name();
        spec.domain_type = domain->type();
        spec.domain_priority = domain->priority();
      }
    } else {
      spec.content_class =
          static_cast<const PassiveComponent*>(owned.get())->content_class();
    }
    if (const auto* area = arch.memory_area_of(*owned)) {
      spec.memory_area = area->name();
      spec.area_type = area->type();
    }
    spec.executes_on_nhrt = reference_on_nhrt(arch, *owned);
    builder.components().push_back(std::move(spec));
  }
  for (const Binding& binding : arch.bindings()) {
    const Component* client = arch.find(binding.client.component);
    const Component* server = arch.find(binding.server.component);
    BindingSpec spec;
    spec.client = binding.client;
    spec.server = binding.server;
    spec.protocol = binding.desc.protocol;
    spec.buffer_size = binding.desc.buffer_size;
    const auto* client_area = arch.memory_area_of(*client);
    const auto* server_area = arch.memory_area_of(*server);
    const bool client_no_heap = reference_on_nhrt(arch, *client);
    spec.pattern = binding.desc.pattern;
    if (spec.pattern.empty()) {
      validate::PatternQuery query;
      query.relation = validate::relate_areas(arch, client_area, server_area);
      query.protocol = spec.protocol;
      query.client_no_heap = client_no_heap;
      query.server_in_heap =
          server_area == nullptr || server_area->type() == AreaType::Heap;
      query.common_scope_ancestor =
          common_scope_ancestor(arch, client_area, server_area) != nullptr;
      spec.pattern = validate::suggest_pattern(query);
    }
    switch (membrane::pattern_op_from_name(spec.pattern)) {
      case PatternOp::Direct:
      case PatternOp::ScopeEnter:
        spec.staging_area = kAreaNone;
        break;
      case PatternOp::DeepCopy:
      case PatternOp::WedgeThread:
        spec.staging_area = reference_placement(server_area);
        break;
      case PatternOp::ImmortalForward:
        spec.staging_area = kAreaImmortal;
        break;
      case PatternOp::SharedScope: {
        const auto* shared =
            common_scope_ancestor(arch, client_area, server_area);
        spec.staging_area = shared != nullptr ? shared->name() : kAreaImmortal;
        break;
      }
      case PatternOp::Handoff:
        spec.staging_area = reference_placement(client_area);
        break;
    }
    if (spec.protocol == Protocol::Asynchronous) {
      std::string candidate = spec.staging_area != kAreaNone
                                  ? spec.staging_area
                                  : reference_placement(server_area);
      bool heap = candidate == kAreaHeap;
      if (const auto* area = arch.find_as<MemoryAreaComponent>(candidate)) {
        heap = area->type() == AreaType::Heap;
      }
      if ((client_no_heap || reference_on_nhrt(arch, *server)) && heap) {
        candidate = kAreaImmortal;
      }
      spec.buffer_area = std::move(candidate);
    }
    builder.bindings().push_back(std::move(spec));
  }
  for (const auto* area : arch.all_of<MemoryAreaComponent>()) {
    builder.areas().push_back(
        AreaSpec{area->name(), area->type(), area->size_bytes()});
  }
  builder.modes() = arch.modes();
  for (const TenantDecl& decl : arch.tenants()) {
    TenantSpec tenant;
    tenant.name = decl.name;
    tenant.budget = decl.budget;
    tenant.criticality_floor = decl.criticality_floor;
    tenant.exports = decl.exports;
    tenant.imports = decl.imports;
    tenant.adl_line = decl.adl_line;
    for (const std::string& member : decl.members) {
      const Component* c = arch.find(member);
      if (c != nullptr && c->kind() == ComponentKind::MemoryArea) {
        tenant.areas.push_back(member);
      } else if (c != nullptr && c->kind() == ComponentKind::ThreadDomain) {
        tenant.domains.push_back(member);
      } else {
        tenant.components.push_back(member);
      }
    }
    for (const auto& owned : arch.components()) {
      if (!owned->is_functional() || decl.has_member(owned->name())) continue;
      const TenantDecl* owner = arch.tenant_of(owned->name());
      if (owner != nullptr && owner->name == decl.name) {
        tenant.components.push_back(owned->name());
      }
    }
    for (const std::string& comp : tenant.components) {
      const Component* c = arch.find(comp);
      if (c == nullptr) continue;
      if (const auto* area = arch.memory_area_of(*c)) {
        if (!tenant.owns_area(area->name())) {
          tenant.areas.push_back(area->name());
        }
      }
      if (const auto* domain = arch.thread_domain_of(*c)) {
        if (std::find(tenant.domains.begin(), tenant.domains.end(),
                      domain->name()) == tenant.domains.end()) {
          tenant.domains.push_back(domain->name());
        }
      }
    }
    std::sort(tenant.components.begin(), tenant.components.end());
    std::sort(tenant.areas.begin(), tenant.areas.end());
    std::sort(tenant.domains.begin(), tenant.domains.end());
    builder.tenants().push_back(std::move(tenant));
  }
  assign_partitions(plan, partitions);
  return plan;
}

/// A chain of `count` tenant slices. Slice i: an active Task in domain
/// t<i>.D (NHRT in immortal memory for even i, RT on the heap for odd i),
/// a passive Store it calls synchronously, both in area t<i>.Area, and an
/// asynchronous call into the previous slice's Task. Tenant i lists its
/// Task (i % 3 == 0), its Area (i % 3 == 1) or its Domain (i % 3 == 2), so
/// most members join only through an enclosing composite; the last tenant
/// also claims slice 1's Store directly and names an unknown member.
model::Architecture tenant_chain(std::size_t count) {
  using namespace model;
  Architecture arch;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string p = "t" + std::to_string(i);
    const bool nhrt = i % 2 == 0;
    auto& task = arch.add_active(p + ".Task", ActivationKind::Periodic,
                                 rtsj::RelativeTime::milliseconds(20));
    task.set_cost(rtsj::RelativeTime::microseconds(100 + 10 * i));
    task.set_content_class("ChainTask");
    task.add_interface({"out", InterfaceRole::Client, "IChain"});
    task.add_interface({"in", InterfaceRole::Server, "IChain"});
    task.add_interface({"store", InterfaceRole::Client, "IStore"});
    auto& store = arch.add_passive(p + ".Store");
    store.set_content_class("ChainStore");
    store.add_interface({"in", InterfaceRole::Server, "IStore"});
    auto& domain = arch.add_thread_domain(
        p + ".D", nhrt ? DomainType::NoHeapRealtime : DomainType::Realtime,
        static_cast<int>(11 + i % 28));
    auto& area = arch.add_memory_area(
        p + ".Area", nhrt ? AreaType::Immortal : AreaType::Heap, 0);
    arch.add_child(area, domain);
    arch.add_child(area, store);
    arch.add_child(domain, task);
    arch.add_binding({{p + ".Task", "store"}, {p + ".Store", "in"}, {}});
    TenantDecl tenant;
    tenant.name = p;
    tenant.members.push_back(i % 3 == 0   ? p + ".Task"
                             : i % 3 == 1 ? p + ".Area"
                                          : p + ".D");
    tenant.exports.push_back({p + ".feed", p + ".Task", "in"});
    if (i > 0) {
      const std::string prev = "t" + std::to_string(i - 1);
      Binding chain;
      chain.client = {p + ".Task", "out"};
      chain.server = {prev + ".Task", "in"};
      chain.desc.protocol = Protocol::Asynchronous;
      chain.desc.buffer_size = 4;
      arch.add_binding(chain);
      tenant.imports.push_back({prev + ".feed", prev});
    }
    if (i + 1 == count && count > 1) {
      tenant.members.push_back("t1.Store");
      tenant.members.push_back("ghost");
    }
    arch.add_tenant(std::move(tenant));
  }
  return arch;
}

TEST(PlanSnapshotIdentityTest, ProductionScenarioMatchesReference) {
  const auto arch = scenario::make_production_architecture();
  for (const std::size_t partitions : {1u, 2u}) {
    EXPECT_TRUE(snapshot_assembly(arch, partitions) ==
                reference_snapshot(arch, partitions))
        << partitions << " partition(s)";
  }
}

TEST(PlanSnapshotIdentityTest, SixteenTenantChainMatchesReference) {
  const auto arch = tenant_chain(16);
  for (const std::size_t partitions : {1u, 4u}) {
    const auto plan = snapshot_assembly(arch, partitions);
    EXPECT_TRUE(plan == reference_snapshot(arch, partitions))
        << partitions << " partition(s)";
    ASSERT_EQ(plan.tenants().size(), 16u);
  }
  const auto plan = snapshot_assembly(arch, 1);
  // Membership through the enclosing MemoryArea only: Task and Store.
  EXPECT_EQ(plan.find_tenant("t4")->components,
            (std::vector<std::string>{"t4.Store", "t4.Task"}));
  // Through the ThreadDomain only: the Task, not the Store beside it.
  EXPECT_EQ(plan.find_tenant("t5")->components,
            (std::vector<std::string>{"t5.Task"}));
  // A direct listing elsewhere wins over the enclosing area's tenant.
  EXPECT_FALSE(plan.find_tenant("t1")->owns_component("t1.Store"));
  EXPECT_TRUE(plan.find_tenant("t15")->owns_component("t1.Store"));
  // The synchronous Store runs on its caller's NHRT in even slices.
  EXPECT_TRUE(plan.find("t2.Store")->executes_on_nhrt);
  EXPECT_FALSE(plan.find("t3.Store")->executes_on_nhrt);
}

TEST(PlanSnapshotIdentityTest, GeneratedScenariosMatchReference) {
  // The drill generator's architectures and reload targets: shared
  // passive servers, scoped placements, tenants owning whole nodes.
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    const auto scenario = adversity::generate_scenario(seed);
    EXPECT_TRUE(snapshot_assembly(scenario.arch, 2) ==
                reference_snapshot(scenario.arch, 2))
        << "seed " << seed;
    for (const auto& target : scenario.reload_targets) {
      EXPECT_TRUE(snapshot_assembly(target, 2) ==
                  reference_snapshot(target, 2))
          << "seed " << seed << " reload target";
    }
  }
}

}  // namespace
}  // namespace rtcf::soleil
