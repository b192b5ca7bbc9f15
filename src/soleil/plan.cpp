#include "soleil/plan.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/assert.hpp"
#include "validate/area_relation.hpp"
#include "validate/pattern_catalog.hpp"
#include "validate/validator.hpp"

namespace rtcf::soleil {

using model::ActiveComponent;
using model::Architecture;
using model::AreaType;
using model::AssemblyPlan;
using model::AssemblyPlanBuilder;
using model::Binding;
using model::BindingSpec;
using model::Component;
using model::ComponentSpec;
using model::MemoryAreaComponent;
using model::PassiveComponent;
using model::Protocol;
using validate::AreaRelation;

const char* to_string(Mode mode) noexcept {
  switch (mode) {
    case Mode::Soleil:
      return "SOLEIL";
    case Mode::MergeAll:
      return "MERGE_ALL";
    case Mode::UltraMerge:
      return "ULTRA_MERGE";
  }
  return "?";
}

const PlannedComponent* Plan::find_component(const std::string& name) const {
  for (const auto& c : components) {
    if (!c.retired && c.component->name() == name) return &c;
  }
  return nullptr;
}

PlannedComponent* Plan::find_component(const std::string& name) {
  for (auto& c : components) {
    if (!c.retired && c.component->name() == name) return &c;
  }
  return nullptr;
}

PlannedBinding* Plan::find_binding(const std::string& client,
                                   const std::string& port) {
  for (auto& b : bindings) {
    if (!b.retired && b.binding != nullptr &&
        b.binding->client.component == client &&
        b.binding->client.interface == port) {
      return &b;
    }
  }
  return nullptr;
}

std::size_t Plan::partition_of(const std::string& name) const {
  const PlannedComponent* pc = find_component(name);
  if (pc == nullptr) {
    throw PlanningError("no planned component '" + name + "'");
  }
  return pc->partition;
}

const MemoryAreaComponent* common_scope_ancestor(
    const Architecture& arch, const MemoryAreaComponent* a,
    const MemoryAreaComponent* b) {
  if (a == nullptr || b == nullptr) return nullptr;
  for (const auto* s = validate::design_parent_scope(arch, *a); s != nullptr;
       s = validate::design_parent_scope(arch, *s)) {
    for (const auto* t = b; t != nullptr;
         t = validate::design_parent_scope(arch, *t)) {
      if (s == t) return s;
    }
  }
  return nullptr;
}

namespace {

/// The functional components each tenant owns, in declaration order —
/// Architecture::tenant_of() answered for every component in one pass: a
/// direct member belongs to the first tenant listing it; any other
/// component to the first tenant, then first member, whose
/// MemoryArea/ThreadDomain member encloses it.
std::vector<std::vector<std::string>> components_by_owner(
    const Architecture& arch) {
  const auto& tenants = arch.tenants();
  std::unordered_map<std::string_view, const Component*> by_name;
  for (const auto& owned : arch.components()) {
    by_name.emplace(owned->name(), owned.get());
  }
  // emplace keeps the first owner recorded: direct members go in first,
  // then each composite member claims what it encloses, in order.
  std::unordered_map<const Component*, std::size_t> owner;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for (const std::string& member : tenants[t].members) {
      const auto it = by_name.find(member);
      if (it != by_name.end() && it->second->is_functional()) {
        owner.emplace(it->second, t);
      }
    }
  }
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for (const std::string& member : tenants[t].members) {
      const auto it = by_name.find(member);
      if (it == by_name.end() || it->second->is_functional()) continue;
      std::vector<const Component*> stack(it->second->subs().begin(),
                                          it->second->subs().end());
      std::unordered_set<const Component*> seen;
      while (!stack.empty()) {
        const Component* c = stack.back();
        stack.pop_back();
        if (!seen.insert(c).second) continue;
        if (c->is_functional()) owner.emplace(c, t);
        stack.insert(stack.end(), c->subs().begin(), c->subs().end());
      }
    }
  }
  std::vector<std::vector<std::string>> owned_by(tenants.size());
  for (const auto& owned : arch.components()) {
    const auto it = owner.find(owned.get());
    if (it != owner.end()) owned_by[it->second].push_back(owned->name());
  }
  return owned_by;
}

/// Iterative union-find root lookup with path halving.
std::size_t uf_find(std::vector<std::size_t>& parent, std::size_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];
    i = parent[i];
  }
  return i;
}

/// Modeled CPU demand of one component: utilization for active components
/// with a declared cost (cost / period, with the sporadic MIT standing in
/// for the period), plus a small constant so zero-cost actives still spread
/// instead of piling onto one partition. Passive components weigh nothing —
/// they execute on their callers.
double component_weight(const ComponentSpec& spec) {
  if (!spec.is_active()) return 0.0;
  double weight = 1e-3;
  if (!spec.cost.is_zero() && spec.period > rtsj::RelativeTime::zero()) {
    weight += static_cast<double>(spec.cost.nanos()) /
              static_cast<double>(spec.period.nanos());
  }
  return weight;
}

/// Snapshot area-placement name of a memory-area model object.
std::string area_placement_name(const MemoryAreaComponent* area) {
  return area == nullptr ? model::kAreaHeap : area->name();
}

/// True when a snapshot placement name resolves to heap storage.
bool placement_is_heap(const Architecture& arch, const std::string& name) {
  if (name == model::kAreaHeap) return true;
  if (name == model::kAreaImmortal || name == model::kAreaNone) return false;
  const auto* area = arch.find_as<MemoryAreaComponent>(name);
  return area != nullptr && area->type() == AreaType::Heap;
}

}  // namespace

void assign_partitions(AssemblyPlan& plan, std::size_t partitions) {
  if (partitions == 0) partitions = 1;
  AssemblyPlanBuilder builder{plan};
  builder.set_partition_count(partitions);
  auto& components = builder.components();
  const std::size_t n = components.size();

  // 1. Cluster components connected by synchronous bindings: a synchronous
  //    call executes the server on the client's worker, so both ends must
  //    be pinned together (this also keeps shared passive servers on one
  //    worker — no content-level data races).
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  auto index_of = [&](const std::string& name) -> std::size_t {
    for (std::size_t i = 0; i < n; ++i) {
      if (components[i].name == name) return i;
    }
    return n;
  };
  for (const BindingSpec& b : plan.bindings()) {
    if (b.protocol != Protocol::Synchronous) continue;
    const std::size_t a = index_of(b.client.component);
    const std::size_t s = index_of(b.server.component);
    if (a == n || s == n) continue;
    // Union by smaller root so cluster identity is deterministic.
    const std::size_t ra = uf_find(parent, a);
    const std::size_t rb = uf_find(parent, s);
    if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
  }

  // 2. Aggregate cluster weights (deterministic order: by root index).
  struct Cluster {
    std::size_t root;
    double weight = 0.0;
  };
  std::vector<Cluster> clusters;
  std::vector<std::size_t> cluster_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = uf_find(parent, i);
    std::size_t ci = clusters.size();
    for (std::size_t k = 0; k < clusters.size(); ++k) {
      if (clusters[k].root == root) {
        ci = k;
        break;
      }
    }
    if (ci == clusters.size()) clusters.push_back(Cluster{root, 0.0});
    cluster_of[i] = ci;
    clusters[ci].weight += component_weight(components[i]);
  }

  // 3. Longest-processing-time-first bin packing: heaviest cluster onto the
  //    least-loaded partition; ties break towards the lower root index and
  //    the lower partition id, keeping the assignment fully deterministic.
  std::vector<std::size_t> order(clusters.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (clusters[a].weight != clusters[b].weight) {
                       return clusters[a].weight > clusters[b].weight;
                     }
                     return clusters[a].root < clusters[b].root;
                   });
  std::vector<double> load(partitions, 0.0);
  std::vector<std::size_t> cluster_partition(clusters.size(), 0);
  for (const std::size_t ci : order) {
    std::size_t best = 0;
    for (std::size_t p = 1; p < partitions; ++p) {
      if (load[p] < load[best]) best = p;
    }
    cluster_partition[ci] = best;
    load[best] += clusters[ci].weight;
  }
  for (std::size_t i = 0; i < n; ++i) {
    components[i].partition = cluster_partition[cluster_of[i]];
  }

  // 4. Mark the bindings that now cross workers.
  for (BindingSpec& b : builder.bindings()) {
    const std::size_t a = index_of(b.client.component);
    const std::size_t s = index_of(b.server.component);
    b.cross_partition = a != n && s != n &&
                        components[a].partition != components[s].partition;
    RTCF_ASSERT(
        !(b.cross_partition && b.protocol == Protocol::Synchronous));
  }
}

AssemblyPlan snapshot_assembly(const Architecture& arch,
                               std::size_t partitions) {
  const validate::ExecutionDomains exec(arch);
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
      spec.criticality =
          active->criticality().value_or(model::Criticality::High);
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
    spec.executes_on_nhrt = exec.on_nhrt(*owned);
    builder.components().push_back(std::move(spec));
  }

  for (const Binding& binding : arch.bindings()) {
    const Component* client = arch.find(binding.client.component);
    const Component* server = arch.find(binding.server.component);
    if (client == nullptr || server == nullptr) {
      throw PlanningError("binding endpoint not found: " +
                          binding.client.component + " -> " +
                          binding.server.component);
    }
    BindingSpec spec;
    spec.client = binding.client;
    spec.server = binding.server;
    spec.protocol = binding.desc.protocol;
    spec.buffer_size = binding.desc.buffer_size;

    const MemoryAreaComponent* client_area = arch.memory_area_of(*client);
    const MemoryAreaComponent* server_area = arch.memory_area_of(*server);
    const AreaRelation relation =
        validate::relate_areas(arch, client_area, server_area);
    const bool client_no_heap = exec.on_nhrt(*client);
    const bool server_in_heap =
        server_area == nullptr || server_area->type() == AreaType::Heap;

    spec.pattern = binding.desc.pattern;
    if (spec.pattern.empty()) {
      validate::PatternQuery query;
      query.relation = relation;
      query.protocol = spec.protocol;
      query.client_no_heap = client_no_heap;
      query.server_in_heap = server_in_heap;
      query.common_scope_ancestor =
          common_scope_ancestor(arch, client_area, server_area) != nullptr;
      spec.pattern = validate::suggest_pattern(query);
      if (spec.pattern.empty()) {
        throw PlanningError(
            "no RTSJ-legal communication pattern for binding " +
            binding.client.component + " -> " + binding.server.component +
            " (synchronous NHRT-to-heap?)");
      }
    }

    switch (membrane::pattern_op_from_name(spec.pattern)) {
      case membrane::PatternOp::Direct:
      case membrane::PatternOp::ScopeEnter:
        spec.staging_area = model::kAreaNone;
        break;
      case membrane::PatternOp::DeepCopy:
      case membrane::PatternOp::WedgeThread:
        spec.staging_area = area_placement_name(server_area);
        break;
      case membrane::PatternOp::ImmortalForward:
        spec.staging_area = model::kAreaImmortal;
        break;
      case membrane::PatternOp::SharedScope: {
        const auto* shared =
            common_scope_ancestor(arch, client_area, server_area);
        spec.staging_area =
            shared != nullptr ? shared->name() : model::kAreaImmortal;
        break;
      }
      case membrane::PatternOp::Handoff:
        spec.staging_area = area_placement_name(client_area);
        break;
    }

    if (spec.protocol == Protocol::Asynchronous) {
      // The buffer lives with the staged copy when the pattern stages one;
      // otherwise on the server side. Either way an NHRT participant must
      // never be handed heap storage, so heap placements fall back to
      // immortal memory.
      std::string candidate = spec.staging_area != model::kAreaNone
                                  ? spec.staging_area
                                  : area_placement_name(server_area);
      const bool nhrt_involved =
          client_no_heap || exec.on_nhrt(*server);
      if (nhrt_involved && placement_is_heap(arch, candidate)) {
        candidate = model::kAreaImmortal;
      }
      spec.buffer_area = std::move(candidate);
    }
    builder.bindings().push_back(std::move(spec));
  }

  for (const auto* area : arch.all_of<MemoryAreaComponent>()) {
    builder.areas().push_back(
        model::AreaSpec{area->name(), area->type(), area->size_bytes()});
  }
  builder.modes() = arch.modes();

  // Tenants snapshot with membership expanded: a MemoryArea/ThreadDomain
  // member pulls in every functional component it (transitively) encloses,
  // so downstream consumers never re-walk the component DAG. Unknown
  // member names are kept out of the expansion — the validator's
  // TENANT-MEMBER-UNKNOWN rule reports them against the declaration.
  const auto owned_by = components_by_owner(arch);
  for (std::size_t t = 0; t < arch.tenants().size(); ++t) {
    const model::TenantDecl& decl = arch.tenants()[t];
    model::TenantSpec tenant;
    tenant.name = decl.name;
    tenant.budget = decl.budget;
    tenant.criticality_floor = decl.criticality_floor;
    tenant.exports = decl.exports;
    tenant.imports = decl.imports;
    tenant.adl_line = decl.adl_line;
    for (const std::string& member : decl.members) {
      const Component* c = arch.find(member);
      if (c == nullptr) {
        // Unknown members ride along as component names so the validator's
        // TENANT-MEMBER-UNKNOWN rule can report them against the plan.
        tenant.components.push_back(member);
        continue;
      }
      switch (c->kind()) {
        case model::ComponentKind::MemoryArea:
          tenant.areas.push_back(member);
          break;
        case model::ComponentKind::ThreadDomain:
          tenant.domains.push_back(member);
          break;
        default:
          tenant.components.push_back(member);
          break;
      }
    }
    for (const std::string& name : owned_by[t]) {
      if (!decl.has_member(name)) tenant.components.push_back(name);
    }
    // Composites that enclose a member are part of the slice even when not
    // listed (the area/domain-scoping rules reason over the full set).
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

rtsj::MemoryArea* resolve_area_name(const std::string& name,
                                    const Architecture& arch,
                                    runtime::RuntimeEnvironment& env) {
  if (name == model::kAreaNone) return nullptr;
  if (name == model::kAreaImmortal) return &rtsj::ImmortalMemory::instance();
  if (name == model::kAreaHeap) return &rtsj::HeapMemory::instance();
  const auto* area = arch.find_as<MemoryAreaComponent>(name);
  if (area == nullptr) return nullptr;
  return &env.area_runtime(*area);
}

Plan make_plan(const Architecture& arch, runtime::RuntimeEnvironment& env,
               std::size_t partitions) {
  Plan plan;
  plan.arch = &arch;
  plan.assembly = snapshot_assembly(arch, partitions);
  plan.partition_count = plan.assembly.partition_count();

  for (const ComponentSpec& spec : plan.assembly.components()) {
    const Component* component = arch.find(spec.name);
    RTCF_ASSERT(component != nullptr);
    PlannedComponent pc;
    pc.component = component;
    pc.area = &env.area_for(*component);
    pc.partition = spec.partition;
    pc.content_class = spec.content_class;
    pc.criticality = spec.criticality;
    if (const auto* active = dynamic_cast<const ActiveComponent*>(component)) {
      pc.active = active;
      pc.thread = &env.thread_for(*active);
      if (active->timing_contract()) {
        pc.contract = &*active->timing_contract();
      }
    }
    plan.components.push_back(pc);
  }

  for (const BindingSpec& spec : plan.assembly.bindings()) {
    PlannedBinding pb;
    for (const Binding& binding : arch.bindings()) {
      if (binding.client == spec.client && binding.server == spec.server) {
        pb.binding = &binding;
        break;
      }
    }
    RTCF_ASSERT(pb.binding != nullptr);
    pb.client = arch.find(spec.client.component);
    pb.server = arch.find(spec.server.component);
    pb.protocol = spec.protocol;
    pb.buffer_size = spec.buffer_size;
    pb.op = membrane::pattern_op_from_name(spec.pattern);
    pb.server_area = &env.area_for(*pb.server);
    pb.staging_area = resolve_area_name(spec.staging_area, arch, env);
    pb.buffer_area = resolve_area_name(spec.buffer_area, arch, env);
    pb.cross_partition = spec.cross_partition;
    plan.bindings.push_back(pb);
  }
  return plan;
}

}  // namespace rtcf::soleil
