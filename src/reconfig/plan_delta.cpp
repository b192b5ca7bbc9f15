#include "reconfig/plan_delta.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "runtime/content_registry.hpp"
#include "soleil/plan.hpp"
#include "validate/validator.hpp"

namespace rtcf::reconfig {

using model::AssemblyPlan;
using model::AssemblyPlanBuilder;
using model::BindingSpec;
using model::ComponentSpec;
using model::Protocol;
using validate::Severity;

namespace {

bool same_contract(const std::optional<model::TimingContract>& a,
                   const std::optional<model::TimingContract>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->wcet_budget == b->wcet_budget &&
         a->miss_ratio_bound == b->miss_ratio_bound &&
         a->max_arrival_rate_hz == b->max_arrival_rate_hz &&
         a->window == b->window;
}

bool same_interfaces(const std::vector<model::InterfaceDecl>& a,
                     const std::vector<model::InterfaceDecl>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].role != b[i].role ||
        a[i].signature != b[i].signature) {
      return false;
    }
  }
  return true;
}

/// The live-reload shape invariant: what a surviving component may *not*
/// change (its runtime substrate — content object, thread, area, governor
/// slot — is fixed for the assembly's lifetime).
bool same_shape(const ComponentSpec& a, const ComponentSpec& b) {
  return a.kind == b.kind && a.activation == b.activation &&
         a.content_class == b.content_class &&
         a.criticality == b.criticality && a.memory_area == b.memory_area &&
         a.area_type == b.area_type && a.thread_domain == b.thread_domain &&
         a.domain_type == b.domain_type &&
         a.domain_priority == b.domain_priority &&
         same_interfaces(a.interfaces, b.interfaces);
}

std::size_t uf_find(std::vector<std::size_t>& parent, std::size_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];
    i = parent[i];
  }
  return i;
}

double spec_weight(const ComponentSpec& spec) {
  if (!spec.is_active()) return 0.0;
  double weight = 1e-3;
  if (!spec.cost.is_zero() && spec.period > rtsj::RelativeTime::zero()) {
    weight += static_cast<double>(spec.cost.nanos()) /
              static_cast<double>(spec.period.nanos());
  }
  return weight;
}

/// Re-partitions the target snapshot under the live-migration constraint:
/// surviving components keep their running partitions; added components are
/// co-located with their synchronous cluster, else with the first
/// asynchronous peer that survives, else LPT onto the least-loaded
/// partition. Deterministic throughout.
void place_target(AssemblyPlan& target, const AssemblyPlan& running) {
  const std::size_t partitions = running.partition_count();
  AssemblyPlanBuilder builder{target};
  builder.set_partition_count(partitions);
  auto& components = builder.components();
  const std::size_t n = components.size();

  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  auto index_of = [&](const std::string& name) -> std::size_t {
    for (std::size_t i = 0; i < n; ++i) {
      if (components[i].name == name) return i;
    }
    return n;
  };
  for (const BindingSpec& b : target.bindings()) {
    if (b.protocol != Protocol::Synchronous) continue;
    const std::size_t a = index_of(b.client.component);
    const std::size_t s = index_of(b.server.component);
    if (a == n || s == n) continue;
    const std::size_t ra = uf_find(parent, a);
    const std::size_t rb = uf_find(parent, s);
    if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
  }

  // Pin each cluster: the first surviving member (component order) decides.
  std::vector<double> load(partitions, 0.0);
  std::vector<int> cluster_partition(n, -1);  // by root index
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = uf_find(parent, i);
    if (cluster_partition[root] >= 0) continue;
    const ComponentSpec* survivor = running.find(components[i].name);
    if (survivor != nullptr) {
      cluster_partition[root] = static_cast<int>(survivor->partition);
    }
  }
  // Clusters with no surviving sync member: co-locate with the first
  // asynchronous peer whose partition is already decided.
  for (const BindingSpec& b : target.bindings()) {
    if (b.protocol != Protocol::Asynchronous) continue;
    const std::size_t a = index_of(b.client.component);
    const std::size_t s = index_of(b.server.component);
    if (a == n || s == n) continue;
    const std::size_t ra = uf_find(parent, a);
    const std::size_t rb = uf_find(parent, s);
    if (cluster_partition[ra] < 0 && cluster_partition[rb] >= 0) {
      cluster_partition[ra] = cluster_partition[rb];
    } else if (cluster_partition[rb] < 0 && cluster_partition[ra] >= 0) {
      cluster_partition[rb] = cluster_partition[ra];
    }
  }
  // Account the load of every placed component, then place the remaining
  // clusters (entirely new, no surviving peer) heaviest-first onto the
  // least-loaded partition.
  std::vector<double> cluster_weight(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = uf_find(parent, i);
    cluster_weight[root] += spec_weight(components[i]);
    if (cluster_partition[root] >= 0) {
      load[static_cast<std::size_t>(cluster_partition[root])] +=
          spec_weight(components[i]);
    }
  }
  std::vector<std::size_t> floating;
  for (std::size_t i = 0; i < n; ++i) {
    if (uf_find(parent, i) == i && cluster_partition[i] < 0) {
      floating.push_back(i);
    }
  }
  std::stable_sort(floating.begin(), floating.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (cluster_weight[a] != cluster_weight[b]) {
                       return cluster_weight[a] > cluster_weight[b];
                     }
                     return a < b;
                   });
  for (const std::size_t root : floating) {
    std::size_t best = 0;
    for (std::size_t p = 1; p < partitions; ++p) {
      if (load[p] < load[best]) best = p;
    }
    cluster_partition[root] = static_cast<int>(best);
    load[best] += cluster_weight[root];
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Survivors never migrate — their threads and release timelines are
    // pinned. Only added components take the cluster placement. (A target
    // sync binding joining two survivors on different partitions is
    // therefore left crossing; the rebind rules report it.)
    const ComponentSpec* survivor = running.find(components[i].name);
    components[i].partition =
        survivor != nullptr
            ? survivor->partition
            : static_cast<std::size_t>(cluster_partition[uf_find(parent, i)]);
  }
  for (BindingSpec& b : builder.bindings()) {
    const std::size_t a = index_of(b.client.component);
    const std::size_t s = index_of(b.server.component);
    b.cross_partition = a != n && s != n &&
                        components[a].partition != components[s].partition;
  }
}

/// The set of area-placement names the running assembly can resolve: every
/// *declared* area of the launch architecture (the RuntimeEnvironment
/// created them all, including ones no component currently occupies — a
/// reload may deploy into those too).
std::set<std::string> running_area_names(const AssemblyPlan& running) {
  std::set<std::string> names;
  for (const auto& a : running.areas()) names.insert(a.name);
  return names;
}

/// Rewrites placements naming areas unknown to the running assembly: heap
/// and immortal areas degrade to the singletons (same storage), scoped ones
/// stay and fail DELTA-AREA-UNKNOWN below.
void normalize_placements(AssemblyPlan& target,
                          const model::Architecture& target_arch,
                          const std::set<std::string>& known) {
  const auto rewrite = [&](std::string& name) {
    if (name == model::kAreaNone || name == model::kAreaImmortal ||
        name == model::kAreaHeap || known.count(name) != 0) {
      return;
    }
    const auto* area =
        target_arch.find_as<model::MemoryAreaComponent>(name);
    if (area == nullptr) return;
    if (area->type() == model::AreaType::Immortal) {
      name = model::kAreaImmortal;
    } else if (area->type() == model::AreaType::Heap) {
      name = model::kAreaHeap;
    }
  };
  AssemblyPlanBuilder builder{target};
  for (BindingSpec& b : builder.bindings()) {
    rewrite(b.staging_area);
    rewrite(b.buffer_area);
  }
}

std::string end_name(const model::BindingEnd& end) {
  return end.component + "." + end.interface;
}

}  // namespace

bool PlanDelta::empty() const noexcept {
  return add_components.empty() && remove_components.empty() &&
         add_bindings.empty() && remove_bindings.empty() && rebinds.empty() &&
         settings.empty() && protocol_changes.empty();
}

std::string PlanDelta::summary() const {
  std::ostringstream os;
  os << "+" << add_components.size() << " components, -"
     << remove_components.size() << " components, " << rebinds.size()
     << " rebinds, " << settings.size() << " setting changes, +"
     << add_bindings.size() << "/-" << remove_bindings.size() << " bindings";
  return os.str();
}

PlanDelta diff_plans(const AssemblyPlan& running, const AssemblyPlan& target) {
  PlanDelta delta;

  for (const ComponentSpec& spec : target.components()) {
    const ComponentSpec* old = running.find(spec.name);
    if (old == nullptr) {
      delta.add_components.push_back(spec);
      continue;
    }
    SettingDelta setting;
    setting.component = spec.name;
    if (spec.is_active() && spec.period != old->period) {
      setting.period_changed = true;
      setting.new_period = spec.period;
    }
    if (!same_contract(spec.contract, old->contract)) {
      setting.contract_changed = true;
      setting.contract = spec.contract;
    }
    if (setting.period_changed || setting.contract_changed) {
      delta.settings.push_back(std::move(setting));
    }
  }
  for (const ComponentSpec& spec : running.components()) {
    if (target.find(spec.name) == nullptr) {
      delta.remove_components.push_back(spec);
    }
  }

  const auto removed = [&](const std::string& name) {
    return target.find(name) == nullptr;
  };
  for (const BindingSpec& old : running.bindings()) {
    if (removed(old.client.component)) continue;  // dies with its client
    const BindingSpec* next = target.binding_for(old.client);
    if (next == nullptr) {
      delta.remove_bindings.push_back(old.client);
      continue;
    }
    if (next->protocol != old.protocol) {
      delta.protocol_changes.push_back(old.client);
      continue;
    }
    if (next->server.component != old.server.component) {
      RebindDelta rebind;
      rebind.client = old.client;
      rebind.old_server = old.server.component;
      rebind.new_server = next->server.component;
      rebind.protocol = next->protocol;
      rebind.target = *next;
      delta.rebinds.push_back(std::move(rebind));
    }
  }
  for (const BindingSpec& next : target.bindings()) {
    // New client end: an added component's port, or a previously unbound
    // port of a survivor (protocol flips were already classified above).
    if (running.binding_for(next.client) == nullptr) {
      delta.add_bindings.push_back(next);
    }
  }
  return delta;
}

void check_delta_rules(const PlanDelta& delta, const AssemblyPlan& running,
                       const AssemblyPlan& target,
                       validate::Report& report) {
  const std::set<std::string> areas = running_area_names(running);
  // DELTA-* rules: what only the transition (not the target architecture
  // alone) can violate.
  for (const ComponentSpec& spec : target.components()) {
    const ComponentSpec* old = running.find(spec.name);
    if (old != nullptr && !same_shape(spec, *old)) {
      report.add(Severity::Error, "DELTA-COMPONENT-SHAPE", spec.name,
                 "surviving component changes kind, activation, content "
                 "class, criticality, interfaces, or deployment — a live "
                 "reload cannot rebuild its substrate; remove and re-add "
                 "under a new name instead");
    }
  }
  for (const ComponentSpec& spec : delta.remove_components) {
    if (!spec.swappable) {
      report.add(Severity::Error, "DELTA-REMOVE-SWAPPABLE", spec.name,
                 "removed component is not declared swappable — the static "
                 "part of the assembly is contractually untouched by "
                 "runtime reconfiguration");
    }
  }
  for (const SettingDelta& setting : delta.settings) {
    const ComponentSpec* old = running.find(setting.component);
    if (old != nullptr && !old->swappable) {
      report.add(Severity::Error, "DELTA-SETTING-SWAPPABLE",
                 setting.component,
                 "reload changes the release rate or contract of a "
                 "component not declared swappable");
    }
  }
  auto& registry = runtime::ContentRegistry::instance();
  for (const ComponentSpec& spec : delta.add_components) {
    if (spec.content_class.empty() ||
        !registry.contains(spec.content_class)) {
      report.add(Severity::Error, "DELTA-CONTENT-UNKNOWN", spec.name,
                 "content class '" + spec.content_class +
                     "' is not registered — hot-register it in the "
                     "ContentRegistry before reloading");
    }
    if (!spec.memory_area.empty() &&
        spec.area_type == model::AreaType::Scoped &&
        areas.count(spec.memory_area) == 0) {
      report.add(Severity::Error, "DELTA-AREA-UNKNOWN", spec.name,
                 "deploys into scoped area '" + spec.memory_area +
                     "', which the running assembly did not create — "
                     "scoped areas cannot be instantiated live");
    }
  }
  const auto check_placement = [&](const std::string& name,
                                   const std::string& subject) {
    if (name == model::kAreaNone || name == model::kAreaImmortal ||
        name == model::kAreaHeap || areas.count(name) != 0) {
      return;
    }
    report.add(Severity::Error, "DELTA-AREA-UNKNOWN", subject,
               "binding placement names scoped area '" + name +
                   "', which the running assembly did not create");
  };
  const auto check_async_server = [&](const BindingSpec& spec,
                                      const std::string& subject) {
    if (spec.protocol != Protocol::Asynchronous) return;
    const ComponentSpec* server = target.find(spec.server.component);
    if (server == nullptr || !server->is_active()) {
      report.add(Severity::Error, "DELTA-ASYNC-SERVER", subject,
                 "asynchronous binding server '" + spec.server.component +
                     "' is not an active component (no activation entry)");
    }
  };
  for (const BindingSpec& spec : delta.add_bindings) {
    const std::string subject = end_name(spec.client) + " -> " +
                                spec.server.component;
    check_placement(spec.staging_area, subject);
    check_placement(spec.buffer_area, subject);
    check_async_server(spec, subject);
  }
  for (const model::BindingEnd& end : delta.protocol_changes) {
    report.add(Severity::Error, "DELTA-PROTOCOL-CHANGE", end_name(end),
               "binding protocol differs from the running assembly — a "
               "port cannot flip between synchronous and asynchronous "
               "delivery live");
  }
  for (const model::BindingEnd& end : delta.remove_bindings) {
    report.add(Severity::Warning, "DELTA-PORT-UNBOUND", end_name(end),
               "surviving client port loses its binding; sends will drop");
  }
  for (const RebindDelta& rebind : delta.rebinds) {
    const std::string subject = end_name(rebind.client) + " -> " +
                                rebind.new_server;
    check_placement(rebind.target.staging_area, subject);
    check_placement(rebind.target.buffer_area, subject);
    check_async_server(rebind.target, subject);
    const ComponentSpec* client = running.find(rebind.client.component);
    if (client != nullptr && !client->swappable) {
      report.add(Severity::Error, "DELTA-REBIND-SWAPPABLE", subject,
                 "reload rebinds a port of a component not declared "
                 "swappable");
    }
    if (rebind.protocol == Protocol::Asynchronous) {
      report.add(Severity::Info, "DELTA-ASYNC-RETARGET", subject,
                 "buffer re-targeted through the AsyncSkeleton "
                 "(drain-before-swap, " +
                     std::string(rebind.target.cross_partition
                                     ? "lock-free SPSC variant"
                                     : "single-worker variant") +
                     ")");
    }
    // Partition awareness: the migration-constrained placement co-locates
    // added components where it legally can; a rebind between two *pinned*
    // survivors on different partitions cannot be co-located and is
    // reported instead.
    const ComponentSpec* tc = target.find(rebind.client.component);
    const ComponentSpec* ts = target.find(rebind.new_server);
    if (tc != nullptr && ts != nullptr && tc->partition != ts->partition) {
      report.add(
          Severity::Warning, "REBIND-CROSS-PARTITION", subject,
          rebind.protocol == Protocol::Synchronous
              ? "rebind crosses executive partitions (legal — synchronous "
                "calls execute on the caller's worker — but the server's "
                "state is now touched from two workers; co-location was "
                "impossible because both endpoints are pinned)"
              : "asynchronous rebind crosses executive partitions; the "
                "re-targeted buffer uses the lock-free SPSC variant");
    }
  }
}

ReloadPlan stage_reload(const AssemblyPlan& running,
                        const model::Architecture& target_arch,
                        AssemblyPlan target, validate::Report report) {
  ReloadPlan rp;
  rp.report = std::move(report);

  // 2. Migration-constrained placement of the snapshot.
  rp.target = std::move(target);
  place_target(rp.target, running);
  normalize_placements(rp.target, target_arch, running_area_names(running));

  // 3. Diff.
  rp.delta = diff_plans(running, rp.target);

  // 4. The transition rules (shared with the distributed per-node path).
  check_delta_rules(rp.delta, running, rp.target, rp.report);
  return rp;
}

ReloadPlan plan_reload(const AssemblyPlan& running,
                       const model::Architecture& target_arch) {
  // 1. The target architecture passes the full rule engine — RTA, pattern,
  //    area, and mode rules run against the *target* plan.
  validate::Report report = validate::validate(target_arch);
  AssemblyPlan target =
      soleil::snapshot_assembly(target_arch, running.partition_count());
  return stage_reload(running, target_arch, std::move(target),
                      std::move(report));
}

}  // namespace rtcf::reconfig
