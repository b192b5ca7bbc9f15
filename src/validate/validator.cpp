#include "validate/validator.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

#include "rtsj/threads/params.hpp"
#include "sim/rta.hpp"
#include "validate/area_relation.hpp"
#include "validate/pattern_catalog.hpp"

namespace rtcf::validate {

using model::ActivationKind;
using model::ActiveComponent;
using model::Architecture;
using model::AreaType;
using model::Binding;
using model::Component;
using model::ComponentKind;
using model::DomainType;
using model::InterfaceDecl;
using model::InterfaceRole;
using model::MemoryAreaComponent;
using model::PassiveComponent;
using model::Protocol;
using model::ThreadDomain;

namespace {

std::string binding_label(const Binding& b) {
  return b.client.component + "." + b.client.interface + " -> " +
         b.server.component + "." + b.server.interface;
}

/// True when any component reachable downward from `root` satisfies `pred`.
template <typename Pred>
bool any_in_subtree(const Component& root, Pred pred) {
  if (pred(root)) return true;
  for (const Component* sub : root.subs()) {
    if (any_in_subtree(*sub, pred)) return true;
  }
  return false;
}

void check_timing_contract(const ActiveComponent& active, Report& report);

void check_active_components(const Architecture& arch, Report& report) {
  for (const auto* active : arch.all_of<ActiveComponent>()) {
    const auto domains = arch.thread_domains_of(*active);
    if (domains.empty()) {
      report.add(Severity::Error, "AC-DOMAIN-UNIQUE", active->name(),
                 "active component is not deployed in any ThreadDomain");
    } else if (domains.size() > 1) {
      std::ostringstream os;
      os << "active component is deployed in " << domains.size()
         << " ThreadDomains (";
      for (std::size_t i = 0; i < domains.size(); ++i) {
        if (i) os << ", ";
        os << domains[i]->name();
      }
      os << "); exactly one is required";
      report.add(Severity::Error, "AC-DOMAIN-UNIQUE", active->name(),
                 os.str());
    }
    if (active->activation() == ActivationKind::Periodic &&
        active->period() <= rtsj::RelativeTime::zero()) {
      report.add(Severity::Error, "AC-PERIOD-POSITIVE", active->name(),
                 "periodic active component needs a positive period");
    }
    if (active->activation() == ActivationKind::Sporadic) {
      const bool triggered = std::any_of(
          arch.bindings().begin(), arch.bindings().end(),
          [&](const Binding& b) {
            return b.server.component == active->name() &&
                   b.desc.protocol == Protocol::Asynchronous;
          });
      if (!triggered) {
        report.add(Severity::Warning, "AC-SPORADIC-TRIGGER", active->name(),
                   "sporadic active component has no incoming asynchronous "
                   "binding to trigger its releases");
      }
    }
    if (active->content_class().empty()) {
      report.add(Severity::Warning, "AC-CONTENT-CLASS", active->name(),
                 "no content class named; the generator cannot attach "
                 "functional logic");
    }
    check_timing_contract(*active, report);
  }
}

/// A stochastic timing contract is only meaningful on a component with a
/// deadline (the implicit deadline comes from the period / minimum
/// interarrival time) and a declared criticality — the overload governor
/// cannot act on a violation without knowing what it may degrade.
void check_timing_contract(const ActiveComponent& active, Report& report) {
  if (!active.timing_contract()) return;
  const model::TimingContract& tc = *active.timing_contract();
  if (active.period() <= rtsj::RelativeTime::zero()) {
    report.add(Severity::Error, "AC-CONTRACT-COMPLETE", active.name(),
               "timing contract on a component without a period / minimum "
               "interarrival time: no deadline exists for the miss-ratio "
               "bound to be checked against");
  }
  if (!active.criticality()) {
    report.add(Severity::Error, "AC-CONTRACT-COMPLETE", active.name(),
               "timing contract without a declared criticality; the "
               "overload governor needs to know whether this component may "
               "be shed");
  }
  // Negated range predicates so NaN bounds (all comparisons false) are
  // reported instead of slipping through as "configured".
  if (!(tc.miss_ratio_bound >= 0.0 && tc.miss_ratio_bound <= 1.0)) {
    std::ostringstream os;
    os << "miss-ratio bound " << tc.miss_ratio_bound
       << " outside [0, 1]";
    report.add(Severity::Error, "AC-CONTRACT-BOUNDS", active.name(),
               os.str());
  }
  if (tc.wcet_budget.is_negative()) {
    report.add(Severity::Error, "AC-CONTRACT-BOUNDS", active.name(),
               "negative WCET budget");
  }
  if (!std::isfinite(tc.max_arrival_rate_hz) ||
      tc.max_arrival_rate_hz < 0.0) {
    report.add(Severity::Error, "AC-CONTRACT-BOUNDS", active.name(),
               "arrival-rate bound must be a non-negative finite number");
  }
  if (tc.window == 0) {
    report.add(Severity::Error, "AC-CONTRACT-BOUNDS", active.name(),
               "observation window must be at least one release");
  }
}

void check_thread_domains(const Architecture& arch, Report& report) {
  for (const auto* domain : arch.all_of<ThreadDomain>()) {
    // ThreadDomains must not nest, in either direction.
    for (const Component* sub : domain->subs()) {
      if (sub->kind() == ComponentKind::ThreadDomain) {
        report.add(Severity::Error, "TD-NO-NESTING", domain->name(),
                   "ThreadDomain contains ThreadDomain '" + sub->name() +
                       "'; domains must not nest");
      } else if (sub->kind() != ComponentKind::Active) {
        report.add(Severity::Error, "TD-ACTIVE-ONLY", domain->name(),
                   "ThreadDomain contains non-active component '" +
                       sub->name() +
                       "'; domains group active components only");
      }
    }
    // Priority bands per thread type.
    const bool rt = domain->type() != DomainType::Regular;
    const int lo = rt ? rtsj::kMinRtPriority : rtsj::kMinRegularPriority;
    const int hi = rt ? rtsj::kMaxRtPriority : rtsj::kMaxRegularPriority;
    if (domain->priority() < lo || domain->priority() > hi) {
      std::ostringstream os;
      os << model::to_string(domain->type()) << " domain priority "
         << domain->priority() << " outside band [" << lo << ", " << hi
         << "]";
      report.add(Severity::Error, "TD-PRIORITY-RANGE", domain->name(),
                 os.str());
    }
    // NHRT domains must not encapsulate heap areas (§3.1) nor be placed in
    // heap memory.
    if (domain->type() == DomainType::NoHeapRealtime) {
      const bool heap_below = any_in_subtree(
          *domain, [&](const Component& c) {
            const auto* area = dynamic_cast<const MemoryAreaComponent*>(&c);
            return area != nullptr && area->type() == AreaType::Heap;
          });
      if (heap_below) {
        report.add(Severity::Error, "TD-NHRT-NO-HEAP", domain->name(),
                   "NHRT ThreadDomain encapsulates a heap MemoryArea");
      }
      for (const Component* sub : domain->subs()) {
        const auto* area = arch.memory_area_of(*sub);
        if (area != nullptr && area->type() == AreaType::Heap) {
          report.add(Severity::Error, "TD-NHRT-NO-HEAP", domain->name(),
                     "component '" + sub->name() +
                         "' runs on an NHRT but is allocated in heap "
                         "MemoryArea '" +
                         area->name() + "'");
        }
      }
    }
  }
}

void check_non_functional_interfaces(const Architecture& arch,
                                     Report& report) {
  for (const auto& owned : arch.components()) {
    if (owned->is_functional()) continue;
    if (!owned->interfaces().empty()) {
      report.add(Severity::Error, "NF-NO-INTERFACES", owned->name(),
                 "non-functional composites are exclusively composite and "
                 "declare no functional interfaces");
    }
  }
}

void check_memory_areas(const Architecture& arch, Report& report) {
  for (const auto* area : arch.all_of<MemoryAreaComponent>()) {
    if (area->type() == AreaType::Scoped) {
      if (area->size_bytes() == 0) {
        report.add(Severity::Error, "MA-SCOPED-SIZE", area->name(),
                   "scoped MemoryArea must declare a positive size");
      }
      const auto enclosing = arch.memory_areas_of(*area);
      if (enclosing.size() > 1) {
        std::ostringstream os;
        os << "scoped MemoryArea nested in " << enclosing.size()
           << " areas; the single parent rule requires at most one";
        report.add(Severity::Error, "MA-SCOPED-SINGLE-PARENT", area->name(),
                   os.str());
      }
    }
  }
  for (const auto& owned : arch.components()) {
    if (!owned->is_functional()) continue;
    if (arch.memory_area_of(*owned) == nullptr) {
      report.add(Severity::Warning, "MA-DEPLOYED", owned->name(),
                 "functional component has no memory assignment; defaulting "
                 "to heap");
    }
  }
}

struct ResolvedBinding {
  const Component* client = nullptr;
  const Component* server = nullptr;
  const InterfaceDecl* client_if = nullptr;
  const InterfaceDecl* server_if = nullptr;
};

ResolvedBinding resolve(const Architecture& arch, const Binding& b,
                        Report& report) {
  ResolvedBinding r;
  r.client = arch.find(b.client.component);
  r.server = arch.find(b.server.component);
  const std::string label = binding_label(b);
  if (r.client == nullptr) {
    report.add(Severity::Error, "BIND-ENDPOINTS", label,
               "client component '" + b.client.component + "' not found");
  }
  if (r.server == nullptr) {
    report.add(Severity::Error, "BIND-ENDPOINTS", label,
               "server component '" + b.server.component + "' not found");
  }
  if (r.client != nullptr) {
    r.client_if = r.client->find_interface(b.client.interface);
    if (r.client_if == nullptr) {
      report.add(Severity::Error, "BIND-ENDPOINTS", label,
                 "client interface '" + b.client.interface +
                     "' not declared on '" + b.client.component + "'");
    } else if (r.client_if->role != InterfaceRole::Client) {
      report.add(Severity::Error, "BIND-ENDPOINTS", label,
                 "interface '" + b.client.interface +
                     "' is not a client interface");
    }
  }
  if (r.server != nullptr) {
    r.server_if = r.server->find_interface(b.server.interface);
    if (r.server_if == nullptr) {
      report.add(Severity::Error, "BIND-ENDPOINTS", label,
                 "server interface '" + b.server.interface +
                     "' not declared on '" + b.server.component + "'");
    } else if (r.server_if->role != InterfaceRole::Server) {
      report.add(Severity::Error, "BIND-ENDPOINTS", label,
                 "interface '" + b.server.interface +
                     "' is not a server interface");
    }
  }
  if (r.client_if != nullptr && r.server_if != nullptr &&
      r.client_if->signature != r.server_if->signature) {
    report.add(Severity::Error, "BIND-ENDPOINTS", label,
               "signature mismatch: client requires '" +
                   r.client_if->signature + "', server provides '" +
                   r.server_if->signature + "'");
  }
  return r;
}

void check_bindings(const Architecture& arch, const ExecutionDomains& exec,
                    Report& report) {
  for (const Binding& b : arch.bindings()) {
    const std::string label = binding_label(b);
    const ResolvedBinding r = resolve(arch, b, report);
    if (r.client == nullptr || r.server == nullptr) continue;

    if (b.desc.protocol == Protocol::Asynchronous && b.desc.buffer_size == 0) {
      report.add(Severity::Error, "BIND-ASYNC-BUFFER", label,
                 "asynchronous binding needs a positive bufferSize");
    }

    const auto* client_area = arch.memory_area_of(*r.client);
    const auto* server_area = arch.memory_area_of(*r.server);
    const AreaRelation relation =
        relate_areas(arch, client_area, server_area);

    // Does any NHRT execute the client side?
    const bool client_no_heap = exec.on_nhrt(*r.client);
    const bool server_in_heap =
        server_area == nullptr || server_area->type() == AreaType::Heap;

    if (client_no_heap && server_in_heap &&
        b.desc.protocol == Protocol::Synchronous) {
      report.add(Severity::Error, "BIND-NHRT-HEAP-SYNC", label,
                 "synchronous call from an NHRT client into heap-allocated "
                 "server state would raise MemoryAccessError; use an "
                 "asynchronous binding staged outside the heap");
    }

    PatternQuery query;
    query.relation = relation;
    query.protocol = b.desc.protocol;
    query.client_no_heap = client_no_heap;
    query.server_in_heap = server_in_heap;
    query.common_scope_ancestor = false;
    if (client_area != nullptr && server_area != nullptr &&
        relation == AreaRelation::Disjoint) {
      // A shared outer scope enables the shared-scope pattern.
      const auto* a = design_parent_scope(arch, *client_area);
      const auto* bscope = design_parent_scope(arch, *server_area);
      query.common_scope_ancestor = (a != nullptr && a == bscope);
    }

    if (!b.desc.pattern.empty()) {
      if (!is_known_pattern(b.desc.pattern)) {
        report.add(Severity::Error, "BIND-PATTERN-KNOWN", label,
                   "unknown communication pattern '" + b.desc.pattern + "'");
      } else if (!pattern_applicable(b.desc.pattern, relation,
                                     b.desc.protocol)) {
        report.add(Severity::Error, "BIND-PATTERN-KNOWN", label,
                   "pattern '" + b.desc.pattern +
                       "' is not applicable to a " +
                       std::string(to_string(relation)) + " " +
                       model::to_string(b.desc.protocol) + " binding");
      }
    } else if (relation != AreaRelation::Same) {
      const std::string suggested = suggest_pattern(query);
      if (!suggested.empty()) {
        report.add(Severity::Info, "BIND-PATTERN-SUGGEST", label,
                   "crosses memory areas (" +
                       std::string(to_string(relation)) +
                       "); the framework will apply pattern '" + suggested +
                       "'");
      }
    }
  }
}

// ---- operational modes ----------------------------------------------------

/// Effective per-mode configuration of one managed component, for the
/// cross-mode difference check.
struct EffectiveModeConfig {
  bool present = false;
  rtsj::RelativeTime period{};
  std::optional<model::TimingContract> contract;
};

bool same_contract(const std::optional<model::TimingContract>& a,
                   const std::optional<model::TimingContract>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->wcet_budget == b->wcet_budget &&
         a->miss_ratio_bound == b->miss_ratio_bound &&
         a->max_arrival_rate_hz == b->max_arrival_rate_hz &&
         a->window == b->window;
}

EffectiveModeConfig effective_config(const model::ModeDecl& mode,
                                     const ActiveComponent& active) {
  EffectiveModeConfig out;
  const model::ModeComponentConfig* cfg = mode.find(active.name());
  if (cfg == nullptr) return out;
  out.present = true;
  out.period = cfg->period.is_zero() ? active.period() : cfg->period;
  out.contract =
      cfg->contract ? cfg->contract : active.timing_contract();
  return out;
}

/// Response-time analysis of one mode's enabled task set: managed
/// components absent from the mode contribute no load; rate overrides
/// replace the declared period. Mirrors sim::tasks_from_architecture's
/// extraction otherwise (unconstrained sporadics and cost-free components
/// are skipped — their interference is not analysable).
void check_mode_schedulable(const Architecture& arch,
                            const model::ModeDecl& mode, Report& report) {
  std::vector<sim::RtaTask> tasks;
  for (const auto* active : arch.all_of<ActiveComponent>()) {
    if (arch.mode_managed(active->name()) &&
        mode.find(active->name()) == nullptr) {
      continue;  // quiesced in this mode
    }
    const auto* domain = arch.thread_domain_of(*active);
    if (domain == nullptr) continue;
    const EffectiveModeConfig cfg = effective_config(mode, *active);
    const rtsj::RelativeTime period =
        cfg.present ? cfg.period : active->period();
    if (period <= rtsj::RelativeTime::zero()) continue;
    if (active->cost() <= rtsj::RelativeTime::zero()) continue;
    sim::RtaTask task;
    task.name = active->name();
    task.priority = domain->priority();
    task.period = period;
    task.cost = active->cost();
    tasks.push_back(std::move(task));
  }
  const sim::RtaResult result = sim::analyze(tasks);
  if (result.all_schedulable) return;
  for (const auto& entry : result.entries) {
    if (entry.schedulable) continue;
    std::ostringstream os;
    os << "task set of mode '" << mode.name
       << "' is not schedulable: response-time analysis finds no bound "
          "within the deadline for '"
       << entry.task.name << "' (period "
       << entry.task.period.to_micros() << "us, cost "
       << entry.task.cost.to_micros() << "us)";
    report.add(Severity::Error, "MODE-SCHEDULABLE", mode.name, os.str());
  }
}

void check_modes(const Architecture& arch, const ExecutionDomains& exec,
                 Report& report) {
  const auto& modes = arch.modes();
  if (modes.empty()) return;

  std::size_t degraded = 0;
  for (const auto& mode : modes) {
    if (mode.degraded && ++degraded > 1) {
      report.add(Severity::Error, "MODE-DEGRADED-UNIQUE", mode.name,
                 "more than one mode is flagged degraded; the overload "
                 "governor needs a single demotion target");
    }
  }

  for (const auto& mode : modes) {
    for (const auto& cfg : mode.components) {
      const Component* c = arch.find(cfg.component);
      if (c == nullptr || c->kind() != ComponentKind::Active) {
        report.add(Severity::Error, "MODE-COMPONENT-KNOWN", mode.name,
                   "mode lists '" + cfg.component +
                       "', which is not a declared active component");
      }
    }
    for (const auto& rebind : mode.rebinds) {
      const std::string subject =
          mode.name + ": " + rebind.client + "." + rebind.port + " -> " +
          rebind.server;
      const Component* client = arch.find(rebind.client);
      const Component* server = arch.find(rebind.server);
      if (client == nullptr || server == nullptr) {
        report.add(Severity::Error, "MODE-COMPONENT-KNOWN", subject,
                   "rebind endpoint is not a declared component");
        continue;
      }
      const InterfaceDecl* port = client->find_interface(rebind.port);
      if (port == nullptr || port->role != InterfaceRole::Client) {
        report.add(Severity::Error, "MODE-COMPONENT-KNOWN", subject,
                   "rebind names no client port '" + rebind.port +
                       "' on '" + rebind.client + "'");
      }
      if (!client->swappable()) {
        report.add(Severity::Error, "MODE-SWAPPABLE", rebind.client,
                   "mode '" + mode.name + "' rebinds port '" + rebind.port +
                       "' of a component not declared swappable");
      }
      if (port == nullptr) continue;
      // The rebind must be as legal as a declared binding: the server
      // provides the port's signature, and an RTSJ-legal communication
      // pattern exists — catching at design time what would otherwise
      // abort the transition at runtime.
      const InterfaceDecl* provided = nullptr;
      for (const auto& itf : server->interfaces()) {
        if (itf.role == InterfaceRole::Server &&
            itf.signature == port->signature) {
          provided = &itf;
        }
      }
      if (provided == nullptr) {
        report.add(Severity::Error, "MODE-REBIND-LEGAL", subject,
                   "rebind server provides no interface with signature '" +
                       port->signature + "'");
        continue;
      }
      // The rebind inherits the *declared* binding's protocol for the
      // port: synchronous ports re-route invocations, asynchronous ports
      // re-target their buffer through the AsyncSkeleton — so an async
      // rebind additionally needs an active server (activation entry).
      Protocol protocol = Protocol::Synchronous;
      for (const auto& binding : arch.bindings()) {
        if (binding.client.component == rebind.client &&
            binding.client.interface == rebind.port) {
          protocol = binding.desc.protocol;
        }
      }
      if (protocol == Protocol::Asynchronous &&
          server->kind() != ComponentKind::Active) {
        report.add(Severity::Error, "MODE-REBIND-LEGAL", subject,
                   "asynchronous rebind server is not an active component "
                   "(no activation entry)");
        continue;
      }
      model::Binding hypothetical;
      hypothetical.client = {rebind.client, rebind.port};
      hypothetical.server = {rebind.server, provided->name};
      hypothetical.desc.protocol = protocol;
      if (resolve_binding_pattern(arch, exec, hypothetical).empty()) {
        report.add(Severity::Error, "MODE-REBIND-LEGAL", subject,
                   "no RTSJ-legal pattern exists for the rebind "
                   "(synchronous NHRT client into heap state?)");
      }
    }
  }

  // Components whose effective configuration differs between any two modes
  // are touched by transitions and must be declared swappable.
  for (const auto* active : arch.all_of<ActiveComponent>()) {
    if (!arch.mode_managed(active->name()) || active->swappable()) continue;
    const EffectiveModeConfig first = effective_config(modes[0], *active);
    for (std::size_t i = 1; i < modes.size(); ++i) {
      const EffectiveModeConfig other = effective_config(modes[i], *active);
      if (other.present == first.present && other.period == first.period &&
          same_contract(other.contract, first.contract)) {
        continue;
      }
      report.add(Severity::Error, "MODE-SWAPPABLE", active->name(),
                 "configuration differs between modes '" + modes[0].name +
                     "' and '" + modes[i].name +
                     "' but the component is not declared swappable");
      break;
    }
  }

  for (const auto& mode : modes) check_mode_schedulable(arch, mode, report);
}

/// Inserts every ThreadDomain enclosing `c` (direct or transitive super).
void insert_enclosing_domains(const Component& c,
                              std::set<const ThreadDomain*>& out) {
  for (const Component* super : c.supers()) {
    if (const auto* domain = dynamic_cast<const ThreadDomain*>(super)) {
      out.insert(domain);
    }
    insert_enclosing_domains(*super, out);
  }
}

}  // namespace

ExecutionDomains::ExecutionDomains(const Architecture& arch) {
  // Fixpoint: active components execute in their own domain; passive
  // components execute in the domains of their synchronous callers.
  std::unordered_map<const Component*, std::set<const ThreadDomain*>> sets;
  std::unordered_map<std::string_view, const Component*> by_name;
  for (const auto& owned : arch.components()) {
    by_name.emplace(owned->name(), owned.get());
    if (owned->kind() == ComponentKind::Active) {
      insert_enclosing_domains(*owned, sets[owned.get()]);
    }
  }
  const auto find = [&](const std::string& name) -> const Component* {
    const auto it = by_name.find(name);
    return it == by_name.end() ? nullptr : it->second;
  };
  // The edges the fixpoint propagates along, endpoints resolved once:
  // synchronous bindings into passive servers.
  std::vector<std::pair<const Component*, const Component*>> edges;
  for (const Binding& b : arch.bindings()) {
    if (b.desc.protocol != Protocol::Synchronous) continue;
    const Component* client = find(b.client.component);
    const Component* server = find(b.server.component);
    if (client == nullptr || server == nullptr || client == server) continue;
    if (server->kind() != ComponentKind::Passive) continue;
    edges.emplace_back(client, server);
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [client, server] : edges) {
      const auto from = sets.find(client);
      if (from == sets.end()) continue;
      // References into an unordered_map survive the insertion below.
      const std::set<const ThreadDomain*>& caller = from->second;
      std::set<const ThreadDomain*>& callee = sets[server];
      for (const auto* d : caller) {
        if (callee.insert(d).second) changed = true;
      }
    }
  }
  for (const auto& [component, set] : sets) {
    domains_.emplace(component,
                     std::vector<const ThreadDomain*>(set.begin(), set.end()));
  }
}

const std::vector<const ThreadDomain*>& ExecutionDomains::of(
    const Component& component) const {
  static const std::vector<const ThreadDomain*> kNone;
  const auto it = domains_.find(&component);
  return it == domains_.end() ? kNone : it->second;
}

bool ExecutionDomains::on_nhrt(const Component& component) const {
  for (const auto* domain : of(component)) {
    if (domain->type() == DomainType::NoHeapRealtime) return true;
  }
  return false;
}

Report validate(const Architecture& arch) {
  const ExecutionDomains exec(arch);
  Report report;
  check_active_components(arch, report);
  check_thread_domains(arch, report);
  check_non_functional_interfaces(arch, report);
  check_memory_areas(arch, report);
  check_bindings(arch, exec, report);
  check_modes(arch, exec, report);
  return report;
}

}  // namespace rtcf::validate
