// The plan-delta engine: live ADL reload as a synthesized transition.
//
// diff_plans() compares the running assembly's immutable AssemblyPlan
// snapshot against a freshly loaded <Architecture> and synthesizes the
// structural transition between them: components to add and remove, client
// ports to rebind (synchronous and asynchronous), release-rate and contract
// changes. plan_reload() wraps the diff in the full safety pipeline the
// paper's design flow prescribes for *declared* architectures, applied to
// the *delta*:
//
//   1. the target architecture passes the complete rule engine
//      (validate::validate — RTA, pattern, area and mode rules run against
//      the target plan, not the running one);
//   2. the target snapshot is partitioned under the live-migration
//      constraint: surviving components keep their executive partitions
//      (threads never migrate), added components are co-located with their
//      synchronous cluster, else with an asynchronous peer when legal, else
//      placed on the least-loaded partition;
//   3. DELTA-* rules check what only the transition can violate: removals
//      of non-swappable components, unregistered content classes, unknown
//      scoped areas, protocol flips, async servers without an activation
//      entry; REBIND-CROSS-PARTITION reports rebinds the placement could
//      not co-locate.
//
// The resulting ReloadPlan is what ModeManager::request_reload() stages and
// applies at the executive's quiescence rendezvous.
//
// Rule identifiers (stable, used by tests and tools):
//   DELTA-COMPONENT-SHAPE    a surviving component may not change its kind,
//                            activation, content class, interfaces, or
//                            deployment across a reload
//   DELTA-REMOVE-SWAPPABLE   removed components must be declared swappable
//   DELTA-SETTING-SWAPPABLE  rate/contract changes need swappable
//   DELTA-REBIND-SWAPPABLE   rebinding a client port needs swappable
//   DELTA-CONTENT-UNKNOWN    added component's content class is not
//                            registered (hot registration required first)
//   DELTA-AREA-UNKNOWN       added component / binding placement names a
//                            scoped area the running assembly does not have
//   DELTA-PROTOCOL-CHANGE    a binding may not flip sync<->async live
//   DELTA-ASYNC-SERVER       asynchronous bindings need an active server
//   DELTA-PORT-UNBOUND       (warning) a surviving client port loses its
//                            binding
//   DELTA-ASYNC-RETARGET     (info) an async rebind will drain-then-swap
//                            its buffer through the AsyncSkeleton
//   REBIND-CROSS-PARTITION   (warning) a synthesized rebind crosses
//                            executive partitions after placement
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "model/assembly_plan.hpp"
#include "validate/report.hpp"

namespace rtcf::model {
class Architecture;
}

namespace rtcf::reconfig {

/// One client-port re-target synthesized by the diff.
struct RebindDelta {
  /// The client end being re-targeted.
  model::BindingEnd client;
  /// Server the port pointed at in the running assembly.
  std::string old_server;
  /// Server the port points at after the transition.
  std::string new_server;
  /// Protocol of the (unchanged) binding.
  model::Protocol protocol = model::Protocol::Synchronous;
  /// The target plan's full resolution for the new wiring (pattern, area
  /// placement, buffer size, cross-partition flag).
  model::BindingSpec target;
};

/// Release-rate / contract change of a surviving component.
struct SettingDelta {
  /// The surviving component concerned.
  std::string component;
  /// True when the release rate changed.
  bool period_changed = false;
  /// The new release rate (valid when period_changed).
  rtsj::RelativeTime new_period{};
  /// True when the timing contract changed.
  bool contract_changed = false;
  /// The new contract; nullopt drops contract monitoring.
  std::optional<model::TimingContract> contract;
};

/// The synthesized transition between two assembly snapshots.
struct PlanDelta {
  /// Components to instantiate (specs captured by value from the target).
  std::vector<model::ComponentSpec> add_components;
  /// Components to drain, stop, and retire.
  std::vector<model::ComponentSpec> remove_components;
  /// Bindings whose client end is new (added component, or a previously
  /// unbound port of a survivor).
  std::vector<model::BindingSpec> add_bindings;
  /// Client ends of survivors whose binding disappears entirely.
  std::vector<model::BindingEnd> remove_bindings;
  /// Client-port re-targets between surviving or added servers.
  std::vector<RebindDelta> rebinds;
  /// Release-rate / contract changes of surviving components.
  std::vector<SettingDelta> settings;
  /// Client ends whose protocol differs between the plans (always an
  /// error; kept here so the validator can name them).
  std::vector<model::BindingEnd> protocol_changes;

  bool empty() const noexcept;
  /// One-line human-readable shape, e.g. "+2 -1 ~1 rebinds:1".
  std::string summary() const;
};

/// Pure diff of two snapshots (no validation, no placement).
PlanDelta diff_plans(const model::AssemblyPlan& running,
                     const model::AssemblyPlan& target);

/// Runs the DELTA-* rules (and REBIND-CROSS-PARTITION) of a synthesized
/// transition against the running and *placed* target snapshots, appending
/// to `report`. This is step 4 of plan_reload(), exposed on its own for
/// the distributed path: the coordinator validates the global target
/// architecture once, and every node re-validates only its received slice
/// delta with exactly this rule set before voting PREPARE_OK.
void check_delta_rules(const PlanDelta& delta,
                       const model::AssemblyPlan& running,
                       const model::AssemblyPlan& target,
                       validate::Report& report);

/// A staged reload: the delta, the placed target snapshot, and the
/// combined validation report.
struct ReloadPlan {
  /// The synthesized transition.
  PlanDelta delta;
  /// The placed target snapshot the transition commits to.
  model::AssemblyPlan target;
  /// Combined diagnostics (target rules + DELTA-* rules).
  validate::Report report;
  /// True when the report carries no errors.
  bool ok() const noexcept { return report.ok(); }
};

/// Plans a live reload of `target_arch` against the running snapshot: full
/// target validation, migration-constrained placement, diff, delta rules.
/// The target architecture is only read — it may be discarded afterwards;
/// everything the transition needs is captured by value in the ReloadPlan.
ReloadPlan plan_reload(const model::AssemblyPlan& running,
                       const model::Architecture& target_arch);

/// plan_reload() minus its first step, for a caller that has already
/// validated `target_arch` and snapshotted it (soleil::snapshot_assembly
/// with the running partition count): places `target`, diffs it against
/// `running`, and appends the DELTA-* rules to `report`, the diagnostics
/// the target drew so far. Admission control composes, validates and
/// snapshots the composed assembly once and hands both over here.
ReloadPlan stage_reload(const model::AssemblyPlan& running,
                        const model::Architecture& target_arch,
                        model::AssemblyPlan target, validate::Report report);

}  // namespace rtcf::reconfig
