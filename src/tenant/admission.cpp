#include "tenant/admission.hpp"

#include <sstream>
#include <utility>

#include "sim/rta.hpp"
#include "soleil/plan.hpp"
#include "tenant/compose.hpp"
#include "validate/tenancy.hpp"
#include "validate/validator.hpp"

namespace rtcf::tenant {

using model::Architecture;
using model::AssemblyPlan;
using validate::Report;
using validate::Severity;

namespace {

/// Folds `from` into `into`, preserving severity and order.
void append_report(Report& into, const Report& from) {
  for (const auto& d : from.diagnostics()) {
    into.add(d.severity, d.rule, d.subject, d.message);
  }
}

/// Whole-assembly RTA for compositions that declare no modes (the
/// validator's MODE-SCHEDULABLE covers the mode-declaring case per mode).
void check_composed_rta(const Architecture& merged, Report& report) {
  const auto tasks = sim::tasks_from_architecture(merged);
  const sim::RtaResult result = sim::analyze(tasks);
  if (result.all_schedulable) return;
  for (const auto& entry : result.entries) {
    if (entry.schedulable) continue;
    std::ostringstream os;
    os << "composed task set is not schedulable: response-time analysis "
          "finds no bound within the deadline for '"
       << entry.task.name << "' (period " << entry.task.period.to_micros()
       << "us, cost " << entry.task.cost.to_micros() << "us)";
    report.add(Severity::Error, "TENANT-ADMIT-RTA", entry.task.name,
               os.str());
  }
}

}  // namespace

const AdmissionReason* AdmissionDecision::reason_for(
    const std::string& rule) const noexcept {
  for (const auto& r : reasons) {
    if (r.rule == rule) return &r;
  }
  return nullptr;
}

AdmissionDecision AdmissionController::admit(
    const AssemblyPlan& running, const Architecture& resident,
    const Architecture& candidate) const {
  AdmissionDecision decision;
  for (const auto& tenant : candidate.tenants()) {
    decision.candidate_tenants.push_back(tenant.name);
  }

  // 1. Compose: residents + candidate as one assembly. Name collisions
  //    are already grounds for rejection.
  Report compose_report;
  Architecture merged =
      merge_architectures(resident, candidate, compose_report);
  append_report(decision.report, compose_report);

  // 2. Full rule engine on the composition (RTSJ rules, pattern legality,
  //    per-mode RTA via MODE-SCHEDULABLE) plus the modeless composed-RTA
  //    gate, plus the TENANT-* isolation rules over the snapshot. The
  //    composition is validated and snapshotted here, once per decision;
  //    step 4 reuses both.
  AssemblyPlan composed;
  if (compose_report.ok()) {
    append_report(decision.report, validate::validate(merged));
    if (merged.modes().empty()) {
      check_composed_rta(merged, decision.report);
    }
    composed = soleil::snapshot_assembly(merged, running.partition_count());
    append_report(decision.report, validate::validate_tenancy(composed));
  }

  // 3. Per-mode RTA verdicts for the decision record (schedulable modes
  //    are listed too — the caller sees what was proven, not only what
  //    failed).
  if (merged.modes().empty()) {
    decision.rta.push_back(
        {std::string(), !decision.report.has_rule("TENANT-ADMIT-RTA")});
  } else {
    for (const auto& mode : merged.modes()) {
      bool schedulable = true;
      for (const auto& d :
           decision.report.by_rule("MODE-SCHEDULABLE")) {
        if (d.subject == mode.name) schedulable = false;
      }
      decision.rta.push_back({mode.name, schedulable});
    }
  }

  // 4. Synthesize the transition running -> composed through the reload
  //    pipeline's placement, diff and DELTA-* steps (migration-constrained
  //    placement of the snapshot from step 2), only when the composition
  //    itself is sound. The reload's report carries every diagnostic of
  //    the decision, each once.
  if (decision.report.ok()) {
    decision.reload = reconfig::stage_reload(running, merged,
                                             std::move(composed),
                                             std::move(decision.report));
    decision.report = decision.reload.report;
  }

  decision.accepted = decision.report.ok();
  if (decision.accepted) return decision;

  // 5. Machine-readable rejection: every error becomes a reason carrying
  //    the owning tenant and its ADL line, so a caller (or an operator
  //    console) can point back into the candidate's source.
  const AssemblyPlan* target =
      decision.reload.target.components().empty() ? nullptr
                                                  : &decision.reload.target;
  for (const auto& d : decision.report.diagnostics()) {
    if (d.severity != Severity::Error) continue;
    AdmissionReason reason;
    reason.rule = d.rule;
    reason.subject = d.subject;
    reason.message = d.message;
    const model::TenantDecl* owner = merged.find_tenant(d.subject);
    if (owner == nullptr) owner = merged.tenant_of(d.subject);
    if (owner != nullptr) {
      reason.tenant = owner->name;
      reason.adl_line = owner->adl_line;
    } else if (target != nullptr) {
      if (const auto* spec = target->tenant_of(d.subject)) {
        reason.tenant = spec->name;
        reason.adl_line = spec->adl_line;
      }
    }
    decision.reasons.push_back(std::move(reason));
  }
  return decision;
}

}  // namespace rtcf::tenant
