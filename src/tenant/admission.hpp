// RTA-gated admission control for multi-tenant assemblies.
//
// A candidate tenant slice may join a live cluster only if the *composed*
// assembly — every resident tenant plus the candidate — passes the full
// rule engine, the TENANT-* isolation rules, and response-time analysis in
// every operational mode. Admission therefore can never harm a resident
// tenant's deadlines: the schedulability proof covers residents and
// candidate together, before anything changes.
//
// admit() is pure: it composes, validates, analyses, and synthesizes the
// transition (a reconfig::ReloadPlan from reconfig::stage_reload, fed the
// composed snapshot admission already built — the composition is
// validated and snapshotted once per decision), but applies nothing. An
// accepted decision carries the PlanDelta the caller hands to
// ModeManager::request_reload() or the two-phase distributed coordinator;
// a rejected decision carries machine-readable reasons (stable rule id,
// subject, owning tenant, ADL line) and leaves the running plan epoch
// untouched by construction.
//
// Rule identifiers added by admission itself:
//   TENANT-ADMIT-RTA   the composed task set (no modes declared) fails
//                      response-time analysis; the diagnostic names the
//                      first task whose bound diverges. Mode-declaring
//                      assemblies get the same gate per mode via the
//                      validator's MODE-SCHEDULABLE rule.
#pragma once

#include <string>
#include <vector>

#include "model/assembly_plan.hpp"
#include "model/metamodel.hpp"
#include "reconfig/plan_delta.hpp"
#include "validate/report.hpp"

namespace rtcf::tenant {

/// One machine-readable rejection reason: the stable rule id, the element
/// it fired on, the tenant it concerns (empty for assembly-wide findings),
/// and the tenant's ADL source line when known.
struct AdmissionReason {
  /// Stable rule id (TENANT-*, MODE-SCHEDULABLE, DELTA-*, ...).
  std::string rule;
  /// Offending element (component, binding, tenant, or mode name).
  std::string subject;
  /// Owning tenant of the subject, when resolvable.
  std::string tenant;
  /// 1-based ADL line of the owning tenant's declaration; 0 when unknown.
  int adl_line = 0;
  /// Human-readable detail (already carries the line context).
  std::string message;
};

/// Schedulability verdict of one operational mode of the composed
/// assembly (mode is empty for the modeless whole-assembly analysis).
struct ModeRta {
  /// Mode name; empty for the modeless composed task set.
  std::string mode;
  /// True when response-time analysis bounds every task in the mode.
  bool schedulable = true;
};

/// Outcome of one admission request.
struct AdmissionDecision {
  /// True when the candidate may join; the reload below is then valid.
  bool accepted = false;
  /// Names of the tenants the candidate slice declares.
  std::vector<std::string> candidate_tenants;
  /// Machine-readable rejection reasons (empty when accepted).
  std::vector<AdmissionReason> reasons;
  /// Per-mode composed-RTA verdicts.
  std::vector<ModeRta> rta;
  /// Full diagnostics of the composition + validation + delta pipeline.
  validate::Report report;
  /// The staged transition onto the composed assembly (valid when
  /// accepted): delta + placed target snapshot, ready for
  /// ModeManager::request_reload or the distributed coordinator.
  reconfig::ReloadPlan reload;

  /// The first reason carrying `rule`, or nullptr.
  const AdmissionReason* reason_for(const std::string& rule) const noexcept;
};

/// The admission gate. Stateless: every admit() call is an independent
/// judgement of candidate-composed-with-residents.
class AdmissionController {
 public:
  /// Judges `candidate` (a tenant slice architecture) against the
  /// residents (`resident` architecture, whose running snapshot is
  /// `running`). On acceptance the decision's reload carries the
  /// PlanDelta from `running` to the composed assembly; on rejection the
  /// reasons list every rule the composition violates.
  AdmissionDecision admit(const model::AssemblyPlan& running,
                          const model::Architecture& resident,
                          const model::Architecture& candidate) const;
};

}  // namespace rtcf::tenant
