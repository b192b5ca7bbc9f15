// Multi-tenant scaling: what tenancy costs as tenants accumulate.
//
// Three axes, each swept over 1..16 resident tenants (one slice each —
// a periodic component in its own RT domain and heap area, capability
// routes between neighbouring tenants):
//
//   admit_us        full AdmissionController::admit() of one candidate
//                   against N residents: compose, full rule engine,
//                   composed RTA, TENANT-* rules, reload synthesis; the
//                   mean per decision of the fastest of kAdmitBatches
//                   batches of `iterations` decisions
//   validate_us     validate_tenancy() alone over the resident snapshot
//   admit_gate_ns   the governor hot path (admit_release) with one
//                   envelope per tenant — the per-release cost a tenant
//                   boundary adds inside the executive
//
// Emits the same JSON shape as the fig7 harness:
//   {"bench": "tenant_scaling", "rows": [{"name": "tenants=1", ...}]}
//
// Growth gate: exits 1 when admit_us at 16 tenants exceeds
// kMaxAdmitGrowth times admit_us at 8 tenants. Both figures come from the
// same run, so the host's speed cancels out of the ratio.
//
//   ./bench_tenant_scaling [iterations]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fig7_harness.hpp"
#include "model/metamodel.hpp"
#include "monitor/governor.hpp"
#include "runtime/content_registry.hpp"
#include "soleil/plan.hpp"
#include "tenant/admission.hpp"
#include "util/table.hpp"
#include "validate/tenancy.hpp"

namespace {

using namespace rtcf;
using model::Architecture;
using model::TenantDecl;

// Admission's DELTA-CONTENT-UNKNOWN gate needs a hot-registrable content
// class for the candidate's components.
class TenantBenchTaskImpl final : public comm::Content {
 public:
  void on_release() override {}
};
RTCF_REGISTER_CONTENT(TenantBenchTaskImpl)

/// One self-contained tenant slice; neighbouring slices are bound through
/// a declared capability route so the capability-routing rule has real
/// cross-tenant edges to walk at every scale.
void add_slice(Architecture& arch, std::size_t index) {
  const std::string prefix = "t" + std::to_string(index);
  auto& comp = arch.add_active(prefix + ".Task",
                               model::ActivationKind::Periodic,
                               rtsj::RelativeTime::milliseconds(20));
  comp.set_cost(rtsj::RelativeTime::microseconds(200));
  comp.set_criticality(model::Criticality::Low);
  comp.set_content_class("TenantBenchTaskImpl");
  comp.set_swappable(true);
  comp.add_interface({"out", model::InterfaceRole::Client, "IChain"});
  comp.add_interface({"in", model::InterfaceRole::Server, "IChain"});
  auto& domain = arch.add_thread_domain(
      prefix + ".RT", model::DomainType::Realtime,
      static_cast<int>(11 + index % 17));  // RT band is [11, 38]
  auto& area =
      arch.add_memory_area(prefix + ".Area", model::AreaType::Heap, 0);
  arch.add_child(area, domain);
  arch.add_child(domain, comp);

  TenantDecl tenant;
  tenant.name = prefix;
  tenant.budget.cpu_utilization = 0.05;
  tenant.members.push_back(prefix + ".Task");
  tenant.exports.push_back({prefix + ".feed", prefix + ".Task", "in"});
  arch.add_tenant(std::move(tenant));

  if (index == 0) return;
  // Chain: tN calls into tN-1 through the exported capability.
  const std::string prev = "t" + std::to_string(index - 1);
  model::Binding binding;
  binding.client = {prefix + ".Task", "out"};
  binding.server = {prev + ".Task", "in"};
  binding.desc.protocol = model::Protocol::Asynchronous;
  binding.desc.buffer_size = 4;
  arch.add_binding(binding);
  const_cast<TenantDecl&>(*arch.find_tenant(prefix))
      .imports.push_back({prev + ".feed", prev});
}

Architecture make_residents(std::size_t tenants) {
  Architecture arch;
  for (std::size_t i = 0; i < tenants; ++i) add_slice(arch, i);
  return arch;
}

/// Batches timed per admit_us figure; the fastest counts, so one
/// preemption of the bench process does not trip the growth gate.
constexpr int kAdmitBatches = 5;
/// Largest admit_us(16) / admit_us(8) the growth gate accepts.
constexpr double kMaxAdmitGrowth = 3.0;

double elapsed_us(std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point stop,
                  std::size_t iterations) {
  return std::chrono::duration<double, std::micro>(stop - start).count() /
         static_cast<double>(iterations);
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t iterations = 20;
  if (argc > 1) {
    const long v = std::atol(argv[1]);
    if (v <= 0) {
      std::fprintf(stderr, "usage: %s [iterations > 0]\n", argv[0]);
      return 2;
    }
    iterations = static_cast<std::size_t>(v);
  }

  std::printf("== tenant scaling: admission + validation + gate cost, %zu "
              "iteration(s) per row ==\n\n",
              iterations);
  util::Table table({"Tenants", "Components", "Admit (us)", "Validate (us)",
                     "Gate (ns)", "Accepted"});
  std::vector<bench::JsonRow> rows;

  const std::size_t kTenantCounts[] = {1, 2, 4, 8, 16};
  double admit_us_8 = 0.0;
  double admit_us_16 = 0.0;
  for (const std::size_t tenants : kTenantCounts) {
    const Architecture resident = make_residents(tenants);
    const model::AssemblyPlan running =
        soleil::snapshot_assembly(resident, /*partitions=*/1);

    // Candidate: one more slice, chained onto the last resident.
    Architecture candidate;
    add_slice(candidate, tenants);
    // The chain binding targets a resident component the slice alone does
    // not declare; admission composes it against the residents.

    const tenant::AdmissionController controller;
    // A rejected candidate would time a different (short-circuited) code
    // path; surface the reasons instead of benching the wrong thing.
    {
      const auto probe = controller.admit(running, resident, candidate);
      if (!probe.accepted) {
        std::fprintf(stderr, "tenants=%zu: candidate rejected:\n%s\n",
                     tenants, probe.report.to_string().c_str());
      }
    }
    bool accepted = true;
    double admit_us = 0.0;
    for (int batch = 0; batch < kAdmitBatches; ++batch) {
      const auto admit_start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < iterations; ++i) {
        const auto decision = controller.admit(running, resident, candidate);
        accepted = accepted && decision.accepted;
      }
      const auto admit_stop = std::chrono::steady_clock::now();
      const double us = elapsed_us(admit_start, admit_stop, iterations);
      admit_us = batch == 0 ? us : std::min(admit_us, us);
    }
    if (tenants == 8) admit_us_8 = admit_us;
    if (tenants == 16) admit_us_16 = admit_us;

    const auto validate_start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iterations; ++i) {
      (void)validate::validate_tenancy(running);
    }
    const auto validate_stop = std::chrono::steady_clock::now();

    // Hot path: one governed component per tenant, round-robin releases.
    monitor::OverloadGovernor governor;
    std::vector<std::size_t> gov_ids;
    for (std::size_t t = 0; t < tenants; ++t) {
      const auto id = governor.add_tenant(
          running.tenants()[t].name.c_str(), model::Criticality::Low);
      gov_ids.push_back(governor.add_component(
          running.tenants()[t].components.front().c_str(),
          model::Criticality::Low, id));
    }
    constexpr std::size_t kReleases = 200000;
    std::uint64_t admitted = 0;
    const auto gate_start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kReleases; ++i) {
      admitted += governor.admit_release(gov_ids[i % gov_ids.size()]) ==
                  monitor::OverloadGovernor::Admission::Run;
    }
    const auto gate_stop = std::chrono::steady_clock::now();

    const double validate_us =
        elapsed_us(validate_start, validate_stop, iterations);
    const double gate_ns =
        elapsed_us(gate_start, gate_stop, kReleases) * 1e3;

    table.add_row({std::to_string(tenants),
                   std::to_string(running.components().size()),
                   util::Table::num(admit_us, 1),
                   util::Table::num(validate_us, 1),
                   util::Table::num(gate_ns, 1),
                   accepted ? "yes" : "no"});
    bench::JsonRow row;
    row.name = "tenants=" + std::to_string(tenants);
    row.metrics = {
        {"tenants", static_cast<double>(tenants)},
        {"components", static_cast<double>(running.components().size())},
        {"admit_us", admit_us},
        {"validate_us", validate_us},
        {"admit_gate_ns", gate_ns},
        {"accepted", accepted ? 1.0 : 0.0},
        {"admitted_releases", static_cast<double>(admitted)},
    };
    rows.push_back(std::move(row));
  }

  std::printf("%s\n", table.to_string().c_str());
  const double growth = admit_us_16 / admit_us_8;
  const bool growth_ok = growth <= kMaxAdmitGrowth;
  std::printf("admission growth 8 -> 16 tenants: %.2fx (gate: <= %.1fx) "
              "%s\n\n",
              growth, kMaxAdmitGrowth, growth_ok ? "ok" : "FAILED");
  std::printf("JSON:\n");
  bench::emit_json("tenant_scaling", rows);
  return growth_ok ? 0 : 1;
}
