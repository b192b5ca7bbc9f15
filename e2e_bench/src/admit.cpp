// Workload `admit` (closed loop, one thread): a seeded sequence of tenant
// candidates grows a resident assembly to ~32 tenants; timed passes replay
// the whole sequence, one AdmissionController::admit() decision per
// candidate against the residents admitted before it. Every fourth
// candidate is rejectable by construction — over its CPU budget, or
// binding a resident's capability without importing it — and the
// generator records the verdict and rule id each decision must produce.
//
// Admission is the superlinear hot spot of the tenancy layer and uses no
// dist or comm code, so data-path changes must leave this workload still.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "model/metamodel.hpp"
#include "runtime/content_registry.hpp"
#include "sim/rta.hpp"
#include "soleil/plan.hpp"
#include "tenant/admission.hpp"
#include "tenant/compose.hpp"
#include "trace.hpp"
#include "validate/tenancy.hpp"
#include "validate/validator.hpp"

namespace e2e {
namespace {

using namespace rtcf;

constexpr std::size_t kTargetTenants = 32;
constexpr int kSetups = 8;  // set-ups per run; setup_s is the fastest

class E2eTenantTask final : public comm::Content {
 public:
  void on_release() override {}
};

}  // namespace

// Admission's DELTA-CONTENT-UNKNOWN gate needs the class registered.
RTCF_REGISTER_CONTENT(E2eTenantTask)

namespace {

enum class Flaw { None, OverBudget, MissingImport };

struct Candidate {
  std::unique_ptr<model::Architecture> arch;
  Flaw flaw = Flaw::None;
  std::string expected_rule;  ///< Empty when it must be accepted.
};

/// One admission step: the residents the candidate is judged against.
struct Step {
  const model::Architecture* resident = nullptr;
  const model::AssemblyPlan* running = nullptr;
  const Candidate* candidate = nullptr;
};

/// The seeded inputs: candidates plus the resident state before each.
struct Inputs {
  std::vector<Candidate> candidates;
  std::vector<std::unique_ptr<model::Architecture>> residents;
  std::vector<std::unique_ptr<model::AssemblyPlan>> plans;
  std::vector<Step> steps;
};

/// A tenant slice: one periodic task in its own RT domain and heap area,
/// exporting capability "<name>.feed"; when `server` is non-empty it calls
/// into that resident tenant's task through its exported capability.
std::unique_ptr<model::Architecture> make_slice(const std::string& name,
                                                int priority, int cost_us,
                                                double budget,
                                                const std::string& server,
                                                bool import_server) {
  auto arch = std::make_unique<model::Architecture>();
  auto& comp = arch->add_active(name + ".Task", model::ActivationKind::Periodic,
                                rtsj::RelativeTime::milliseconds(20));
  comp.set_cost(rtsj::RelativeTime::microseconds(cost_us));
  comp.set_criticality(model::Criticality::Low);
  comp.set_content_class("E2eTenantTask");
  comp.set_swappable(true);
  comp.add_interface({"out", model::InterfaceRole::Client, "IChain"});
  comp.add_interface({"in", model::InterfaceRole::Server, "IChain"});
  auto& domain = arch->add_thread_domain(name + ".RT",
                                         model::DomainType::Realtime, priority);
  auto& area =
      arch->add_memory_area(name + ".Area", model::AreaType::Heap, 0);
  arch->add_child(area, domain);
  arch->add_child(domain, comp);
  model::TenantDecl tenant;
  tenant.name = name;
  tenant.budget.cpu_utilization = budget;
  tenant.members.push_back(name + ".Task");
  tenant.exports.push_back({name + ".feed", name + ".Task", "in"});
  if (!server.empty()) {
    model::Binding binding;
    binding.client = {name + ".Task", "out"};
    binding.server = {server + ".Task", "in"};
    binding.desc.protocol = model::Protocol::Asynchronous;
    binding.desc.buffer_size = 4;
    arch->add_binding(binding);
    if (import_server) tenant.imports.push_back({server + ".feed", server});
  }
  arch->add_tenant(std::move(tenant));
  return arch;
}

/// Generates the candidate sequence and grows the residents through it
/// (the set-up pass). Residents grow by what admission accepted; the
/// timed passes check each verdict against the generator's expectation.
Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  SplitMix rng(seed * 0x9E3779B97F4A7C15ull + 3);
  std::vector<std::string> admitted;
  in.residents.push_back(std::make_unique<model::Architecture>());
  in.plans.push_back(std::make_unique<model::AssemblyPlan>(
      soleil::snapshot_assembly(*in.residents.back(), 1)));
  const tenant::AdmissionController controller;
  for (std::size_t i = 0; admitted.size() < kTargetTenants; ++i) {
    Candidate c;
    const std::string name = "t" + std::to_string(i);
    const int cost_us = 150 + static_cast<int>(rng.below(101));
    const double need = cost_us / 20000.0;
    // Every fourth candidate is rejectable, so every seed judges the same
    // mix of resident sizes; which flaw, the costs, priorities and call
    // targets come from the seed.
    const bool flawed = i % 4 == 3;
    c.flaw = !flawed                                 ? Flaw::None
             : rng.below(2) == 0 || admitted.empty() ? Flaw::OverBudget
                                                     : Flaw::MissingImport;
    const std::string server =
        admitted.empty() ? std::string()
                         : admitted[rng.below(admitted.size())];
    const double budget = c.flaw == Flaw::OverBudget ? need * 0.5 : need * 4;
    c.arch = make_slice(name, 11 + static_cast<int>(rng.below(28)), cost_us,
                        budget, server, c.flaw != Flaw::MissingImport);
    c.expected_rule = c.flaw == Flaw::OverBudget      ? "TENANT-BUDGET-BOUNDS"
                      : c.flaw == Flaw::MissingImport ? "TENANT-CAPABILITY-ROUTED"
                                                      : "";
    if (c.flaw == Flaw::None) admitted.push_back(name);
    in.candidates.push_back(std::move(c));
  }
  // Steps reference the candidates by address: fill them once the vector
  // no longer grows.
  for (const Candidate& c : in.candidates) {
    in.steps.push_back({in.residents.back().get(), in.plans.back().get(), &c});
    const auto decision = controller.admit(*in.plans.back(),
                                           *in.residents.back(), *c.arch);
    if (decision.accepted) {
      validate::Report report;
      in.residents.push_back(std::make_unique<model::Architecture>(
          tenant::merge_architectures(*in.residents.back(), *c.arch, report)));
      in.plans.push_back(
          std::make_unique<model::AssemblyPlan>(decision.reload.target));
    }
  }
  return in;
}

/// Compares one decision with what the generator built; returns false on
/// a mismatch (recorded as a violation).
bool check(const tenant::AdmissionDecision& d, const Candidate& c,
           std::size_t index, Report& r) {
  const bool want_accept = c.expected_rule.empty();
  std::string why;
  if (d.accepted != want_accept) {
    why = want_accept ? "rejected" : "accepted";
  } else if (!want_accept) {
    for (const auto& reason : d.reasons) {
      if (reason.rule != c.expected_rule) why = "extra rule " + reason.rule;
    }
    if (d.reason_for(c.expected_rule) == nullptr) {
      why = "missing rule " + c.expected_rule;
    }
  }
  if (why.empty()) return true;
  std::string detail = "candidate " + std::to_string(index) + ": " + why;
  if (!d.reasons.empty()) detail += " (first: " + d.reasons.front().rule + ")";
  r.violate(detail);
  return false;
}

}  // namespace

Report run_admit(const Args& args) {
  Report r;
  const tenant::AdmissionController controller;

  // --- Set-up, repeated: generate the inputs and grow the residents.
  // The set-ups are scaled by the probe timed between them, the passes
  // by the probe timed between the passes: each against the host speed of
  // its own period.
  HostProbe setup_probe;
  Inputs in;
  double setup_raw_s = 0.0;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = now_ns();
    Inputs fresh = make_inputs(args.seed);
    const double s = seconds_since(start);
    setup_raw_s = i == 0 ? s : std::min(setup_raw_s, s);
    in = std::move(fresh);
    setup_probe.run(1);
  }
  std::size_t rejectable = 0;
  for (const Candidate& c : in.candidates) rejectable += !c.expected_rule.empty();

  // --- Timed passes over the whole sequence.
  HostProbe probe;
  std::vector<double> lat_us;
  Passes passes(in.steps.size());
  std::uint64_t decisions = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t accepted = 0;
  const std::int64_t t0 = now_ns();
  const double cpu0 = process_cpu_seconds();
  const std::int64_t stop = t0 + static_cast<std::int64_t>(args.seconds * 1e9);
  SpanLog spans(args.trace ? 400000 : 0);
  std::vector<double> compose_us, rules_us, rta_us, tenancy_us, delta_us;
  double total_sum_us = 0.0;
  double stage_sum_us = 0.0;
  while (now_ns() < stop) {
    // Whole passes only: a partial pass would skew the mix of resident
    // sizes the latency distribution is taken over.
    for (std::size_t i = 0; i < in.steps.size(); ++i) {
      const Step& s = in.steps[i];
      const std::int64_t begin = now_ns();
      const auto decision =
          controller.admit(*s.running, *s.resident, *s.candidate->arch);
      const std::int64_t end = now_ns();
      lat_us.push_back(static_cast<double>(end - begin) / 1e3);
      passes.record(i, lat_us.back());
      ++decisions;
      accepted += decision.accepted;
      if (!check(decision, *s.candidate, i, r)) ++mismatches;
      if (!args.trace) continue;

      // The stages admit() composes, timed on the same inputs.
      const std::uint64_t id = decisions;
      spans.add("tenant.admit", begin, end, 0, id);
      const auto timed = [&](const char* name, std::vector<double>& into,
                             std::uint64_t parent, auto&& fn) {
        const std::int64_t a = now_ns();
        fn();
        const std::int64_t b = now_ns();
        into.push_back(static_cast<double>(b - a) / 1e3);
        spans.add(name, a, b, parent, id);
        return static_cast<double>(b - a) / 1e3;
      };
      const std::int64_t stages_begin = now_ns();
      const std::uint64_t parent = spans.add("admit.stages", stages_begin,
                                             stages_begin, 0, id);
      // (The parent's end is set once its children are done.)
      double stage_us = 0.0;
      validate::Report compose_report;
      model::Architecture merged;
      stage_us += timed("tenant.compose", compose_us, parent, [&] {
        merged = tenant::merge_architectures(*s.resident, *s.candidate->arch,
                                             compose_report);
      });
      bool ok = compose_report.ok();
      if (ok) {
        stage_us += timed("validate.rules", rules_us, parent, [&] {
          ok = validate::validate(merged).ok();
        });
        if (merged.modes().empty()) {
          stage_us += timed("sim.rta", rta_us, parent, [&] {
            ok = sim::analyze(sim::tasks_from_architecture(merged))
                     .all_schedulable && ok;
          });
        }
        stage_us += timed("validate.tenancy", tenancy_us, parent, [&] {
          ok = validate::validate_tenancy(
                   soleil::snapshot_assembly(merged,
                                             s.running->partition_count()))
                   .ok() && ok;
        });
      }
      if (ok) {
        stage_us += timed("reconfig.delta", delta_us, parent, [&] {
          (void)reconfig::plan_reload(*s.running, merged);
        });
      }
      spans.close(parent, now_ns());
      total_sum_us += static_cast<double>(end - begin) / 1e3;
      stage_sum_us += stage_us;
    }
    passes.end_pass();
    probe.run(1);
  }
  const double wall = seconds_since(t0);
  const double cpu = process_cpu_seconds() - cpu0;

  const Dist lat = summarize(lat_us);
  std::vector<double> best = passes.best_us();
  const Dist best_lat = summarize(best);
  std::vector<double> pass_rates = passes.pass_rates();
  const Dist pass_rate = summarize(pass_rates);
  const double slowdown = probe.slowdown();
  r.attempted = decisions;
  r.failed = mismatches;
  r.note(std::to_string(in.candidates.size()) + " candidates (" +
         std::to_string(rejectable) + " rejectable by construction), " +
         std::to_string(kTargetTenants) + " tenants admitted per pass");
  r.note("admit(), every sample: " + describe(lat, "us"));
  r.note("admit(), each input's best of " + std::to_string(passes.passes()) +
         " passes: " + describe(best_lat, "us"));
  r.note("decisions/s over the whole run: " +
         std::to_string(decisions / wall));
  r.note("host probe: slowdown " + std::to_string(setup_probe.slowdown()) +
         " during set-up, " + std::to_string(slowdown) +
         " during the passes, against the reference host; setup_s, "
         "lat_p50_us and ops_per_s are scaled by it, the *_raw figures are "
         "not");
  r.name("setup_s", setup_raw_s / setup_probe.slowdown(), "s", "lower");
  r.name("lat_p50_us", best_lat.p50 / slowdown, "us", "lower");
  r.name("ops_per_s", passes.best_rate() * slowdown, "1/s", "higher");
  r.name("setup_raw_s", setup_raw_s, "s", "info");
  r.name("lat_p50_raw_us", best_lat.p50, "us", "info");
  r.name("ops_raw_per_s", passes.best_rate(), "1/s", "info");
  r.name("pass_rate_p50_per_s", pass_rate.p50, "1/s", "info");
  r.name("lat_p99_us", lat.p99, "us", "lower");
  r.name("fail_ratio", decisions ? static_cast<double>(mismatches) / decisions
                                 : 0.0,
         "ratio", "lower");
  r.name("peak_rss_mb", peak_rss_mb(), "MB", "lower");

  r.set_layer("proc.cpu_util", wall > 0 ? cpu / wall : 0.0, "ratio");
  r.set_layer("host.slowdown", slowdown, "ratio");
  r.set_layer("tenant.accept_share",
              decisions ? static_cast<double>(accepted) / decisions : 0.0,
              "ratio");
  r.set_layer("tenant.decisions", static_cast<double>(decisions), "count");
  if (args.trace) {
    r.set_layer_dist("tenant.compose_us", summarize(compose_us), "us");
    r.set_layer_dist("validate.rules_us", summarize(rules_us), "us");
    r.set_layer_dist("validate.tenancy_us", summarize(tenancy_us), "us");
    r.set_layer_dist("sim.rta_us", summarize(rta_us), "us");
    r.set_layer_dist("reconfig.delta_us", summarize(delta_us), "us");
    const double n = static_cast<double>(decisions);
    r.set_layer("admit.total_mean_us", total_sum_us / n, "us");
    r.set_layer("admit.stage_sum_mean_us", stage_sum_us / n, "us");
    r.set_layer("admit.unattributed_share",
                total_sum_us > 0 ? 1.0 - stage_sum_us / total_sum_us : 0.0,
                "ratio");
    r.note(write_trace(spans, args));
  }
  return r;
}

}  // namespace e2e
