// Edge cases of the assembled applications: fan-in, shared passive
// services, deeper pipelines, and failure modes of the build step.
#include <gtest/gtest.h>

#include "comm/content.hpp"
#include "model/views.hpp"
#include "runtime/content_registry.hpp"
#include "soleil/application.hpp"
#include "validate/validator.hpp"

namespace rtcf {
namespace {

using namespace rtcf::model;
using soleil::Mode;

class CounterContent final : public comm::Content {
 public:
  void on_release() override {
    comm::Message m;
    m.sequence = ++released;
    for (std::size_t i = 0; i < port_count(); ++i) port(i).send(m);
  }
  void on_message(const comm::Message&) override { ++received; }
  comm::Message on_invoke(const comm::Message& m) override {
    ++invoked;
    return m;
  }
  std::uint64_t released = 0;
  std::uint64_t received = 0;
  std::uint64_t invoked = 0;
};

struct Register {
  Register() {
    runtime::ContentRegistry::instance().register_class<CounterContent>(
        "CounterContent");
  }
};
const Register register_counter;

Architecture fan_in_architecture() {
  Architecture arch;
  BusinessView business(arch);
  auto& p1 = business.active("P1", ActivationKind::Periodic,
                             rtsj::RelativeTime::milliseconds(1));
  auto& p2 = business.active("P2", ActivationKind::Periodic,
                             rtsj::RelativeTime::milliseconds(2));
  auto& sink = business.active("Sink", ActivationKind::Sporadic);
  for (auto* c : {&p1, &p2}) {
    c->set_content_class("CounterContent");
    business.client_port(*c, "out", "I");
  }
  sink.set_content_class("CounterContent");
  business.server_port(sink, "in", "I");
  business.bind_async("P1", "out", "Sink", "in", 4);
  business.bind_async("P2", "out", "Sink", "in", 4);

  ThreadManagementView threads(arch);
  auto& domain = threads.domain("D", DomainType::Realtime, 20);
  threads.deploy(domain, p1);
  threads.deploy(domain, p2);
  threads.deploy(domain, sink);
  MemoryManagementView memory(arch);
  auto& imm = memory.area("M", AreaType::Immortal, 0);
  memory.deploy(imm, domain);
  return arch;
}

class EdgeTest : public ::testing::TestWithParam<Mode> {};

TEST_P(EdgeTest, FanInAcrossTwoProducers) {
  const auto arch = fan_in_architecture();
  ASSERT_TRUE(validate::validate(arch).ok());
  auto app = soleil::build_application(arch, GetParam());
  app->start();
  for (int i = 0; i < 10; ++i) {
    app->iterate("P1");
    app->iterate("P2");
  }
  const auto* sink =
      dynamic_cast<const CounterContent*>(app->content("Sink"));
  EXPECT_EQ(sink->received, 20u) << "both producers reach the sink";
  // Two independent buffers, one per binding.
  EXPECT_EQ(app->buffers().size(), 2u);
}

TEST_P(EdgeTest, SharedPassiveServiceCalledFromTwoDomains) {
  Architecture arch;
  BusinessView business(arch);
  auto& a = business.active("A", ActivationKind::Periodic,
                            rtsj::RelativeTime::milliseconds(1));
  auto& b = business.active("B", ActivationKind::Periodic,
                            rtsj::RelativeTime::milliseconds(1));
  auto& shared = business.passive("SharedService");
  for (auto* c : {&a, &b}) {
    c->set_content_class("CounterContent");
    business.client_port(*c, "out", "I");
  }
  shared.set_content_class("CounterContent");
  business.server_port(shared, "in", "I");
  business.bind_sync("A", "out", "SharedService", "in");
  business.bind_sync("B", "out", "SharedService", "in");

  ThreadManagementView threads(arch);
  auto& d1 = threads.domain("D1", DomainType::Realtime, 22);
  auto& d2 = threads.domain("D2", DomainType::Realtime, 24);
  threads.deploy(d1, a);
  threads.deploy(d2, b);
  MemoryManagementView memory(arch);
  auto& imm = memory.area("M", AreaType::Immortal, 0);
  memory.deploy(imm, d1);
  memory.deploy(imm, d2);
  memory.deploy(imm, shared);

  ASSERT_TRUE(validate::validate(arch).ok());
  // Sharing: the passive service executes on both callers' domains.
  EXPECT_EQ(validate::ExecutionDomains(arch).of(shared).size(), 2u);

  auto app = soleil::build_application(arch, GetParam());
  app->start();
  // CounterContent.on_release sends on every port; sync port "out" is
  // bound for call, not send -> releasing would throw. Call directly:
  auto* a_content = dynamic_cast<CounterContent*>(app->content("A"));
  auto* b_content = dynamic_cast<CounterContent*>(app->content("B"));
  comm::Message m;
  (void)a_content->port("out").call(m);
  (void)b_content->port("out").call(m);
  const auto* service =
      dynamic_cast<const CounterContent*>(app->content("SharedService"));
  EXPECT_EQ(service->invoked, 2u);
}

TEST_P(EdgeTest, UnregisteredContentClassFailsTheBuild) {
  Architecture arch;
  auto& a = arch.add_active("A", ActivationKind::Periodic,
                            rtsj::RelativeTime::milliseconds(1));
  a.set_content_class("DefinitelyNotRegistered");
  auto& d = arch.add_thread_domain("D", DomainType::Realtime, 20);
  arch.add_child(d, a);
  EXPECT_THROW(soleil::build_application(arch, GetParam()),
               std::invalid_argument);
}

TEST_P(EdgeTest, MissingContentClassFailsTheBuild) {
  Architecture arch;
  arch.add_active("A", ActivationKind::Periodic,
                  rtsj::RelativeTime::milliseconds(1));
  auto& d = arch.add_thread_domain("D", DomainType::Realtime, 20);
  arch.add_child(d, *arch.find("A"));
  EXPECT_THROW(soleil::build_application(arch, GetParam()),
               soleil::PlanningError);
}

TEST_P(EdgeTest, ReleasingAPassiveComponentThrows) {
  const auto arch = fan_in_architecture();
  auto app = soleil::build_application(arch, GetParam());
  EXPECT_THROW(app->release("NoSuchComponent"), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllModes, EdgeTest,
                         ::testing::Values(Mode::Soleil, Mode::MergeAll,
                                           Mode::UltraMerge),
                         [](const auto& info) {
                           return std::string(soleil::to_string(info.param));
                         });

}  // namespace
}  // namespace rtcf
