// Two-thread confinement smoke test: two independent Simulators, each built
// and run on its own thread inside its own SimContext domain, must produce
// traces byte-identical to the same scenarios run solo on the main thread.
//
// This is the proof obligation behind the domain-confinement discipline
// (apiary-global-state / apiary-domain-confinement in tools/apiary_lint):
// with packet pools, payload arenas and log sinks hanging off SimContext
// instead of process globals, two domains share no mutable simulation
// state — so running them concurrently changes nothing. Under
// APIARY_SANITIZE=thread this doubles as the TSan harness CI runs: any
// leftover cross-domain write is a reported race, not a silent flake.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>

#include "src/accel/echo.h"
#include "src/accel/probe.h"
#include "src/core/service_ids.h"
#include "src/sim/logging.h"
#include "src/sim/thread_domain.h"
#include "src/sim/sim_context.h"
#include "tests/test_util.h"

namespace apiary {
namespace {

void CaptureSink(LogLevel level, const std::string& line, void* user) {
  auto* out = static_cast<std::string*>(user);
  *out += std::to_string(static_cast<int>(level));
  *out += ' ';
  *out += line;
  *out += '\n';
}

// Builds a board and drives a seeded echo workload entirely inside this
// thread's domain. The context sink captures every log line the domain
// emits — construction included, since the ScopedInstall wraps the build.
std::string RunWorkload(uint64_t seed) {
  std::string trace;
  Simulator sim{250.0};
  sim.context().SetLogSink(&CaptureSink, &trace);
  ThreadDomain::ScopedInstall install(&sim.context());

  ExternalNetwork net(25);
  Board board(TestBoard::MakeConfig(TestBoardOptions{}), sim, &net);
  ApiaryOs os(board);
  sim.Register(&net);

  AppId app = os.CreateApp("smoke");
  ServiceId svc = 0;
  os.Deploy(app, std::make_unique<EchoAccelerator>(/*service_cycles=*/0), &svc);
  auto* probe = new ProbeAccelerator();
  const TileId ct = os.Deploy(app, std::unique_ptr<Accelerator>(probe));
  const CapRef cap = os.GrantSendToService(ct, svc);

  for (int burst = 0; burst < 8; ++burst) {
    for (int i = 0; i < 4; ++i) {
      Message msg;
      msg.opcode = kOpEcho;
      msg.payload.assign(48 + (seed + burst + i) % 64,
                         static_cast<uint8_t>(seed ^ (burst * 4 + i)));
      probe->EnqueueSend(std::move(msg), cap);
    }
    sim.Run(2'000);
    // Routed through the domain sink — under TSan this is the line that
    // would race if two domains ever shared a trace buffer.
    APIARY_LOG(kDebug) << "burst " << burst << " t=" << sim.now()
                       << " recv=" << probe->received.size();
  }
  sim.Run(50'000);  // Drain.
  EXPECT_FALSE(probe->received.empty());
  for (const Message& m : probe->received) {
    uint32_t sum = 0;
    for (uint8_t b : m.payload) sum = sum * 31 + b;
    trace += "recv len=" + std::to_string(m.payload.size()) +
             " sum=" + std::to_string(sum) + '\n';
  }
  return trace;
}

TEST(ParallelSmokeTest, TwoThreadedDomainsMatchSoloRunsByteForByte) {
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);

  // Solo reference runs, sequential on this thread.
  const std::string solo_a = RunWorkload(7);
  const std::string solo_b = RunWorkload(21);
  ASSERT_FALSE(solo_a.empty());
  // The seed must actually steer the run, or an always-empty/seed-blind
  // trace would fake the comparison out.
  ASSERT_NE(solo_a, solo_b);

  // The same two scenarios, concurrently, one domain per thread.
  std::string threaded_a;
  std::string threaded_b;
  std::thread ta([&] { threaded_a = RunWorkload(7); });
  std::thread tb([&] { threaded_b = RunWorkload(21); });
  ta.join();
  tb.join();
  SetLogLevel(prev);

  EXPECT_EQ(threaded_a, solo_a);
  EXPECT_EQ(threaded_b, solo_b);
}

TEST(ParallelSmokeTest, RepeatedConcurrentRunsStayIdentical) {
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kDebug);
  std::string first_a;
  std::string first_b;
  for (int round = 0; round < 2; ++round) {
    std::string a;
    std::string b;
    std::thread ta([&] { a = RunWorkload(3); });
    std::thread tb([&] { b = RunWorkload(5); });
    ta.join();
    tb.join();
    if (round == 0) {
      first_a = a;
      first_b = b;
    } else {
      EXPECT_EQ(a, first_a);
      EXPECT_EQ(b, first_b);
    }
  }
  SetLogLevel(prev);
}

}  // namespace
}  // namespace apiary
