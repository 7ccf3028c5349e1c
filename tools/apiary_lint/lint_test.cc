// Tests for apiary_lint: library-level checks against in-memory sources,
// plus end-to-end runs of the binary against the testdata/ fixture trees
// (exit codes and which check fired).
#include "tools/apiary_lint/lint.h"

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace apiary {
namespace lint {
namespace {

std::vector<Finding> LintOne(const std::string& path, const std::string& content) {
  std::vector<SourceFile> files;
  files.push_back(LexSource(path, content));
  return RunAllChecks(files, DefaultConfig());
}

std::vector<Finding> LintMany(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  std::vector<SourceFile> files;
  for (const auto& [path, content] : sources) {
    files.push_back(LexSource(path, content));
  }
  return RunAllChecks(files, DefaultConfig());
}

bool HasCheck(const std::vector<Finding>& findings, const std::string& check) {
  for (const auto& finding : findings) {
    if (finding.check == check) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------------

TEST(Lexer, StripsCommentsAndStrings) {
  const auto findings = LintOne("src/noc/x.cc",
                                "// rand() and time(nullptr) in a comment\n"
                                "/* std::random_device in a block comment */\n"
                                "void f() {\n"
                                "  const char* s = \"srand(1) in a string\";\n"
                                "  char c = '\\'';\n"
                                "}\n");
  EXPECT_TRUE(findings.empty()) << findings.size();
}

TEST(Lexer, BlockCommentSpansLines) {
  const auto findings = LintOne("src/noc/x.cc",
                                "/* begin\n"
                                "   rand();\n"
                                "   end */\n"
                                "void f() {\n"
                                "  int x = 0;\n"
                                "  (void)x;\n"
                                "}\n");
  EXPECT_TRUE(findings.empty());
}

// ---------------------------------------------------------------------------
// apiary-determinism.
// ---------------------------------------------------------------------------

TEST(Determinism, FlagsAmbientRandomnessAndWallClock) {
  const auto findings = LintOne("src/noc/x.cc",
                                "void f() {\n"
                                "  std::random_device rd;\n"
                                "  srand(42);\n"
                                "  int r = rand();\n"
                                "  auto t = std::chrono::steady_clock::now();\n"
                                "  long w = time(nullptr);\n"
                                "}\n");
  ASSERT_EQ(findings.size(), 5u);
  for (const auto& finding : findings) {
    EXPECT_EQ(finding.check, "apiary-determinism");
  }
  EXPECT_EQ(findings[0].line, 2);
}

TEST(Determinism, DoesNotFlagLookalikeIdentifiers) {
  const auto findings = LintOne("src/noc/x.cc",
                                "int hold_time(int x);\n"
                                "int operand(int x);\n"
                                "void f() {\n"
                                "  int y = hold_time(3);\n"
                                "  int z = rng.rand();\n"   // member access: not ::rand
                                "  int w = sim.time();\n"   // simulator time accessor
                                "  (void)y; (void)z; (void)w;\n"
                                "}\n");
  EXPECT_TRUE(findings.empty());
}

TEST(Determinism, FlagsHashContainersOnlyInSrc) {
  EXPECT_TRUE(HasCheck(LintOne("src/core/x.h", "std::unordered_map<int, int> m_;\n"),
                       "apiary-determinism"));
  EXPECT_TRUE(LintOne("tests/x.cc", "std::unordered_map<int, int> m;\n").empty());
  EXPECT_TRUE(LintOne("bench/x.cc", "std::unordered_set<int> s;\n").empty());
}

TEST(Determinism, ExemptsStatsAndTheRngItself) {
  EXPECT_FALSE(HasCheck(LintOne("src/stats/x.cc", "std::unordered_map<int, int> m;\n"),
                        "apiary-determinism"));
  EXPECT_FALSE(HasCheck(
      LintOne("src/sim/random.cc", "uint64_t seed = 1; // rand() replacement\n"),
      "apiary-determinism"));
}

TEST(Determinism, NolintSuppressions) {
  // Matching check name on the line.
  EXPECT_FALSE(HasCheck(
      LintOne("src/core/x.cc",
              "std::unordered_map<int, int> m_;  // NOLINT(apiary-determinism)\n"),
      "apiary-determinism"));
  // Bare NOLINT suppresses everything on the line.
  EXPECT_FALSE(HasCheck(
      LintOne("src/core/x.cc", "std::unordered_map<int, int> m_;  // NOLINT\n"),
      "apiary-determinism"));
  // NOLINTNEXTLINE applies to the following line.
  EXPECT_FALSE(HasCheck(LintOne("src/core/x.cc",
                                "// NOLINTNEXTLINE(apiary-determinism)\n"
                                "std::unordered_map<int, int> m_;\n"),
                        "apiary-determinism"));
  // A different check's NOLINT does not suppress.
  EXPECT_TRUE(HasCheck(
      LintOne("src/core/x.cc",
              "std::unordered_map<int, int> m_;  // NOLINT(apiary-layering)\n"),
      "apiary-determinism"));
}

// ---------------------------------------------------------------------------
// apiary-layering.
// ---------------------------------------------------------------------------

TEST(Layering, AllowsDeclaredEdges) {
  EXPECT_TRUE(LintOne("src/mem/x.cc",
                      "#include \"src/mem/dram.h\"\n"
                      "#include \"src/sim/types.h\"\n"
                      "#include \"src/stats/summary.h\"\n")
                  .empty());
}

TEST(Layering, BlocksAccelFromMemAndNoc) {
  const auto findings = LintOne("src/accel/x.cc",
                                "#include \"src/mem/dram.h\"\n"
                                "#include \"src/noc/packet.h\"\n"
                                "#include \"src/core/accelerator.h\"\n");
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_TRUE(HasCheck(findings, "apiary-layering"));
}

TEST(Layering, OpcodeAbiHeaderIsExemptEverywhere) {
  EXPECT_TRUE(LintOne("src/accel/x.cc", "#include \"src/services/opcodes.h\"\n").empty());
}

TEST(Layering, BlocksBaselineFromServices) {
  EXPECT_TRUE(HasCheck(LintOne("src/baseline/x.cc",
                               "#include \"src/services/transport.h\"\n"),
                       "apiary-layering"));
}

TEST(Layering, OrchSeesServicesAndCore) {
  EXPECT_TRUE(LintOne("src/orch/x.cc",
                      "#include \"src/core/kernel.h\"\n"
                      "#include \"src/fpga/board.h\"\n"
                      "#include \"src/orch/placer.h\"\n"
                      "#include \"src/services/supervisor.h\"\n"
                      "#include \"src/sim/clocked.h\"\n"
                      "#include \"src/stats/summary.h\"\n")
                  .empty());
}

TEST(Layering, BlocksAccelAndBaselineFromOrch) {
  EXPECT_TRUE(HasCheck(LintOne("src/accel/x.cc",
                               "#include \"src/orch/autoscaler.h\"\n"),
                       "apiary-layering"));
  EXPECT_TRUE(HasCheck(LintOne("src/baseline/x.cc",
                               "#include \"src/orch/placer.h\"\n"),
                       "apiary-layering"));
}

TEST(Layering, TenantSeesOrchServicesAndNoc) {
  EXPECT_TRUE(LintOne("src/tenant/x.cc",
                      "#include \"src/core/kernel.h\"\n"
                      "#include \"src/noc/rate_limiter.h\"\n"
                      "#include \"src/orch/reconfig_scheduler.h\"\n"
                      "#include \"src/services/memory_service.h\"\n"
                      "#include \"src/tenant/tenant.h\"\n")
                  .empty());
}

TEST(Layering, BlocksTenantAndAccelFromEachOther) {
  EXPECT_TRUE(HasCheck(LintOne("src/tenant/x.cc",
                               "#include \"src/accel/echo.h\"\n"),
                       "apiary-layering"));
  EXPECT_TRUE(HasCheck(LintOne("src/accel/x.cc",
                               "#include \"src/tenant/tenant.h\"\n"),
                       "apiary-layering"));
}

TEST(Layering, BlocksOrchFromNocAndMem) {
  const auto findings = LintOne("src/orch/x.cc",
                                "#include \"src/mem/dram.h\"\n"
                                "#include \"src/noc/packet.h\"\n");
  EXPECT_EQ(findings.size(), 2u);
  EXPECT_TRUE(HasCheck(findings, "apiary-layering"));
}

TEST(Layering, SimIsTheRoot) {
  EXPECT_TRUE(HasCheck(LintOne("src/sim/x.cc", "#include \"src/core/tile.h\"\n"),
                       "apiary-layering"));
}

TEST(Layering, UndeclaredLayerIsFlagged) {
  EXPECT_TRUE(HasCheck(LintOne("src/newdir/x.cc", "#include \"src/sim/types.h\"\n"),
                       "apiary-layering"));
}

TEST(Layering, TestsAndBenchAreUnrestricted) {
  EXPECT_TRUE(LintOne("tests/x.cc", "#include \"src/noc/packet.h\"\n").empty());
  EXPECT_TRUE(LintOne("bench/x.cc", "#include \"src/mem/dram.h\"\n").empty());
}

// ---------------------------------------------------------------------------
// apiary-include-guard.
// ---------------------------------------------------------------------------

TEST(IncludeGuard, AcceptsConventionalGuard) {
  EXPECT_TRUE(LintOne("src/sim/x.h",
                      "#ifndef SRC_SIM_X_H_\n"
                      "#define SRC_SIM_X_H_\n"
                      "#endif  // SRC_SIM_X_H_\n")
                  .empty());
}

TEST(IncludeGuard, FlagsWrongAndMissingGuards) {
  EXPECT_TRUE(HasCheck(LintOne("src/sim/x.h",
                               "#ifndef WRONG_H_\n#define WRONG_H_\n#endif\n"),
                       "apiary-include-guard"));
  EXPECT_TRUE(HasCheck(LintOne("src/sim/x.h", "int x;\n"), "apiary-include-guard"));
  EXPECT_TRUE(HasCheck(LintOne("src/sim/x.h", "#pragma once\nint x;\n"),
                       "apiary-include-guard"));
}

TEST(IncludeGuard, IgnoresNonHeaders) {
  EXPECT_FALSE(HasCheck(LintOne("src/sim/x.cc", "int x;\n"), "apiary-include-guard"));
}

// ---------------------------------------------------------------------------
// apiary-debug-name.
// ---------------------------------------------------------------------------

TEST(DebugName, RequiresOverrideInClockedSubclass) {
  const std::string good =
      "class Ticker : public Clocked {\n"
      " public:\n"
      "  void Tick(Cycle now) override;\n"
      "  std::string DebugName() const override { return \"ticker\"; }\n"
      "};\n";
  const std::string bad =
      "class Ticker : public Clocked {\n"
      " public:\n"
      "  void Tick(Cycle now) override;\n"
      "};\n";
  EXPECT_TRUE(LintOne("src/sim/t.cc", good).empty());
  const auto findings = LintOne("src/sim/t.cc", bad);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "apiary-debug-name");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(DebugName, IgnoresOtherBasesAndForwardDecls) {
  EXPECT_TRUE(LintOne("src/sim/t.cc",
                      "class Clocked;\n"
                      "class Foo : public Bar {\n"
                      "};\n")
                  .empty());
}

TEST(DebugName, HandlesMultipleClassesPerFile) {
  const auto findings = LintOne("src/sim/t.cc",
                                "class A : public Clocked {\n"
                                "  std::string DebugName() const override;\n"
                                "};\n"
                                "class B : public Clocked {\n"
                                "};\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);
}

// ---------------------------------------------------------------------------
// apiary-nodiscard.
// ---------------------------------------------------------------------------

TEST(Nodiscard, RequiresMarkerOnMintingApis) {
  EXPECT_TRUE(HasCheck(LintOne("src/core/capability.h", "CapRef Install(int cap);\n"),
                       "apiary-nodiscard"));
  EXPECT_FALSE(HasCheck(LintOne("src/core/capability.h",
                                "[[nodiscard]] CapRef Install(int cap);\n"),
                        "apiary-nodiscard"));
  EXPECT_FALSE(HasCheck(LintOne("src/core/capability.h",
                                "[[nodiscard]]\n"
                                "CapRef Install(int cap);\n"),
                        "apiary-nodiscard"));
}

TEST(Nodiscard, CoversOptionalReturnTypes) {
  EXPECT_TRUE(HasCheck(LintOne("src/core/kernel.h",
                               "std::optional<CapRef> GrantMemory(int tile);\n"),
                       "apiary-nodiscard"));
  EXPECT_TRUE(HasCheck(LintOne("src/mem/segment_allocator.h",
                               "std::optional<Segment> Allocate(int bytes);\n"),
                       "apiary-nodiscard"));
}

TEST(Nodiscard, CoversQuiescenceHooks) {
  // A Cycle-returning hook in the Clocked interface without [[nodiscard]]
  // means a computed wake-up cycle can be silently dropped.
  EXPECT_TRUE(HasCheck(LintOne("src/sim/clocked.h",
                               "virtual Cycle NextActivity(Cycle now) const;\n"),
                       "apiary-nodiscard"));
  EXPECT_FALSE(HasCheck(
      LintOne("src/sim/clocked.h",
              "[[nodiscard]] virtual Cycle NextActivity(Cycle now) const;\n"),
      "apiary-nodiscard"));
  // Cycle as a parameter (Tick, OnFastForward) is not a minting declaration.
  EXPECT_FALSE(HasCheck(LintOne("src/sim/clocked.h",
                                "virtual void OnFastForward(Cycle resume_cycle);\n"),
                        "apiary-nodiscard"));
}

TEST(Nodiscard, IgnoresParametersAndOtherFiles) {
  // CapRef as a parameter type is not a minting declaration.
  EXPECT_FALSE(HasCheck(LintOne("src/core/capability.h", "bool Revoke(CapRef ref);\n"),
                        "apiary-nodiscard"));
  // The policy only covers the declared minting headers.
  EXPECT_FALSE(HasCheck(LintOne("src/core/monitor.h", "CapRef Install(int cap);\n"),
                        "apiary-nodiscard"));
}

// ---------------------------------------------------------------------------
// apiary-hot-path.
// ---------------------------------------------------------------------------

TEST(HotPath, FlagsPacketAllocationAndPayloadVectors) {
  const auto findings = LintOne("src/noc/x.cc",
                                "void f() {\n"
                                "  auto p = std::make_shared<NocPacket>();\n"
                                "  NocPacket* q = new NocPacket();\n"
                                "  std::vector<uint8_t> copy(p->payload);\n"
                                "}\n");
  ASSERT_EQ(findings.size(), 3u);
  for (const auto& finding : findings) {
    EXPECT_EQ(finding.check, "apiary-hot-path");
  }
  EXPECT_NE(findings[0].message.find("PacketPool::Acquire"), std::string::npos);
}

TEST(HotPath, DoesNotFlagPooledOrPayloadBufCode) {
  EXPECT_TRUE(LintOne("src/noc/x.cc",
                      "void f(NetworkInterface* ni) {\n"
                      "  PacketRef p = ni->pool()->Acquire();\n"
                      "  PayloadBuf staging;\n"
                      "  std::vector<uint8_t> unrelated;\n"
                      "  NocPacket& packet = *p;\n"
                      "}\n")
                  .empty());
}

TEST(HotPath, ExemptsPoolAndSerializationLayer) {
  EXPECT_TRUE(LintOne("src/noc/packet_pool.cc",
                      "void f() {\n"
                      "  NocPacket* p = new NocPacket();\n"
                      "  (void)p;\n"
                      "}\n")
                  .empty());
  EXPECT_TRUE(LintOne("src/core/message.cc",
                      "void g(const Message& msg) {\n"
                      "  std::vector<uint8_t> wire(msg.payload.size());\n"
                      "}\n")
                  .empty());
}

TEST(HotPath, TestsAndBenchAreUnrestricted) {
  EXPECT_TRUE(LintOne("tests/x.cc", "PacketRef p(new NocPacket());\n").empty());
  EXPECT_TRUE(LintOne("bench/x.cc", "auto p = std::make_shared<NocPacket>();\n").empty());
}

TEST(HotPath, NolintSuppresses) {
  EXPECT_FALSE(HasCheck(
      LintOne("src/noc/x.cc",
              "NocPacket* p = new NocPacket();  // NOLINT(apiary-hot-path)\n"),
      "apiary-hot-path"));
}

TEST(HotPath, ExpressFilesBanAllocationOutsideConfigure) {
  const auto findings = LintOne("src/noc/express.cc",
                                "bool ExpressLane::TryLaunch(uint32_t tile) {\n"
                                "  path_owner_.resize(tile + 1);\n"
                                "  auto spare = std::make_unique<Corridor>();\n"
                                "  Corridor* raw = new Corridor();\n"
                                "  return true;\n"
                                "}\n");
  ASSERT_EQ(findings.size(), 3u);
  for (const auto& finding : findings) {
    EXPECT_EQ(finding.check, "apiary-hot-path");
    EXPECT_NE(finding.message.find("outside Configure()"), std::string::npos);
  }
}

TEST(HotPath, ExpressConfigureIsTheSanctionedSizingPoint) {
  EXPECT_TRUE(LintOne("src/noc/express.cc",
                      "void ExpressLane::Configure(uint32_t num_tiles) {\n"
                      "  path_owner_.assign(num_tiles, 0);\n"
                      "  zone_count_.assign(num_tiles, 0);\n"
                      "}\n"
                      "bool ExpressLane::TryLaunch(uint32_t tile) {\n"
                      "  path_owner_[tile] = 1;\n"
                      "  return true;\n"
                      "}\n")
                  .empty());
}

TEST(HotPath, ExpressDisciplineLimitedToExpressFiles) {
  // The same assign in mesh.cc is mesh setup, not corridor state.
  EXPECT_TRUE(LintOne("src/noc/mesh.cc",
                      "void Mesh::Resize(uint32_t n) {\n"
                      "  live_.assign(n, LiveWord{});\n"
                      "}\n")
                  .empty());
}

TEST(HotPath, RouterAndNiCountersAreTyped) {
  const auto findings = LintOne("src/noc/network_interface.cc",
                                "void NetworkInterface::EjectFlit() {\n"
                                "  counters_.Add(\"ni.flits_ejected\");\n"
                                "  counters_.Add( \"ni.flits_injected\", flits);\n"
                                "  ++flits_ejected_;\n"
                                "}\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 3);
  EXPECT_NE(findings[0].message.find("typed uint64_t field"), std::string::npos);
  EXPECT_TRUE(HasCheck(LintOne("src/noc/router.h", "counters_.Add(\"router.stalls\");\n"),
                       "apiary-hot-path"));
}

TEST(HotPath, FabricFilesBanSorting) {
  const auto findings = LintOne("src/noc/mesh.cc",
                                "void Mesh::MergeFresh(LiveSet& set) {\n"
                                "  std::sort(set.routers.begin(), set.routers.end());\n"
                                "  std::stable_sort(set.nis.begin(), set.nis.end());\n"
                                "}\n");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 3);
  EXPECT_NE(findings[0].message.find("bit"), std::string::npos);
  EXPECT_TRUE(HasCheck(LintOne("src/noc/router.h", "std::sort(v.begin(), v.end());\n"),
                       "apiary-hot-path"));
  EXPECT_TRUE(HasCheck(LintOne("src/noc/network_interface.cc",
                               "std::stable_sort(q.begin(), q.end());\n"),
                       "apiary-hot-path"));
}

TEST(HotPath, SortRuleIgnoresCommentsOtherNamesAndOtherFiles) {
  EXPECT_TRUE(LintOne("src/noc/mesh.cc",
                      "// merging once needed std::sort\n"
                      "std::sort_heap(v.begin(), v.end());\n"
                      "std::is_sorted(v.begin(), v.end());\n")
                  .empty());
  // Setup-time code elsewhere in the NoC may sort.
  EXPECT_TRUE(LintOne("src/noc/express.cc", "std::sort(v.begin(), v.end());\n").empty());
  EXPECT_TRUE(LintOne("src/sim/simulator.cc", "std::sort(v.begin(), v.end());\n").empty());
}

TEST(HotPath, TypedCounterRuleIgnoresCommentsRenderingAndOtherFiles) {
  // Rendering the snapshot from a local set, a comment and a non-literal key
  // are all fine in the router.
  EXPECT_TRUE(LintOne("src/noc/router.cc",
                      "CounterSet Router::counters() const {\n"
                      "  set.Add(\"router.stalls\", stalls_);\n"
                      "  // was counters_.Add(\"router.stalls\")\n"
                      "  counters_.Add(name);\n"
                      "}\n")
                  .empty());
  // Other blocks keep their string-keyed CounterSet for now.
  EXPECT_TRUE(LintOne("src/core/monitor.cc", "counters_.Add(\"monitor.sends\");\n").empty());
}

// ---------------------------------------------------------------------------
// apiary-global-state.
// ---------------------------------------------------------------------------

TEST(GlobalState, FlagsNamespaceScopeGlobals) {
  const auto findings = LintOne("src/sim/x.cc",
                                "namespace apiary {\n"
                                "int g_counter = 0;\n"
                                "}  // namespace apiary\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "apiary-global-state");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("g_counter"), std::string::npos);
}

TEST(GlobalState, FlagsFunctionLocalStaticsAndMeyersSingletons) {
  const auto findings = LintOne("src/sim/x.cc",
                                "Widget& W() {\n"
                                "  static Widget w;\n"
                                "  return w;\n"
                                "}\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "apiary-global-state");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(GlobalState, AllowsConstConstexprAndLocals) {
  EXPECT_TRUE(LintOne("src/sim/x.cc",
                      "constexpr int kTableSize = 64;\n"
                      "const char* const kName = \"apiary\";\n"
                      "static const int kStaticConst = 3;\n"
                      "void F() {\n"
                      "  int local = kTableSize;\n"
                      "  (void)local;\n"
                      "}\n")
                  .empty());
}

TEST(GlobalState, AllowsClassMembersAndFunctionDecls) {
  EXPECT_TRUE(LintOne("src/sim/x.cc",
                      "class Widget {\n"
                      " public:\n"
                      "  int Count() const;\n"
                      " private:\n"
                      "  int count_ = 0;\n"
                      "};\n"
                      "int Total(int base);\n")
                  .empty());
}

TEST(GlobalState, FlagsClassLevelStatics) {
  const auto findings = LintOne("src/sim/x.cc",
                                "class Widget {\n"
                                "  static int live_count_;\n"
                                "};\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "apiary-global-state");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(GlobalState, EvaluatesStaticsBehindAccessLabels) {
  // ` public: static ...` on one statement still evaluates (the label is
  // stripped), anchored at the statement head.
  EXPECT_TRUE(HasCheck(LintOne("src/sim/x.cc",
                               "class Widget {\n"
                               " public:\n"
                               "  static int live_count_;\n"
                               "};\n"),
                       "apiary-global-state"));
}

TEST(GlobalState, ApiarySharedAnnotationBlesses) {
  // Same line.
  EXPECT_TRUE(LintOne("src/sim/x.cc",
                      "int g_x = 0;  // APIARY-SHARED(process): legacy counter\n")
                  .empty());
  // Line directly above.
  EXPECT_TRUE(LintOne("src/sim/x.cc",
                      "// APIARY-SHARED(process): legacy counter\n"
                      "int g_x = 0;\n")
                  .empty());
}

TEST(GlobalState, MalformedAnnotationIsItsOwnFinding) {
  const auto findings = LintOne("src/sim/x.cc",
                                "// APIARY-SHARED(process)\n"
                                "int g_x = 0;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "apiary-global-state");
  EXPECT_NE(findings[0].message.find("malformed"), std::string::npos);
}

TEST(GlobalState, OnlyAppliesUnderSrc) {
  EXPECT_TRUE(LintOne("tests/x.cc", "int g_counter = 0;\n").empty());
  EXPECT_TRUE(LintOne("bench/x.cc", "static int g_runs = 0;\n").empty());
}

TEST(GlobalState, NolintSuppresses) {
  EXPECT_FALSE(HasCheck(
      LintOne("src/sim/x.cc",
              "int g_x = 0;  // NOLINT(apiary-global-state): pending migration\n"),
      "apiary-global-state"));
}

// ---------------------------------------------------------------------------
// apiary-domain-confinement.
// ---------------------------------------------------------------------------

TEST(DomainConfinement, FlagsCrossLayerRawPointerMember) {
  const auto findings = LintMany({
      {"src/noc/router.cc", "class Router {\n};\n"},
      {"src/core/monitor.cc", "class Monitor {\n  Router* router_ = nullptr;\n};\n"},
  });
  ASSERT_TRUE(HasCheck(findings, "apiary-domain-confinement"));
  for (const auto& finding : findings) {
    if (finding.check == "apiary-domain-confinement") {
      EXPECT_EQ(finding.file, "src/core/monitor.cc");
      EXPECT_EQ(finding.line, 2);
      EXPECT_NE(finding.message.find("router_"), std::string::npos);
    }
  }
}

TEST(DomainConfinement, FlagsCrossLayerReferenceMember) {
  EXPECT_TRUE(HasCheck(
      LintMany({
          {"src/sim/clock.cc", "class ClockTree {\n};\n"},
          {"src/noc/mesh.cc", "class Mesh {\n  ClockTree& clock_;\n};\n"},
      }),
      "apiary-domain-confinement"));
}

TEST(DomainConfinement, AllowsSameLayerAndChannelTypes) {
  EXPECT_FALSE(HasCheck(
      LintMany({
          {"src/noc/router.cc", "class Router {\n};\n"},
          {"src/noc/mesh.cc", "class Mesh {\n  Router* router_ = nullptr;\n};\n"},
          // PacketPool is a registered channel type: core may hold a handle.
          {"src/core/monitor.cc",
           "class Monitor {\n  PacketPool* pool_ = nullptr;\n};\n"},
      }),
      "apiary-domain-confinement"));
}

TEST(DomainConfinement, IgnoresValueMembersLocalsAndForwardDecls) {
  EXPECT_FALSE(HasCheck(
      LintMany({
          {"src/noc/router.cc", "class Router {\n};\n"},
          {"src/core/monitor.cc",
           "class Router;\n"              // Forward decl is not a definition.
           "class Monitor {\n"
           "  Router by_value_;\n"        // Value member: no raw aliasing.
           "};\n"
           "void F(Router* scratch) {\n"  // Parameter, not a member.
           "  (void)scratch;\n"
           "}\n"},
      }),
      "apiary-domain-confinement"));
}

TEST(DomainConfinement, AmbiguousTypeNamesAreDropped) {
  EXPECT_FALSE(HasCheck(
      LintMany({
          {"src/noc/stats.cc", "struct Ledger {\n};\n"},
          {"src/sim/stats.cc", "struct Ledger {\n};\n"},
          {"src/core/monitor.cc", "class Monitor {\n  Ledger* ledger_ = nullptr;\n};\n"},
      }),
      "apiary-domain-confinement"));
}

// ---------------------------------------------------------------------------
// apiary-sync-discipline.
// ---------------------------------------------------------------------------

TEST(SyncDiscipline, FlagsAdHocPrimitivesUnderSrc) {
  const auto findings = LintOne("src/core/x.cc",
                                "class Q {\n"
                                "  std::mutex mu_;\n"
                                "  std::atomic<int> depth_{0};\n"
                                "};\n"
                                "void F() {\n"
                                "  thread_local int depth = 0;\n"
                                "  (void)depth;\n"
                                "}\n");
  int sync_findings = 0;
  for (const auto& finding : findings) {
    if (finding.check == "apiary-sync-discipline") {
      ++sync_findings;
    }
  }
  EXPECT_EQ(sync_findings, 3);
}

TEST(SyncDiscipline, AllowsTheThreadDomainHome) {
  // The current-domain pointer is the one piece of thread-affine state.
  const std::string domain = "thread_local SimContext* t_current = nullptr;\n";
  EXPECT_FALSE(
      HasCheck(LintOne("src/sim/thread_domain.cc", domain), "apiary-sync-discipline"));
  EXPECT_FALSE(HasCheck(LintOne("src/sim/thread_domain.h", "class ThreadDomain {\n};\n"),
                        "apiary-sync-discipline"));
  EXPECT_TRUE(HasCheck(LintOne("src/sim/logging.cc", domain), "apiary-sync-discipline"));
}

TEST(SyncDiscipline, FlagsTheSpscRingIdiomEverywhereUnderSrc) {
  // A lock-free handoff ring: atomic indices published with acquire/release
  // plus a thread-id ownership assert. No directory under src/ may hold it,
  // including the old parallel-engine home.
  const std::string ring =
      "class SpscRing {\n"
      "  std::atomic<uint32_t> head_{0};\n"
      "  std::atomic<uint32_t> tail_{0};\n"
      "  std::thread::id producer_{};\n"
      "};\n";
  EXPECT_TRUE(
      HasCheck(LintOne("src/sim/parallel/spsc_ring.h", ring), "apiary-sync-discipline"));
  EXPECT_TRUE(HasCheck(LintOne("src/noc/spsc_ring.h", ring), "apiary-sync-discipline"));
}

TEST(SyncDiscipline, TestsAndBenchAreUnrestricted) {
  EXPECT_TRUE(LintOne("tests/x.cc", "std::mutex m;\n").empty());
  EXPECT_TRUE(LintOne("bench/x.cc", "std::atomic<int> a{0};\n").empty());
}

TEST(SyncDiscipline, DoesNotFlagLookalikes) {
  EXPECT_FALSE(HasCheck(
      LintOne("src/core/x.cc",
              "int thread_local_count();\n"
              "class Threads {\n};\n"),
      "apiary-sync-discipline"));
}

// ---------------------------------------------------------------------------
// apiary-wire-writer.
// ---------------------------------------------------------------------------

TEST(WireWriter, FlagsCallersOutsideTheFaultHooks) {
  const std::string call = "void Scrub(NocPacket& p) { p.CorruptWireBit(0, 1); }\n";
  EXPECT_TRUE(HasCheck(LintOne("src/noc/router.cc", call), "apiary-wire-writer"));
  EXPECT_TRUE(HasCheck(LintOne("src/core/monitor.cc", "pkt->CorruptWireBit(i, m);\n"),
                       "apiary-wire-writer"));
  EXPECT_FALSE(HasCheck(LintOne("src/fault/fault_injector.cc", call), "apiary-wire-writer"));
}

TEST(WireWriter, DefiningHeaderCommentsAndOtherNamesAreFine) {
  EXPECT_FALSE(HasCheck(LintOne("src/noc/packet.h",
                                "struct NocPacket {\n"
                                "  void CorruptWireBit(size_t index, uint8_t mask);\n"
                                "};\n"),
                        "apiary-wire-writer"));
  EXPECT_FALSE(HasCheck(LintOne("src/noc/network_interface.cc",
                                "// Only CorruptWireBit marks a packet touched.\n"
                                "void CorruptWireBits();\n"),
                        "apiary-wire-writer"));
}

TEST(WireWriter, TestsAndBenchAreUnrestricted) {
  const std::string call = "packet.CorruptWireBit(3, 0x80);\n";
  EXPECT_TRUE(LintOne("tests/x.cc", call).empty());
  EXPECT_TRUE(LintOne("bench/x.cc", call).empty());
}

// ---------------------------------------------------------------------------
// apiary-wake-path.
// ---------------------------------------------------------------------------

namespace {

// A Clocked subclass whose NextActivity can go fully idle, with no wake
// call anywhere in the file.
const char kParkedQueue[] =
    "class RxQueue : public Clocked {\n"
    " public:\n"
    "  void Deliver(int item) { pending_.push_back(item); }\n"
    "  void Tick(Cycle now) override { Drain(now); }\n"
    "  Cycle NextActivity(Cycle now) const override {\n"
    "    return pending_.empty() ? kNoActivity : now;\n"
    "  }\n"
    "  std::string DebugName() const override { return \"rx\"; }\n"
    " private:\n"
    "  void Drain(Cycle now);\n"
    "  std::vector<int> pending_;\n"
    "};\n";

}  // namespace

TEST(WakePath, FlagsNoActivityWithoutVisibleWake) {
  EXPECT_TRUE(HasCheck(LintOne("src/noc/rx.h", kParkedQueue), "apiary-wake-path"));
}

TEST(WakePath, WakeCallInFileClears) {
  std::string src = kParkedQueue;
  src.insert(src.find("void Tick"), "void Poke() { RequestWake(); }\n  ");
  EXPECT_FALSE(HasCheck(LintOne("src/noc/rx.h", src), "apiary-wake-path"));
}

TEST(WakePath, EvidenceAnywhereInThePairClears) {
  // Declaration parks in the header; the wake fires in the .cc.
  EXPECT_FALSE(HasCheck(
      LintMany({{"src/noc/rx.h", kParkedQueue},
                {"src/noc/rx.cc", "void RxQueue::Drain(Cycle now) {\n"
                                  "  (void)now;\n"
                                  "  hint_.Wake();\n"
                                  "}\n"}}),
      "apiary-wake-path"));
}

TEST(WakePath, SchedulingPolicyOverrideIsNoEvidence) {
  // There is no opt-out from parking: a policy override shows no waker.
  std::string src = kParkedQueue;
  src.insert(src.find("void Tick"),
             "SchedPolicy SchedulingPolicy() const override {\n"
             "    return SchedPolicy::kActiveSet;\n"
             "  }\n  ");
  EXPECT_TRUE(HasCheck(LintOne("src/noc/rx.h", src), "apiary-wake-path"));
}

TEST(WakePath, AnnotationNamingTheWakerBlesses) {
  std::string src = kParkedQueue;
  src.insert(src.find("  Cycle NextActivity"),
             "  // APIARY-WAKE(tile): the owning Tile wakes on NI delivery.\n");
  EXPECT_FALSE(HasCheck(LintOne("src/noc/rx.h", src), "apiary-wake-path"));
}

TEST(WakePath, MalformedAnnotationFires) {
  std::string src = kParkedQueue;
  src.insert(src.find("  Cycle NextActivity"), "  // APIARY-WAKE: missing source\n");
  const auto findings = LintOne("src/noc/rx.h", src);
  EXPECT_TRUE(HasCheck(findings, "apiary-wake-path"));
  bool saw_grammar = false;
  for (const auto& finding : findings) {
    if (finding.message.find("malformed APIARY-WAKE") != std::string::npos) {
      saw_grammar = true;
    }
  }
  EXPECT_TRUE(saw_grammar);
}

TEST(WakePath, BoundedDeclarationsAndCallSitesAreIgnored) {
  // Never returns kNoActivity: parking is always deadline-bounded.
  EXPECT_FALSE(HasCheck(
      LintOne("src/noc/timer.h",
              "class Timer : public Clocked {\n"
              " public:\n"
              "  void Tick(Cycle now) override { last_ = now; }\n"
              "  Cycle NextActivity(Cycle now) const override {\n"
              "    const Cycle at = last_ + 4;\n"
              "    return at > now ? at : now;\n"
              "  }\n"
              "  std::string DebugName() const override { return \"t\"; }\n"
              " private:\n"
              "  Cycle last_ = 0;\n"
              "};\n"),
      "apiary-wake-path"));
  // A *call* in an expression (even one mentioning kNoActivity nearby) is
  // not a definition.
  EXPECT_FALSE(HasCheck(
      LintOne("src/noc/sweep.cc",
              "Cycle Earliest(Clocked* b, Cycle now) {\n"
              "  if (b->NextActivity(now) <= now) {\n"
              "    return now;\n"
              "  }\n"
              "  return kNoActivity;\n"
              "}\n"),
      "apiary-wake-path"));
}

TEST(WakePath, TestsAndBenchAreUnrestricted) {
  EXPECT_FALSE(HasCheck(LintOne("tests/x.cc", kParkedQueue), "apiary-wake-path"));
  EXPECT_FALSE(HasCheck(LintOne("bench/x.cc", kParkedQueue), "apiary-wake-path"));
}

// ---------------------------------------------------------------------------
// apiary-nolint-reason.
// ---------------------------------------------------------------------------

TEST(NolintReason, FlagsReasonlessApiaryWaivers) {
  EXPECT_TRUE(HasCheck(
      LintOne("src/core/x.cc",
              "std::unordered_map<int, int> m_;  // NOLINT(apiary-determinism)\n"),
      "apiary-nolint-reason"));
  EXPECT_TRUE(HasCheck(LintOne("src/core/x.cc",
                               "// NOLINTNEXTLINE(apiary-determinism)\n"
                               "std::unordered_map<int, int> m_;\n"),
                       "apiary-nolint-reason"));
}

TEST(NolintReason, AcceptsReasonedWaivers) {
  EXPECT_FALSE(HasCheck(
      LintOne("src/core/x.cc",
              "std::unordered_map<int, int> m_;  "
              "// NOLINT(apiary-determinism): lookups only, never iterated\n"),
      "apiary-nolint-reason"));
}

TEST(NolintReason, BareNolintAndOtherToolsAreExempt) {
  // A bare NOLINT (no check list) is the escape hatch for other tools.
  EXPECT_FALSE(HasCheck(LintOne("src/core/x.cc", "int x = 0;  // NOLINT\n"),
                        "apiary-nolint-reason"));
  // Non-apiary check lists (clang-tidy's) are none of our business.
  EXPECT_FALSE(HasCheck(
      LintOne("src/core/x.cc",
              "int y = 0;  // NOLINT(readability-magic-numbers) "
              "APIARY-SHARED(process): fixture\n"),
      "apiary-nolint-reason"));
}

// ---------------------------------------------------------------------------
// apiary-opcode-coverage.
// ---------------------------------------------------------------------------

std::vector<SourceFile> OpcodeCorpus(bool with_handler, bool with_test) {
  std::vector<SourceFile> files;
  files.push_back(LexSource("src/services/opcodes.h",
                            "inline constexpr uint16_t kOpPing = 0x0601;\n"
                            "inline constexpr uint16_t kOpAppBase = 0x1000;\n"));
  if (with_handler) {
    files.push_back(LexSource("src/services/ping.cc", "case kOpPing: break;\n"));
  }
  files.push_back(LexSource("tests/ping_test.cc",
                            with_test ? "int x = kOpPing;\n" : "int x = 0;\n"));
  return files;
}

std::vector<Finding> OpcodeFindings(const std::vector<SourceFile>& files) {
  std::vector<Finding> out;
  for (auto& finding : RunAllChecks(files, DefaultConfig())) {
    if (finding.check == "apiary-opcode-coverage") {
      out.push_back(finding);
    }
  }
  return out;
}

TEST(OpcodeCoverage, CleanWhenHandledAndTested) {
  EXPECT_TRUE(OpcodeFindings(OpcodeCorpus(true, true)).empty());
}

TEST(OpcodeCoverage, FlagsMissingHandler) {
  const auto findings = OpcodeFindings(OpcodeCorpus(false, true));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].check, "apiary-opcode-coverage");
  EXPECT_NE(findings[0].message.find("no dispatching handler"), std::string::npos);
  EXPECT_EQ(findings[0].file, "src/services/opcodes.h");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(OpcodeCoverage, FlagsMissingTest) {
  const auto findings = OpcodeFindings(OpcodeCorpus(true, false));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("tests/"), std::string::npos);
}

TEST(OpcodeCoverage, TestRequirementOnlyWhenCorpusHasTests) {
  std::vector<SourceFile> files;
  files.push_back(LexSource("src/services/opcodes.h",
                            "inline constexpr uint16_t kOpPing = 0x0601;\n"));
  files.push_back(LexSource("src/services/ping.cc", "case kOpPing: break;\n"));
  EXPECT_TRUE(OpcodeFindings(files).empty());
}

TEST(OpcodeCoverage, NolintOnDefinitionSuppresses) {
  std::vector<SourceFile> files;
  files.push_back(LexSource(
      "src/services/opcodes.h",
      "inline constexpr uint16_t kOpFuture = 0x07ff;  // NOLINT(apiary-opcode-coverage)\n"));
  files.push_back(LexSource("tests/t.cc", "int x = 0;\n"));
  EXPECT_TRUE(OpcodeFindings(files).empty());
}

// Values: no two kOp* constants under src/ share one (`kOpAppBase + n`
// resolved), and none is defined outside the two ABI headers.
std::vector<Finding> OpcodeFindingsMentioning(const std::vector<SourceFile>& files,
                                              const std::string& text) {
  std::vector<Finding> out;
  for (auto& finding : OpcodeFindings(files)) {
    if (finding.message.find(text) != std::string::npos) {
      out.push_back(finding);
    }
  }
  return out;
}

TEST(OpcodeValues, FlagsDuplicateAcrossAbiHeadersThroughAppBase) {
  std::vector<SourceFile> files;
  files.push_back(LexSource("src/accel/accel_opcodes.h",
                            "inline constexpr uint16_t kOpEcho = kOpAppBase + 1;\n"));
  files.push_back(LexSource("src/services/opcodes.h",
                            "inline constexpr uint16_t kOpAppBase = 0x1000;\n"
                            "inline constexpr uint16_t kOpLegacy = 0x1001;\n"));
  const auto findings = OpcodeFindingsMentioning(files, "already taken");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/services/opcodes.h");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("kOpLegacy has value 0x1001, already taken by kOpEcho"),
            std::string::npos)
      << findings[0].message;
}

TEST(OpcodeValues, DistinctValuesAreClean) {
  std::vector<SourceFile> files;
  files.push_back(LexSource("src/services/opcodes.h",
                            "inline constexpr uint16_t kOpAppBase = 0x1000;\n"
                            "inline constexpr uint16_t kOpStats = 0x0601;\n"));
  files.push_back(LexSource("src/accel/accel_opcodes.h",
                            "inline constexpr uint16_t kOpEcho = kOpAppBase + 1;\n"));
  EXPECT_TRUE(OpcodeFindingsMentioning(files, "already taken").empty());
}

TEST(OpcodeValues, FlagsDefinitionOutsideAbiHeaders) {
  std::vector<SourceFile> files;
  files.push_back(LexSource("src/services/opcodes.h",
                            "inline constexpr uint16_t kOpOrchStats = 0x0601;\n"));
  files.push_back(LexSource("src/services/dma_service.h",
                            "inline constexpr uint16_t kOpDmaCopy = 0x0601;\n"));
  const auto outside = OpcodeFindingsMentioning(files, "outside the opcode ABI headers");
  ASSERT_EQ(outside.size(), 1u);
  EXPECT_EQ(outside[0].file, "src/services/dma_service.h");
  // The ABI header's constant owns the value; the stray definition is the duplicate.
  const auto taken = OpcodeFindingsMentioning(files, "already taken");
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_NE(taken[0].message.find("kOpDmaCopy has value 0x0601, already taken by kOpOrchStats"),
            std::string::npos)
      << taken[0].message;
}

TEST(OpcodeValues, IgnoresNonOpcodeNamesAndCodeOutsideSrc) {
  std::vector<SourceFile> files;
  files.push_back(LexSource("src/core/x.cc", "constexpr bool kOptimized = true;\n"));
  files.push_back(LexSource("tests/t.cc", "constexpr uint16_t kOpLocal = 0x0601;\n"));
  EXPECT_TRUE(OpcodeFindings(files).empty());
}

// ---------------------------------------------------------------------------
// End-to-end fixture runs of the binary.
// ---------------------------------------------------------------------------

int RunLintBinary(const std::string& fixture, const std::vector<std::string>& paths,
                  std::string* output) {
  std::string cmd = std::string(APIARY_LINT_BIN) + " --repo-root " +
                    std::string(APIARY_LINT_TESTDATA) + "/" + fixture;
  for (const auto& path : paths) {
    cmd += " " + path;
  }
  cmd += " 2>&1";
  output->clear();
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    return -1;
  }
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    *output += buffer;
  }
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

struct FixtureCase {
  std::string fixture;
  std::vector<std::string> paths;
  int expected_exit;
  std::string expected_check;  // Must appear in output when exit != 0.
};

TEST(Fixtures, GoodTreesAreCleanBadTreesFail) {
  const std::vector<FixtureCase> cases = {
      {"determinism/good", {"src"}, 0, ""},
      {"determinism/bad", {"src"}, 1, "apiary-determinism"},
      {"determinism/suppressed", {"src"}, 0, ""},
      {"layering/good", {"src"}, 0, ""},
      {"layering/bad", {"src"}, 1, "apiary-layering"},
      {"opcode/good", {"src", "tests"}, 0, ""},
      {"opcode/bad", {"src", "tests"}, 1, "apiary-opcode-coverage"},
      {"opcode/values_good", {"src", "tests"}, 0, ""},
      {"opcode/values_bad", {"src", "tests"}, 1, "apiary-opcode-coverage"},
      {"guard/good", {"src"}, 0, ""},
      {"guard/bad", {"src"}, 1, "apiary-include-guard"},
      {"debugname/good", {"src"}, 0, ""},
      {"debugname/bad", {"src"}, 1, "apiary-debug-name"},
      {"nodiscard/good", {"src"}, 0, ""},
      {"nodiscard/bad", {"src"}, 1, "apiary-nodiscard"},
      {"hotpath/good", {"src"}, 0, ""},
      {"hotpath/bad", {"src"}, 1, "apiary-hot-path"},
      {"hotpath/suppressed", {"src"}, 0, ""},
      {"expresspath/good", {"src"}, 0, ""},
      {"expresspath/bad", {"src"}, 1, "apiary-hot-path"},
      {"expresspath/suppressed", {"src"}, 0, ""},
      {"typedcounters/good", {"src"}, 0, ""},
      {"typedcounters/bad", {"src"}, 1, "apiary-hot-path"},
      {"fabricsort/good", {"src"}, 0, ""},
      {"fabricsort/bad", {"src"}, 1, "apiary-hot-path"},
      {"globalstate/good", {"src"}, 0, ""},
      {"globalstate/bad", {"src"}, 1, "apiary-global-state"},
      {"globalstate/suppressed", {"src"}, 0, ""},
      {"confinement/good", {"src"}, 0, ""},
      {"confinement/bad", {"src"}, 1, "apiary-domain-confinement"},
      {"confinement/suppressed", {"src"}, 0, ""},
      {"syncdiscipline/good", {"src"}, 0, ""},
      {"syncdiscipline/bad", {"src"}, 1, "apiary-sync-discipline"},
      {"syncdiscipline/suppressed", {"src"}, 0, ""},
      {"wakepath/good", {"src"}, 0, ""},
      {"wakepath/bad", {"src"}, 1, "apiary-wake-path"},
      {"wakepath/suppressed", {"src"}, 0, ""},
      {"wirewriter/good", {"src"}, 0, ""},
      {"wirewriter/bad", {"src"}, 1, "apiary-wire-writer"},
      {"nolintreason/bad", {"src"}, 1, "apiary-nolint-reason"},
  };
  for (const auto& c : cases) {
    std::string output;
    const int exit_code = RunLintBinary(c.fixture, c.paths, &output);
    EXPECT_EQ(exit_code, c.expected_exit) << c.fixture << "\n" << output;
    if (!c.expected_check.empty()) {
      EXPECT_NE(output.find(c.expected_check), std::string::npos)
          << c.fixture << "\n" << output;
    }
  }
}

TEST(Fixtures, OpcodeBadNamesBothGaps) {
  std::string output;
  const int exit_code = RunLintBinary("opcode/bad", {"src", "tests"}, &output);
  EXPECT_EQ(exit_code, 1) << output;
  EXPECT_NE(output.find("kOpOrphan has no dispatching handler"), std::string::npos)
      << output;
  EXPECT_NE(output.find("kOpOrphan is never referenced under tests/"), std::string::npos)
      << output;
}

// values_bad is the DMA service's old stray kOpDmaCopy = 0x0601, which
// collided with kOpOrchStats.
TEST(Fixtures, OpcodeValuesBadNamesStrayDefinitionAndCollision) {
  std::string output;
  const int exit_code = RunLintBinary("opcode/values_bad", {"src", "tests"}, &output);
  EXPECT_EQ(exit_code, 1) << output;
  EXPECT_NE(output.find("src/services/dma_service.h:8: [apiary-opcode-coverage] kOpDmaCopy is "
                        "defined outside the opcode ABI headers"),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("kOpDmaCopy has value 0x0601, already taken by kOpOrchStats "
                        "(src/services/opcodes.h:9)"),
            std::string::npos)
      << output;
}

TEST(Fixtures, MissingPathIsAUsageError) {
  std::string output;
  EXPECT_EQ(RunLintBinary("determinism/good", {"no_such_dir"}, &output), 2) << output;
}

// Golden-file test: the CLI's stdout is byte-for-byte stable — findings
// sorted by (file, line, check), fixed ToString format, trailing summary.
// Regenerate by redirecting `apiary_lint --repo-root tools/apiary_lint/
// testdata/cli src` into tools/apiary_lint/testdata/cli/expected_output.txt.
TEST(Fixtures, CliOutputMatchesGoldenFile) {
  std::string output;
  const int exit_code = RunLintBinary("cli", {"src"}, &output);
  EXPECT_EQ(exit_code, 1) << output;
  std::ifstream golden(std::string(APIARY_LINT_TESTDATA) + "/cli/expected_output.txt",
                       std::ios::binary);
  ASSERT_TRUE(golden.good()) << "missing golden file";
  std::ostringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(output, expected.str());
}

TEST(Fixtures, JsonOutputListsFindings) {
  const std::string json_path = "lint_test_cli_out.json";  // Test CWD (build dir).
  std::string output;
  const int exit_code = RunLintBinary("cli", {"--json=" + json_path, "src"}, &output);
  EXPECT_EQ(exit_code, 1) << output;
  std::ifstream in(json_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream json;
  json << in.rdbuf();
  std::remove(json_path.c_str());
  EXPECT_NE(json.str().find("\"files_scanned\": 2"), std::string::npos) << json.str();
  EXPECT_NE(json.str().find("\"check\": \"apiary-global-state\""), std::string::npos)
      << json.str();
  EXPECT_NE(json.str().find("\"file\": \"src/noc/b.cc\""), std::string::npos)
      << json.str();
}

TEST(Fixtures, CleanTreeWritesEmptyJsonAndExitsZero) {
  const std::string json_path = "lint_test_clean_out.json";  // Test CWD (build dir).
  std::string output;
  const int exit_code =
      RunLintBinary("determinism/good", {"--json=" + json_path, "src"}, &output);
  EXPECT_EQ(exit_code, 0) << output;
  std::ifstream in(json_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream json;
  json << in.rdbuf();
  std::remove(json_path.c_str());
  EXPECT_NE(json.str().find("\"findings\": []"), std::string::npos) << json.str();
}

}  // namespace
}  // namespace lint
}  // namespace apiary
