// The shared flag vocabulary (engine/flags.h): every parser's accepted
// spellings, and for every rejected one the canonical error on stderr.
#include "engine/flags.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace relax::engine::flags {
namespace {

/// Runs `parse` with stderr captured; returns what it printed.
template <typename Parse>
std::string stderr_of(Parse parse) {
  testing::internal::CaptureStderr();
  parse();
  return testing::internal::GetCapturedStderr();
}

TEST(Flags, PopBatchAcceptsFixedAutoAndCappedAuto) {
  const auto fixed = parse_pop_batch("8");
  ASSERT_TRUE(fixed);
  EXPECT_EQ(fixed->batch, 8u);
  EXPECT_FALSE(fixed->adaptive);

  const auto adaptive = parse_pop_batch("auto");
  ASSERT_TRUE(adaptive);
  EXPECT_EQ(adaptive->batch, JobConfig::kDefaultAutoPopBatch);
  EXPECT_TRUE(adaptive->adaptive);

  const auto capped = parse_pop_batch("auto:16");
  ASSERT_TRUE(capped);
  EXPECT_EQ(capped->batch, 16u);
  EXPECT_TRUE(capped->adaptive);
}

TEST(Flags, PopBatchRejectsZeroAndGarbage) {
  for (const char* bad : {"0", "auto:0", "x"}) {
    const std::string err =
        stderr_of([&] { EXPECT_FALSE(parse_pop_batch(bad)); });
    EXPECT_NE(err.find(std::string("error: invalid --pop-batch '") + bad +
                       "'"),
              std::string::npos)
        << err;
  }
}

TEST(Flags, PopBatchList) {
  const auto list = parse_pop_batch_list("1,8,auto:8");
  ASSERT_TRUE(list);
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[0].batch, 1u);
  EXPECT_EQ((*list)[1].batch, 8u);
  EXPECT_FALSE((*list)[1].adaptive);
  EXPECT_EQ((*list)[2].batch, 8u);
  EXPECT_TRUE((*list)[2].adaptive);

  const std::string err =
      stderr_of([] { EXPECT_FALSE(parse_pop_batch_list("8,")); });
  EXPECT_NE(err.find("error: invalid --pop-batch '8,': empty value or "
                     "empty list entry"),
            std::string::npos)
      << err;
  EXPECT_FALSE(parse_pop_batch_list("1,0"));
}

TEST(Flags, Numa) {
  const auto off = parse_numa("off");
  ASSERT_TRUE(off);
  EXPECT_FALSE(off->enabled());

  const auto virt = parse_numa("virtual:2");
  ASSERT_TRUE(virt);
  EXPECT_EQ(virt->mode, util::TopologyMode::kVirtual);
  EXPECT_EQ(virt->domains, 2u);

  const std::string err =
      stderr_of([] { EXPECT_FALSE(parse_numa("virtual:0")); });
  EXPECT_NE(err.find("error: invalid --numa 'virtual:0'"), std::string::npos)
      << err;

  const auto list = parse_numa_list("off,virtual:2");
  ASSERT_TRUE(list);
  EXPECT_EQ(list->size(), 2u);
  EXPECT_FALSE(parse_numa_list("off,virtual:0"));
}

TEST(Flags, ServerBackendResolution) {
  // "" = no entries: the server runs the registry default.
  const auto none = resolve_backends("");
  ASSERT_TRUE(none);
  EXPECT_TRUE(none->empty());

  const auto mix = resolve_backends("mix");
  ASSERT_TRUE(mix);
  EXPECT_EQ(mix->size(), sched::backend_registry().size());

  const auto one = resolve_backends("spraylist");
  ASSERT_TRUE(one);
  ASSERT_EQ(one->size(), 1u);
  EXPECT_EQ((*one)[0]->name, "spraylist");

  // The bench-list word is not a server spelling, and vice versa.
  EXPECT_FALSE(resolve_backends("all"));
  EXPECT_FALSE(parse_backend("mix"));

  const std::string err =
      stderr_of([] { EXPECT_FALSE(resolve_backends("nope")); });
  EXPECT_NE(err.find("error: unknown backend 'nope'; valid: mix, "),
            std::string::npos)
      << err;
}

TEST(Flags, SingleBackend) {
  const auto* info = parse_backend("multiqueue-c4");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->name, "multiqueue-c4");
  const std::string err =
      stderr_of([] { EXPECT_EQ(parse_backend("nope"), nullptr); });
  EXPECT_NE(err.find("error: unknown backend 'nope'; valid: "),
            std::string::npos)
      << err;
}

TEST(Flags, BenchBackendList) {
  const auto all = parse_backend_list("all");
  ASSERT_TRUE(all);
  EXPECT_EQ(all->size(), sched::backend_registry().size());

  const auto two = parse_backend_list("exact,multiqueue-c2");
  ASSERT_TRUE(two);
  ASSERT_EQ(two->size(), 2u);
  EXPECT_EQ((*two)[0]->name, "exact");
  EXPECT_EQ((*two)[1]->name, "multiqueue-c2");

  EXPECT_FALSE(parse_backend_list("mix"));
  const std::string unknown =
      stderr_of([] { EXPECT_FALSE(parse_backend_list("exact,nope")); });
  EXPECT_NE(unknown.find("error: unknown backend 'nope'; valid: all, "),
            std::string::npos)
      << unknown;
  const std::string empty =
      stderr_of([] { EXPECT_FALSE(parse_backend_list("mq,")); });
  EXPECT_NE(empty.find("error: invalid --backends 'mq,': empty value"),
            std::string::npos)
      << empty;
}

TEST(Flags, WeightRange) {
  EXPECT_EQ(parse_weight("weight", "1"), 1u);
  EXPECT_EQ(parse_weight("weight", "1024"), JobConfig::kMaxWeight);
  for (const char* bad : {"0", "1025", "", "2x", "-1"}) {
    const std::string err =
        stderr_of([&] { EXPECT_FALSE(parse_weight("weight", bad)); });
    EXPECT_NE(err.find(std::string("error: invalid --weight '") + bad +
                       "': expected an integer in [1, 1024]"),
              std::string::npos)
        << err;
  }
  // A list entry may allow 0 ("server default").
  EXPECT_EQ(parse_weight("weights", "0", /*min=*/0), 0u);
}

TEST(Flags, SplitAxis) {
  const auto tokens = split_axis("policies", "uniform,split");
  ASSERT_TRUE(tokens);
  EXPECT_EQ(tokens->size(), 2u);
  for (const char* bad : {"", ",a", "a,,b"}) {
    const std::string err =
        stderr_of([&] { EXPECT_FALSE(split_axis("policies", bad)); });
    EXPECT_NE(err.find("error: invalid --policies"), std::string::npos)
        << err;
  }
}

TEST(Flags, DumpsAreNoOpsWithoutAPathAndReportUnwritableOnes) {
  obs::MetricsRegistry registry;
  obs::TraceRing ring(1);
  EXPECT_TRUE(dump_metrics(registry, ""));
  EXPECT_TRUE(dump_trace(ring, ""));
  const std::string bad = "/nonexistent-dir/out.json";
  testing::internal::CaptureStderr();
  EXPECT_FALSE(dump_metrics(registry, bad));
  EXPECT_FALSE(dump_trace(ring, bad));
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("warning: cannot write"), std::string::npos) << err;
}

TEST(Flags, DumpMetricsPicksJsonBySuffix) {
  obs::MetricsRegistry registry;
  const std::string path = testing::TempDir() + "flags_test_metrics.json";
  testing::internal::CaptureStdout();
  ASSERT_TRUE(dump_metrics(registry, path));
  testing::internal::GetCapturedStdout();
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), registry.to_json());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace relax::engine::flags
