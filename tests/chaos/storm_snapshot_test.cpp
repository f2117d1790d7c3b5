// Checkpoint/restore bit-exactness under the full chaos storm: a run
// snapshotted mid-storm and resumed in a fresh StormRun must reproduce
// the uninterrupted run's digests, counters and invariants — at every
// parallel sweep width.
#include <gtest/gtest.h>

#include <string>

#include "chaos/soak.hpp"
#include "chaos/storm_sweep.hpp"
#include "chaos/storm_run.hpp"
#include "common/units.hpp"
#include "snapshot/io.hpp"

namespace quartz::chaos {
namespace {

/// Small but complete storm: every fault class fires, ~400k events.
StormParams quick_params(std::uint64_t seed) {
  StormParams params;
  params.seed = seed;
  params.packets = 10'000;
  params.storm_start = milliseconds(10);
  params.storm_end = milliseconds(40);
  params.quiesce_at = milliseconds(60);
  params.run_until = milliseconds(110);
  return params;
}

void expect_identical(const StormReport& a, const StormReport& b) {
  EXPECT_EQ(a.delivery_digest, b.delivery_digest);
  EXPECT_EQ(a.drop_digest, b.drop_digest);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.queue_drops, b.queue_drops);
  EXPECT_EQ(a.link_down_drops, b.link_down_drops);
  EXPECT_EQ(a.corrupted_drops, b.corrupted_drops);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.deaths, b.deaths);
  EXPECT_EQ(a.max_hops, b.max_hops);
  EXPECT_EQ(a.baseline_mean_us, b.baseline_mean_us);
  EXPECT_EQ(a.tail_mean_us, b.tail_mean_us);
  EXPECT_EQ(a.fluid_epochs, b.fluid_epochs);
  EXPECT_EQ(a.fluid_digest, b.fluid_digest);
  EXPECT_EQ(a.passed(), b.passed());
}

TEST(StormSnapshot, MidStormRestoreIsBitExact) {
  const StormReport plain = run_storm(quick_params(101));
  StormParams rehearsed = quick_params(101);
  rehearsed.restore_rehearsal = true;
  const StormReport resumed = run_storm(rehearsed);
  EXPECT_TRUE(plain.passed()) << plain.summary();
  expect_identical(plain, resumed);
}

TEST(StormSnapshot, FixedDelayModeRestoresToo) {
  StormParams params = quick_params(202);
  params.mode = DetectionMode::kFixedDelay;
  const StormReport plain = run_storm(params);
  StormParams rehearsed = params;
  rehearsed.restore_rehearsal = true;
  expect_identical(plain, run_storm(rehearsed));
}

TEST(StormSnapshot, SweepWithRehearsalIsJobsInvariant) {
  // Every storm in the sweep snapshots and restores mid-run; the report
  // vector must be identical at jobs 1, 2 and 8 — checkpoint/restore
  // composes with the parallel runner.
  StormParams base = quick_params(301);
  base.restore_rehearsal = true;
  const std::vector<StormReport> jobs1 = run_sweep(base, 3, 1);
  const std::vector<StormReport> jobs2 = run_sweep(base, 3, 2);
  const std::vector<StormReport> jobs8 = run_sweep(base, 3, 8);
  ASSERT_EQ(jobs1.size(), 3u);
  ASSERT_EQ(jobs2.size(), 3u);
  ASSERT_EQ(jobs8.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(jobs1[i].passed()) << jobs1[i].summary();
    expect_identical(jobs1[i], jobs2[i]);
    expect_identical(jobs1[i], jobs8[i]);
  }
}

TEST(StormSnapshot, HybridStormRestoresBitExact) {
  // Hybrid slice: the fluid background's epoch chain and bias state
  // ride the mid-storm snapshot, so a restored run must reproduce the
  // fluid digest along with the packet digests.
  StormParams params = quick_params(606);
  params.hybrid_background = true;
  const StormReport plain = run_storm(params);
  EXPECT_TRUE(plain.passed()) << plain.summary();
  EXPECT_GT(plain.fluid_epochs, 0u);
  StormParams rehearsed = params;
  rehearsed.restore_rehearsal = true;
  const StormReport resumed = run_storm(rehearsed);
  expect_identical(plain, resumed);
}

TEST(StormSnapshot, RestoreRefusesHybridMismatch) {
  // A snapshot from a hybrid storm must not restore into a plain run:
  // the handler map (and the FLUI chunk) would not line up.
  StormParams hybrid = quick_params(707);
  hybrid.hybrid_background = true;
  StormRun run(hybrid);
  run.arm();
  run.run_to(milliseconds(20));
  snapshot::Writer w;
  run.save(w);
  std::string error;
  auto reader = snapshot::Reader::from_bytes(snapshot::file_bytes(w, 0), &error);
  ASSERT_TRUE(reader.has_value()) << error;
  StormRun plain(quick_params(707));
  EXPECT_THROW(plain.restore(*reader), std::invalid_argument);
}

TEST(StormSnapshot, RestoreRefusesDifferentParams) {
  StormRun run(quick_params(404));
  run.arm();
  run.run_to(milliseconds(20));
  snapshot::Writer w;
  run.save(w);
  std::string error;
  auto reader = snapshot::Reader::from_bytes(snapshot::file_bytes(w, 0), &error);
  ASSERT_TRUE(reader.has_value()) << error;
  StormRun other(quick_params(405));  // different seed
  EXPECT_THROW(other.restore(*reader), std::invalid_argument);
}

TEST(StormSnapshot, RestoreRefusesArmedRun) {
  StormRun run(quick_params(505));
  run.arm();
  run.run_to(milliseconds(20));
  snapshot::Writer w;
  run.save(w);
  std::string error;
  auto reader = snapshot::Reader::from_bytes(snapshot::file_bytes(w, 0), &error);
  ASSERT_TRUE(reader.has_value()) << error;
  StormRun armed(quick_params(505));
  armed.arm();
  EXPECT_THROW(armed.restore(*reader), std::invalid_argument);
}

}  // namespace
}  // namespace quartz::chaos
