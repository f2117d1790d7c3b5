// Engine microbenchmark: the typed pooled event queue on a Fig. 18-shaped
// replay (Poisson arrivals -> per-hop header-decision / transmit-complete
// chains -> delivery).  Measures ns/event and allocations/event via a
// counting operator-new hook, and enforces the engine's acceptance bars:
// zero steady-state allocations and an absolute ns/event budget.  A
// second section times one sharded storm at 1, min(8, hardware threads)
// and 8 shards in interleaved pairs and gates the wall-clock speedups
// (see multicore_report()).
#include "report.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>

#include "chaos/sharded_storm.hpp"
#include "common/check.hpp"
#include "sim/event_queue.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t alloc_count() { return g_alloc_count.load(std::memory_order_relaxed); }
}  // namespace

// Counting allocator hook: every heap allocation in this binary bumps
// the counter, so a region's allocation cost is a simple delta.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t al = std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, al, size ? size : 1) == 0) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace quartz;

// --- the Fig. 18-shaped replay ----------------------------------------------
//
// Local traffic: 64 concurrent flows each inject a packet every 200 ns,
// and every packet rides 1-3 switch hops (header decision + transmit
// complete per hop) before delivery, so a few hundred events are always
// in flight — the heap depth of a real Fig. 18 run.

constexpr TimePs kArrivalGap = 200 * kNanosecond;
constexpr TimePs kDecisionDelay = 150 * kNanosecond;
constexpr TimePs kLinkDelay = 500 * kNanosecond;
constexpr TimePs kHostOverhead = 250 * kNanosecond;
constexpr int kFlows = 64;
constexpr TimePs kFlowStagger = kArrivalGap / kFlows;

int hops_for(std::uint64_t id) { return 1 + static_cast<int>(id % 3); }

class TypedReplay final : public sim::EventHandler, public sim::TimerHandler {
 public:
  TypedReplay() { queue_.set_handler(this); }

  void run(std::uint64_t packets) {
    remaining_ = packets;
    for (int flow = 0; flow < kFlows; ++flow) {
      queue_.schedule_timer(queue_.now() + kArrivalGap + flow * kFlowStagger, {this, 0, 0, 0});
    }
    while (!queue_.empty()) queue_.run_one();
  }

  std::uint64_t events_run() const { return queue_.events_run(); }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t checksum() const { return checksum_; }
  const sim::EventQueue& engine() const { return queue_; }

 private:
  /// One flow's next arrival.
  void on_timer(const sim::TimerEvent&) override {
    if (remaining_ == 0) return;  // the other flows drained the budget
    const std::uint64_t id = next_id_++;
    --remaining_;
    sim::PacketEvent event;
    event.packet.id = id;
    event.packet.created = queue_.now();
    event.t0 = queue_.now() + kDecisionDelay;
    queue_.schedule_packet(event.t0, sim::EventType::kHeaderDecision, event);
    if (remaining_ > 0) queue_.schedule_timer(queue_.now() + kArrivalGap, {this, 0, 0, 0});
  }

  void on_packet_event(sim::EventType type, sim::PacketEvent& event) override {
    const TimePs now = queue_.now();
    switch (type) {
      case sim::EventType::kHeaderDecision:
        event.t0 = now + kLinkDelay;
        queue_.schedule_packet(event.t0, sim::EventType::kTransmitComplete, event);
        return;
      case sim::EventType::kTransmitComplete:
        ++event.packet.hops;
        if (event.packet.hops < hops_for(event.packet.id)) {
          event.t0 = now + kDecisionDelay;
          queue_.schedule_packet(event.t0, sim::EventType::kHeaderDecision, event);
        } else {
          event.t0 = now + kHostOverhead;
          queue_.schedule_packet(event.t0, sim::EventType::kDelivery, event);
        }
        return;
      case sim::EventType::kDelivery:
        ++delivered_;
        checksum_ += event.packet.id + static_cast<std::uint64_t>(now - event.packet.created);
        return;
      default:
        QUARTZ_CHECK(false, "unexpected event type in replay");
    }
  }
  void on_fault_event(const sim::FaultEvent&) override {}

  sim::EventQueue queue_;
  std::uint64_t remaining_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t checksum_ = 0;
};

struct RunStats {
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  double seconds = 0;
  double events_per_sec() const { return seconds > 0 ? events / seconds : 0; }
  double allocs_per_event() const { return events > 0 ? static_cast<double>(allocs) / events : 0; }
};

template <typename Fn>
RunStats timed(Fn&& fn) {
  RunStats stats;
  const std::uint64_t allocs_before = alloc_count();
  const auto start = std::chrono::steady_clock::now();
  stats.events = fn();
  const auto stop = std::chrono::steady_clock::now();
  stats.allocs = alloc_count() - allocs_before;
  stats.seconds = std::chrono::duration<double>(stop - start).count();
  return stats;
}

constexpr std::uint64_t kWarmPackets = 20'000;
constexpr std::uint64_t kPackets = 300'000;
constexpr int kTimedRuns = 5;

// Absolute ns/event budget for the typed engine, enforced under NDEBUG.
// Ten interleaved runs of the replay on a 4-vCPU Xeon VM (Release)
// measured the std::function priority_queue this engine replaced at a
// median 152.8 ns/event and the typed engine at 29.0-47.4 ns/event
// (median 38.2); the budget is that legacy median divided by 3, rounded
// down, so it is at least as strict as the old >= 3x speedup bar.
constexpr double kNsPerEventBudget = 50.0;
#ifdef NDEBUG
constexpr bool kBudgetChecked = true;
#else
constexpr bool kBudgetChecked = false;  // unoptimized builds are far slower
#endif

void multicore_report();

void report() {
  bench::Report::instance().open("engine", "Typed pooled event engine");

  // The engine is measured in steady state: a warm run grows the slot
  // pools and heap storage to their high-water mark, then the measured
  // runs must not allocate at all.  The budget binds the median run.
  TypedReplay replay;
  replay.run(kWarmPackets);
  std::vector<RunStats> runs;
  std::uint64_t allocs = 0;
  for (int i = 0; i < kTimedRuns; ++i) {
    const std::uint64_t before = replay.events_run();
    runs.push_back(timed([&] {
      replay.run(kPackets);
      return replay.events_run() - before;
    }));
    allocs += runs.back().allocs;
  }
  QUARTZ_CHECK(replay.delivered() == kWarmPackets + kTimedRuns * kPackets,
               "typed replay must deliver every packet");
  std::sort(runs.begin(), runs.end(),
            [](const RunStats& a, const RunStats& b) { return a.seconds < b.seconds; });
  const RunStats& typed = runs[runs.size() / 2];
  const double ns_per_event = typed.seconds * 1e9 / static_cast<double>(typed.events);

  Table table({"engine", "events", "events/sec (M)", "ns/event", "allocations", "allocs/event"});
  char eps[16], nspe[16], ape[16];
  std::snprintf(eps, sizeof(eps), "%.2f", typed.events_per_sec() / 1e6);
  std::snprintf(nspe, sizeof(nspe), "%.1f", ns_per_event);
  std::snprintf(ape, sizeof(ape), "%.3f", typed.allocs_per_event());
  table.add_row({"typed pooled engine (median of " + std::to_string(kTimedRuns) + ")",
                 std::to_string(typed.events), eps, nspe, std::to_string(allocs), ape});
  bench::Report::instance().add_table("engine_microbench", table);
  std::printf("typed engine: %.1f ns/event (budget %.0f, %s); steady-state allocations: %llu; "
              "pool high-water: %zu packet slots, %zu timer slots\n",
              ns_per_event, kNsPerEventBudget, kBudgetChecked ? "enforced" : "reported only",
              static_cast<unsigned long long>(allocs), replay.engine().packet_pool_capacity(),
              replay.engine().timer_pool_capacity());
  bench::Report::instance().add_row(
      "engine_summary",
      {{"typed_events_per_sec", typed.events_per_sec()},
       {"ns_per_event", ns_per_event},
       {"ns_per_event_budget", kNsPerEventBudget},
       {"budget_checked", static_cast<std::int64_t>(kBudgetChecked ? 1 : 0)},
       {"typed_steady_state_allocs", static_cast<std::int64_t>(allocs)},
       {"typed_allocs_per_event", typed.allocs_per_event()},
       {"events_per_run", static_cast<std::int64_t>(typed.events)}});

  QUARTZ_CHECK(allocs == 0,
               "the typed engine must run the warm Fig. 18 replay with zero allocations");
  if (kBudgetChecked) {
    QUARTZ_CHECK(ns_per_event <= kNsPerEventBudget,
                 "typed engine ns/event is above its budget");
  }
  std::printf("check: %.1f ns/event <= %.0f (%s), steady-state allocations == 0\n",
              ns_per_event, kNsPerEventBudget, kBudgetChecked ? "enforced" : "reported only");
  bench::print_note(
      "the typed engine recycles POD slots through free lists and "
      "schedules through a two-tier calendar (O(1) bucket appends, exact "
      "ordering in a window-sized heap), so a warm steady-state "
      "simulation never allocates");

  multicore_report();
}

// --- intra-run sharding at million-event scale ------------------------------
//
// ONE composite-fabric simulation (ring-of-rings:8x8@2, 128 hosts,
// ~1.6M events serial) through the conservative time-windowed parallel
// engine at 1 shard, at min(8, hardware threads) shards and at 8
// shards.  The digest equality is CHECKed unconditionally — parallel
// execution must preserve the serial event order bit-for-bit.  Both
// speedup bars are WALL-CLOCK ratios (serial wall / sharded wall), not
// events/sec ratios: events at N shards include the replicated control
// plane.  Serial and sharded runs alternate (kMulticorePairs pairs,
// bench::paired_ratio) and each bar binds the median of the per-pair
// ratios, so host drift between runs cancels instead of moving the
// ratio.  They bind only on optimized builds:
//   * min(8, hardware threads) shards: >= kBoundSpeedupBar wherever
//     that is >= 4 shards, i.e. on every host with >= 4 threads.
//   * 8 shards: >= 3x, only with >= 8 hardware threads, because below
//     that the shards share cores and the barrier parks.
// Each row also reports the window ledger's barrier-wait share: the
// fraction of the shards' wall clock spent inside the window barrier.

constexpr int kMulticorePairs = 5;
constexpr double kBoundSpeedupBar = 1.25;

chaos::ShardedStormParams multicore_params(int shards) {
  chaos::ShardedStormParams params;
  params.seed = 4242;
  params.composite = "ring-of-rings:8x8@2";
  params.shards = shards;
  params.packets_per_host = 1000;
  params.packet_gap = microseconds(1);
  params.cuts = 0;
  params.gray_links = 0;
  params.flapping_links = 0;
  params.storm_start = 0;
  params.storm_end = 0;
  params.run_until = milliseconds(2);
  return params;
}

struct MulticoreRun {
  int shards = 1;
  chaos::ShardedStormResult result;  // of the last run
  std::vector<double> seconds;       // wall clock of every run

  void run() {
    const auto start = std::chrono::steady_clock::now();
    result = chaos::run_sharded_storm(multicore_params(shards));
    seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  }
  double median_seconds() const {
    std::vector<double> sorted = seconds;
    std::sort(sorted.begin(), sorted.end());
    return sorted.empty() ? 0 : sorted[sorted.size() / 2];
  }
  double events_per_sec() const {
    const double s = median_seconds();
    return s > 0 ? static_cast<double>(result.events) / s : 0;
  }
};

/// Serial vs `sharded` in alternating pairs: the distribution of
/// serial wall / sharded wall.
bench::PairedRatio paired_speedup(MulticoreRun& serial, MulticoreRun& sharded) {
  return bench::paired_ratio(
      kMulticorePairs, [&serial] { serial.run(); }, [&sharded] { sharded.run(); });
}

void multicore_report() {
  const unsigned cores = std::thread::hardware_concurrency();
  const int bound_shards = static_cast<int>(std::clamp(cores, 1u, 8u));
  MulticoreRun serial{1};
  MulticoreRun sharded{8};
  const bench::PairedRatio ratio = paired_speedup(serial, sharded);
  const bool bound_distinct = bound_shards != 1 && bound_shards != 8;
  MulticoreRun bound_run{bound_shards};
  const bench::PairedRatio bound_ratio = bound_distinct      ? paired_speedup(serial, bound_run)
                                         : bound_shards == 1 ? bench::PairedRatio{{}, 1, 1, 1}
                                                             : ratio;
  const MulticoreRun& at_bound = bound_distinct      ? bound_run
                                 : bound_shards == 1 ? serial
                                                     : sharded;

  auto matches = [&serial](const MulticoreRun& run) {
    return serial.result.delivery_digest == run.result.delivery_digest &&
           serial.result.drop_digest == run.result.drop_digest;
  };
  const bool digest_match = matches(at_bound) && matches(sharded);
  const double speedup = ratio.median;
  const double bound_speedup = bound_ratio.median;
  const double barrier_share = sim::barrier_wait_share(sharded.result.window_stats);
  const double bound_barrier_share = sim::barrier_wait_share(at_bound.result.window_stats);

  Table table({"configuration", "events", "deliveries", "wall (s)", "events/sec (M)",
               "barrier wait (us/window)", "barrier share"});
  std::vector<const MulticoreRun*> rows = {&serial};
  if (bound_distinct) rows.push_back(&at_bound);
  rows.push_back(&sharded);
  for (const MulticoreRun* run : rows) {
    const std::vector<sim::WindowStats>& windows = run->result.window_stats;
    double wait_us = 0;
    for (const sim::WindowStats& w : windows) wait_us += w.wait_us_per_window();
    if (!windows.empty()) wait_us /= static_cast<double>(windows.size());
    char wall[16], eps[16], wait[16], share[16];
    std::snprintf(wall, sizeof(wall), "%.3f", run->median_seconds());
    std::snprintf(eps, sizeof(eps), "%.2f", run->events_per_sec() / 1e6);
    std::snprintf(wait, sizeof(wait), "%.2f", wait_us);
    std::snprintf(share, sizeof(share), "%.3f", sim::barrier_wait_share(windows));
    const std::string name = run->shards == 1 ? std::string("1 shard (serial reference)")
                                              : std::to_string(run->shards) + " shards";
    table.add_row({name, std::to_string(run->result.events),
                   std::to_string(run->result.deliveries), wall, eps, wait, share});
  }
  bench::Report::instance().add_table("engine_multicore", table);

#ifdef NDEBUG
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  // Each speedup bar only binds where it can physically hold.
  const bool checked = optimized && cores >= 8;
  const bool bound_checked = optimized && bound_shards >= 4;
  bench::Report::instance().add_row(
      "engine_multicore_summary",
      {{"serial_events_per_sec", serial.events_per_sec()},
       {"sharded_events_per_sec", sharded.events_per_sec()},
       {"serial_events", static_cast<std::int64_t>(serial.result.events)},
       {"speedup", speedup},
       {"barrier_share", barrier_share},
       {"digest_match", static_cast<std::int64_t>(digest_match ? 1 : 0)},
       {"hardware_threads", static_cast<std::int64_t>(cores)},
       {"speedup_checked", static_cast<std::int64_t>(checked ? 1 : 0)},
       {"bound_shards", static_cast<std::int64_t>(bound_shards)},
       {"bound_speedup", bound_speedup},
       {"bound_speedup_q1", bound_ratio.q1},
       {"bound_speedup_q3", bound_ratio.q3},
       {"speedup_pairs", static_cast<std::int64_t>(kMulticorePairs)},
       {"bound_speedup_bar", kBoundSpeedupBar},
       {"bound_speedup_checked", static_cast<std::int64_t>(bound_checked ? 1 : 0)},
       {"bound_barrier_share", bound_barrier_share}});

  QUARTZ_CHECK(digest_match,
               "sharded execution must reproduce the serial digests bit-for-bit");
  QUARTZ_CHECK(serial.result.deliveries > 0 && serial.result.events >= 1'000'000,
               "multicore bench must run at million-event scale");
  if (bound_checked) {
    QUARTZ_CHECK(bound_speedup >= kBoundSpeedupBar,
                 "min(8, hardware threads)-shard wall-clock speedup is below its bar");
  }
  if (checked) {
    QUARTZ_CHECK(speedup >= 3.0, "8-shard wall-clock speedup is below the 3x acceptance bar");
  }
  std::printf("multicore: %llu events; wall-clock speedup %.2fx [%.2f, %.2f] at %d shards "
              "(median of %d pairs, bar %.2fx %s), "
              "%.2fx at 8 shards (bar %s); barrier share %.3f at %d shards, %.3f at 8; "
              "%u hw threads, digest %s\n",
              static_cast<unsigned long long>(serial.result.events), bound_speedup,
              bound_ratio.q1, bound_ratio.q3, bound_shards, kMulticorePairs, kBoundSpeedupBar,
              bound_checked ? "enforced" : "reported only",
              speedup,
              checked ? "enforced: >=3x" : "reported only (needs NDEBUG + >=8 threads)",
              bound_barrier_share, bound_shards, barrier_share, cores,
              digest_match ? "match" : "MISMATCH");
}

void BM_TypedEngine(benchmark::State& state) {
  TypedReplay replay;
  replay.run(kWarmPackets);  // grow pools outside the timed loop
  for (auto _ : state) {
    replay.run(20'000);
    benchmark::DoNotOptimize(replay.checksum());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 20'000);
}
BENCHMARK(BM_TypedEngine)->Unit(benchmark::kMillisecond);


}  // namespace

QUARTZ_BENCH_MAIN(report)
