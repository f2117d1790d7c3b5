// Engine microbenchmark: the typed pooled event queue against the
// std::function priority_queue it replaced, on a Fig. 18-shaped replay
// (Poisson arrivals -> per-hop header-decision / transmit-complete
// chains -> delivery).  Measures events/sec and allocations/event via a
// counting operator-new hook, and enforces the refactor's acceptance
// bar: zero steady-state allocations and a real speedup.  A second
// section times one sharded storm at 1, min(8, hardware threads) and 8
// shards and gates the wall-clock speedups (see multicore_report()).
#include "report.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <new>
#include <queue>
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

// --- the pre-refactor queue, verbatim (renamed), as the baseline ------------
//
// This is the std::function event queue the engine replaced: every
// schedule() heap-allocates a closure (a captured Packet never fits the
// inline buffer), and run_one() const_cast-moves from priority_queue
// top().  Kept here so the microbench always measures against the real
// before, not a strawman.
class LegacyEventQueue {
 public:
  using Action = std::function<void()>;

  void schedule(TimePs when, Action action) {
    QUARTZ_REQUIRE(when >= now_, "cannot schedule into the past");
    heap_.push(Event{when, next_seq_++, std::move(action)});
  }

  bool empty() const { return heap_.empty(); }
  TimePs now() const { return now_; }

  void run_one() {
    QUARTZ_REQUIRE(!heap_.empty(), "queue is empty");
    Event event = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    now_ = event.time;
    event.action();
  }

 private:
  struct Event {
    TimePs time;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  TimePs now_ = 0;
  std::uint64_t next_seq_ = 0;
};

// --- the Fig. 18-shaped replay ----------------------------------------------
//
// Local traffic: 64 concurrent flows each inject a packet every 200 ns,
// and every packet rides 1-3 switch hops (header decision + transmit
// complete per hop) before delivery, so a few hundred events are always
// in flight — the heap depth of a real Fig. 18 run, where the two
// engines' per-level costs actually diverge.  Both replays drive the
// exact same event chain; only the engine differs.

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

class LegacyReplay {
 public:
  void run(std::uint64_t packets) {
    remaining_ = packets;
    for (int flow = 0; flow < kFlows; ++flow) {
      queue_.schedule(queue_.now() + kArrivalGap + flow * kFlowStagger, [this] { arrival(); });
    }
    while (!queue_.empty()) {
      queue_.run_one();
      ++events_run_;
    }
  }

  std::uint64_t events_run() const { return events_run_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t checksum() const { return checksum_; }

 private:
  void arrival() {
    if (remaining_ == 0) return;  // the other flows drained the budget
    const std::uint64_t id = next_id_++;
    --remaining_;
    sim::Packet p;
    p.id = id;
    p.created = queue_.now();
    // The captured Packet is what the pre-refactor Network carried in
    // every closure; it overflows the std::function inline buffer, so
    // each hop's schedule() allocates.
    queue_.schedule(queue_.now() + kDecisionDelay, [this, p] { header_decision(p); });
    if (remaining_ > 0) queue_.schedule(queue_.now() + kArrivalGap, [this] { arrival(); });
  }

  void header_decision(sim::Packet p) {
    queue_.schedule(queue_.now() + kLinkDelay, [this, p] { transmit_complete(p); });
  }

  void transmit_complete(sim::Packet p) {
    ++p.hops;
    if (p.hops < hops_for(p.id)) {
      queue_.schedule(queue_.now() + kDecisionDelay, [this, p] { header_decision(p); });
    } else {
      queue_.schedule(queue_.now() + kHostOverhead, [this, p] { deliver(p); });
    }
  }

  void deliver(const sim::Packet& p) {
    ++delivered_;
    checksum_ += p.id + static_cast<std::uint64_t>(queue_.now() - p.created);
  }

  LegacyEventQueue queue_;
  std::uint64_t remaining_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t checksum_ = 0;
  std::uint64_t events_run_ = 0;
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

void multicore_report();

void report() {
  bench::Report::instance().open(
      "engine", "Typed pooled event engine vs the std::function queue it replaced");

  LegacyReplay legacy_replay;
  const RunStats legacy = timed([&] {
    legacy_replay.run(kPackets);
    return legacy_replay.events_run();
  });
  QUARTZ_CHECK(legacy_replay.delivered() == kPackets, "legacy replay must deliver every packet");

  // The typed engine is measured in steady state: a warm run grows the
  // slot pools and heap storage to their high-water mark, then the
  // measured run must not allocate at all.
  TypedReplay typed_replay;
  typed_replay.run(kWarmPackets);
  const std::uint64_t warm_events = typed_replay.events_run();
  const RunStats typed = timed([&] {
    typed_replay.run(kPackets);
    return typed_replay.events_run() - warm_events;
  });
  QUARTZ_CHECK(typed_replay.delivered() == kWarmPackets + kPackets,
               "typed replay must deliver every packet");
  QUARTZ_CHECK(typed.events == legacy.events, "both replays must run the same event chain");

  const double speedup = typed.events_per_sec() / legacy.events_per_sec();
  Table table({"engine", "events", "events/sec (M)", "allocations", "allocs/event"});
  for (const auto& [name, stats] :
       {std::pair<const char*, const RunStats&>{"std::function priority_queue (legacy)", legacy},
        {"typed pooled engine", typed}}) {
    char eps[16], ape[16];
    std::snprintf(eps, sizeof(eps), "%.2f", stats.events_per_sec() / 1e6);
    std::snprintf(ape, sizeof(ape), "%.3f", stats.allocs_per_event());
    table.add_row({name, std::to_string(stats.events), eps, std::to_string(stats.allocs), ape});
  }
  bench::Report::instance().add_table("engine_microbench", table);
  std::printf("speedup: %.2fx; typed steady-state allocations: %llu; pool high-water: "
              "%zu packet slots, %zu timer slots\n",
              speedup, static_cast<unsigned long long>(typed.allocs),
              typed_replay.engine().packet_pool_capacity(),
              typed_replay.engine().timer_pool_capacity());
  bench::Report::instance().add_row(
      "engine_summary",
      {{"legacy_events_per_sec", legacy.events_per_sec()},
       {"typed_events_per_sec", typed.events_per_sec()},
       {"speedup", speedup},
       {"legacy_allocs_per_event", legacy.allocs_per_event()},
       {"typed_steady_state_allocs", static_cast<std::int64_t>(typed.allocs)},
       {"typed_allocs_per_event", typed.allocs_per_event()},
       {"events_per_run", static_cast<std::int64_t>(typed.events)}});

  QUARTZ_CHECK(typed.allocs == 0,
               "the typed engine must run the warm Fig. 18 replay with zero allocations");
#ifdef NDEBUG
  constexpr double kMinSpeedup = 3.0;
#else
  constexpr double kMinSpeedup = 1.2;  // unoptimized builds flatten the gap
#endif
  QUARTZ_CHECK(speedup >= kMinSpeedup, "typed engine speedup is below the acceptance bar");
  std::printf("check: speedup %.2fx >= %.1fx, steady-state allocations == 0\n", speedup,
              kMinSpeedup);
  bench::print_note(
      "the legacy queue pays one heap allocation per scheduled hop (the "
      "closure carries the packet) plus priority_queue sifts across the "
      "whole in-flight set; the typed engine recycles POD slots through "
      "free lists and schedules through a two-tier calendar (O(1) bucket "
      "appends, exact ordering in a window-sized heap), so a warm "
      "steady-state simulation never allocates");

  multicore_report();
}

// --- intra-run sharding at million-event scale ------------------------------
//
// ONE composite-fabric simulation (ring-of-rings:8x8@2, 128 hosts,
// ~1.6M events serial) through the conservative time-windowed parallel
// engine at 1 shard, at min(8, hardware threads) shards and at 8
// shards.  The digest equality is CHECKed unconditionally — parallel
// execution must preserve the serial event order bit-for-bit.  Both
// speedup bars are WALL-CLOCK ratios (serial wall / sharded wall, each
// the best of kMulticoreRepeats runs), not events/sec ratios: events at
// N shards include the replicated control plane.  They bind only on
// optimized builds:
//   * min(8, hardware threads) shards: >= kBoundSpeedupBar wherever
//     that is >= 4 shards, i.e. on every host with >= 4 threads.  At
//     4 shards on a 4-thread Xeon, 8 runs of this binary measured
//     1.40-2.34x (median 1.54x; serial 0.14-0.18 s, 4 shards
//     0.08-0.10 s); 1.25x leaves the margin for a noisy host.
//   * 8 shards: >= 3x, only with >= 8 hardware threads, because below
//     that the shards share cores and the barrier parks.
// Each row also reports the window ledger's barrier-wait share: the
// fraction of the shards' wall clock spent inside the window barrier.

constexpr int kMulticoreRepeats = 3;
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
  chaos::ShardedStormResult result;  // of the fastest run
  double seconds = 0;
  double events_per_sec() const {
    return seconds > 0 ? static_cast<double>(result.events) / seconds : 0;
  }
};

MulticoreRun timed_sharded(int shards) {
  MulticoreRun best;
  best.shards = shards;
  for (int i = 0; i < kMulticoreRepeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    chaos::ShardedStormResult result = chaos::run_sharded_storm(multicore_params(shards));
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (i == 0 || seconds < best.seconds) {
      best.seconds = seconds;
      best.result = std::move(result);
    }
  }
  return best;
}

void multicore_report() {
  const unsigned cores = std::thread::hardware_concurrency();
  const int bound_shards = static_cast<int>(std::clamp(cores, 1u, 8u));
  const MulticoreRun serial = timed_sharded(1);
  const MulticoreRun sharded = timed_sharded(8);
  const bool bound_distinct = bound_shards != 1 && bound_shards != 8;
  const MulticoreRun at_bound = bound_distinct ? timed_sharded(bound_shards)
                                : bound_shards == 1 ? serial
                                                    : sharded;

  auto matches = [&serial](const MulticoreRun& run) {
    return serial.result.delivery_digest == run.result.delivery_digest &&
           serial.result.drop_digest == run.result.drop_digest;
  };
  const bool digest_match = matches(at_bound) && matches(sharded);
  auto speedup_of = [&serial](const MulticoreRun& run) {
    return run.seconds > 0 ? serial.seconds / run.seconds : 0.0;
  };
  const double speedup = speedup_of(sharded);
  const double bound_speedup = speedup_of(at_bound);
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
    std::snprintf(wall, sizeof(wall), "%.3f", run->seconds);
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
  std::printf("multicore: %llu events; wall-clock speedup %.2fx at %d shards (bar %.2fx %s), "
              "%.2fx at 8 shards (bar %s); barrier share %.3f at %d shards, %.3f at 8; "
              "%u hw threads, digest %s\n",
              static_cast<unsigned long long>(serial.result.events), bound_speedup,
              bound_shards, kBoundSpeedupBar, bound_checked ? "enforced" : "reported only",
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

void BM_LegacyEngine(benchmark::State& state) {
  for (auto _ : state) {
    LegacyReplay replay;
    replay.run(20'000);
    benchmark::DoNotOptimize(replay.checksum());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 20'000);
}
BENCHMARK(BM_LegacyEngine)->Unit(benchmark::kMillisecond);

}  // namespace

QUARTZ_BENCH_MAIN(report)
