#include "sim/sharded.hpp"

#include <chrono>
#include <cstdio>
#include <string>

#include "common/check.hpp"
#include "sim/network.hpp"
#include "snapshot/io.hpp"

namespace quartz::sim {

namespace {
constexpr std::uint32_t kLayoutChunk = snapshot::chunk_id("SHRD");
}  // namespace

ShardedSim::ShardedSim(PartitionPlan plan, const ShardFactory& factory)
    : plan_(std::move(plan)),
      boxes_(static_cast<std::size_t>(plan_.shards) * static_cast<std::size_t>(plan_.shards)),
      barrier_(plan_.shards, barrier_spins(plan_.shards, std::thread::hardware_concurrency())) {
  const int shards = plan_.shards;
  for (int p = 0; p < shards; ++p) {
    for (int c = 0; c < shards; ++c) {
      if (p != c) {
        boxes_[static_cast<std::size_t>(p * shards + c)] = std::make_unique<Mailbox>();
      }
    }
  }
  outboxes_.resize(static_cast<std::size_t>(shards));
  for (int p = 0; p < shards; ++p) {
    outboxes_[static_cast<std::size_t>(p)].resize(static_cast<std::size_t>(shards), nullptr);
    for (int c = 0; c < shards; ++c) {
      if (p != c) {
        outboxes_[static_cast<std::size_t>(p)][static_cast<std::size_t>(c)] =
            boxes_[static_cast<std::size_t>(p * shards + c)].get();
      }
    }
  }

  workers_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) workers_.push_back(std::make_unique<Worker>());
  // The factory runs on each worker thread (thread confinement); the
  // build is the worker's first implicit command.
  for (int i = 0; i < shards; ++i) {
    Worker& w = *workers_[static_cast<std::size_t>(i)];
    w.thread = std::thread([this, i, &factory] {
      Worker& self = *workers_[static_cast<std::size_t>(i)];
      try {
        ShardContext ctx;
        ctx.shard = i;
        ctx.plan = &plan_;
        ctx.binding.shard = i;
        ctx.binding.shard_count = plan_.shards;
        ctx.binding.owner = &plan_.owner;
        ctx.binding.outboxes = outboxes_[static_cast<std::size_t>(i)].data();
        self.shard = factory(ctx);
        QUARTZ_CHECK(self.shard != nullptr, "shard factory returned null");
      } catch (...) {
        self.error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(self.mutex);
        self.done = true;
      }
      self.cv.notify_all();
      worker_main(i);
    });
  }

  std::exception_ptr build_error;
  for (int i = 0; i < shards; ++i) {
    await(i);
    Worker& w = *workers_[static_cast<std::size_t>(i)];
    if (w.error != nullptr && build_error == nullptr) build_error = w.error;
  }
  if (build_error != nullptr) {
    shutdown();
    std::rethrow_exception(build_error);
  }
}

ShardedSim::~ShardedSim() { shutdown(); }

void ShardedSim::shutdown() {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = *workers_[i];
    if (!w.thread.joinable()) continue;
    post(static_cast<int>(i), Command::kQuit);
    w.thread.join();
  }
}

void ShardedSim::worker_main(int index) {
  Worker& self = *workers_[static_cast<std::size_t>(index)];
  for (;;) {
    Command command;
    TimePs begin;
    TimePs end;
    const std::function<void(int, Shard&)>* visit_fn;
    {
      std::unique_lock<std::mutex> lock(self.mutex);
      self.cv.wait(lock, [&self] { return self.command != Command::kIdle; });
      command = self.command;
      begin = self.begin;
      end = self.end;
      visit_fn = self.visit_fn;
      self.command = Command::kIdle;
    }
    if (command == Command::kQuit) return;
    self.error = nullptr;
    switch (command) {
      case Command::kRun:
        run_windows(index, begin, end);
        break;
      case Command::kVisit:
        try {
          (*visit_fn)(index, *self.shard);
        } catch (...) {
          self.error = std::current_exception();
        }
        break;
      default:
        break;
    }
    {
      std::lock_guard<std::mutex> lock(self.mutex);
      self.done = true;
    }
    self.cv.notify_all();
  }
}

void ShardedSim::run_windows(int index, TimePs begin, TimePs end) {
  using Clock = std::chrono::steady_clock;
  auto ns = [](Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  };
  Worker& self = *workers_[static_cast<std::size_t>(index)];
  const TimePs w = plan_.lookahead;
  const std::int64_t barriers = barrier_count(begin, end);
  std::int64_t arrived = 0;
  WindowStats stats;
  Clock::time_point mark = Clock::now();
  try {
    Network& net = self.shard->network();
    TimePs cursor = begin;
    for (;;) {
      // Strict windows until the cursor reaches `end`, then the
      // inclusive tail, which runs the events at exactly `end`;
      // transits they generate land at end + propagation > end, so its
      // drain only schedules future work (mailboxes still quiesce).
      const bool tail = cursor == end;
      const std::uint64_t before = net.events_processed();
      if (tail) {
        net.run_until(end);
      } else {
        // Overflow-safe min(cursor + w, end): w is TimePs max for a
        // single-shard plan.
        const TimePs target = end - cursor <= w ? end : cursor + w;
        net.run_before(target);
        cursor = target;
      }
      if (net.events_processed() == before) ++stats.empty_windows;
      const Clock::time_point ran = Clock::now();
      barrier_.arrive_and_wait();
      ++arrived;
      ++stats.windows;
      const Clock::time_point released = Clock::now();
      stats.run_ns += ns(ran - mark);
      stats.wait_ns += ns(released - ran);
      mark = released;
      stats.mail_drained += drain_inboxes(index);
      if (tail) break;
    }
  } catch (...) {
    self.error = std::current_exception();
    // Keep honoring the deterministic barrier schedule as no-ops so
    // the surviving workers never deadlock; the driver rethrows the
    // error once the round completes.
    for (; arrived < barriers; ++arrived) barrier_.arrive_and_wait();
  }
  // The last drain (or the failed window) closes the run time.
  stats.run_ns += ns(Clock::now() - mark);
  WindowStats& total = self.stats;
  total.windows += stats.windows;
  total.empty_windows += stats.empty_windows;
  total.mail_drained += stats.mail_drained;
  total.run_ns += stats.run_ns;
  total.wait_ns += stats.wait_ns;
}

std::uint64_t ShardedSim::drain_inboxes(int index) {
  Network& net = workers_[static_cast<std::size_t>(index)]->shard->network();
  const int shards = plan_.shards;
  std::uint64_t drained = 0;
  for (int p = 0; p < shards; ++p) {
    if (p == index) continue;
    drained += boxes_[static_cast<std::size_t>(p * shards + index)]->drain(
        [&net](const Mailbox::Entry& entry) { net.deliver_mail(entry); });
  }
  return drained;
}

std::int64_t ShardedSim::barrier_count(TimePs begin, TimePs end) const {
  const TimePs w = plan_.lookahead;
  const TimePs span = end - begin;
  std::int64_t strict = 0;
  if (span > 0) strict = span <= w ? 1 : (span + w - 1) / w;
  return strict + 1;
}

void ShardedSim::post(int index, Command command) {
  Worker& w = *workers_[static_cast<std::size_t>(index)];
  {
    std::lock_guard<std::mutex> lock(w.mutex);
    w.done = false;
    w.command = command;
  }
  w.cv.notify_all();
}

void ShardedSim::await(int index) {
  Worker& w = *workers_[static_cast<std::size_t>(index)];
  std::unique_lock<std::mutex> lock(w.mutex);
  w.cv.wait(lock, [&w] { return w.done; });
}

void ShardedSim::round(Command command) {
  for (std::size_t i = 0; i < workers_.size(); ++i) post(static_cast<int>(i), command);
  std::exception_ptr error;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    await(static_cast<int>(i));
    if (workers_[i]->error != nullptr && error == nullptr) error = workers_[i]->error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ShardedSim::run_until(TimePs end) {
  QUARTZ_REQUIRE(end >= cursor_, "cannot run backwards");
  for (const auto& w : workers_) {
    w->begin = cursor_;
    w->end = end;
  }
  round(Command::kRun);
  cursor_ = end;
  // The window protocol guarantees quiesced mailboxes between runs —
  // the property checkpointing relies on.
  for (const auto& box : boxes_) {
    QUARTZ_CHECK(box == nullptr || box->pending() == 0, "mailbox not quiesced at barrier");
  }
}

void ShardedSim::visit(const std::function<void(int, Shard&)>& fn) {
  // Sequential in shard order: shard k's closure completes before
  // shard k+1's starts, so cross-shard aggregation sees a stable order
  // and checkpoint chunks land in a deterministic sequence.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->visit_fn = &fn;
    post(static_cast<int>(i), Command::kVisit);
    await(static_cast<int>(i));
    if (workers_[i]->error != nullptr) std::rethrow_exception(workers_[i]->error);
  }
}

std::vector<WindowStats> ShardedSim::window_stats() const {
  std::vector<WindowStats> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) out.push_back(w->stats);
  return out;
}

double WindowStats::run_us_per_window() const {
  return windows > 0 ? 1e-3 * static_cast<double>(run_ns) / static_cast<double>(windows) : 0.0;
}

double WindowStats::wait_us_per_window() const {
  return windows > 0 ? 1e-3 * static_cast<double>(wait_ns) / static_cast<double>(windows) : 0.0;
}

double barrier_wait_share(const std::vector<WindowStats>& shards) {
  std::int64_t wait = 0;
  std::int64_t total = 0;
  for (const WindowStats& s : shards) {
    wait += s.wait_ns;
    total += s.run_ns + s.wait_ns;
  }
  return total > 0 ? static_cast<double>(wait) / static_cast<double>(total) : 0.0;
}

std::string window_ledger_text(const std::vector<WindowStats>& shards) {
  std::string out;
  char line[160];
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const WindowStats& s = shards[i];
    std::snprintf(line, sizeof(line),
                  "  shard %zu: %llu windows (%llu empty), run %.2f us/window, "
                  "barrier wait %.2f us/window, %llu mail drained\n",
                  i, static_cast<unsigned long long>(s.windows),
                  static_cast<unsigned long long>(s.empty_windows), s.run_us_per_window(),
                  s.wait_us_per_window(), static_cast<unsigned long long>(s.mail_drained));
    out += line;
  }
  return out;
}

void ShardedSim::save_layout(snapshot::Writer& w) const {
  w.begin_chunk(kLayoutChunk);
  w.put_u32(static_cast<std::uint32_t>(plan_.shards));
  w.put_i64(plan_.lookahead);
  w.put_i64(cursor_);
  w.put_u64(plan_.layout_digest());
  w.put_string(plan_.strategy);
  w.end_chunk();
}

void ShardedSim::restore_layout(snapshot::Reader& r) {
  r.open_chunk(kLayoutChunk);
  const auto shards = static_cast<int>(r.get_u32());
  QUARTZ_REQUIRE(shards == plan_.shards,
                 "snapshot shard layout mismatch: saved at --shards=" + std::to_string(shards) +
                     ", restoring at --shards=" + std::to_string(plan_.shards) +
                     "; restore with the saved shard count");
  const TimePs lookahead = r.get_i64();
  QUARTZ_REQUIRE(lookahead == plan_.lookahead, "snapshot partition lookahead mismatch");
  const TimePs cursor = r.get_i64();
  const std::uint64_t digest = r.get_u64();
  QUARTZ_REQUIRE(digest == plan_.layout_digest(),
                 "snapshot shard owner map differs from this partition");
  const std::string strategy = r.get_string();
  QUARTZ_REQUIRE(strategy == plan_.strategy, "snapshot partition strategy mismatch");
  r.close_chunk();
  // Any monotone barrier sequence with steps <= lookahead is safe, so
  // resuming from a cursor that is not a multiple of the window width
  // preserves the digest (the first window is simply shorter).
  cursor_ = cursor;
}

}  // namespace quartz::sim
