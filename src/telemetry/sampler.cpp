#include "telemetry/sampler.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "sim/packet.hpp"

namespace quartz::telemetry {

JsonRow BucketSummary::to_row() const {
  return {
      {"t_ms", to_microseconds(start) / 1000.0},
      {"delivered", delivered},
      {"mean_us", mean_us},
      {"p50_us", p50_us},
      {"p99_us", p99_us},
      {"queue_drops", queue_drops},
      {"link_down_drops", link_down_drops},
      {"corrupted_drops", corrupted_drops},
      {"max_queue_wait_us", max_queue_wait_us},
  };
}

PeriodicSampler::PeriodicSampler() : PeriodicSampler(Options{}) {}

PeriodicSampler::PeriodicSampler(Options options) : options_(options) {
  QUARTZ_REQUIRE(options_.bucket > 0, "bucket width must be positive");
  QUARTZ_REQUIRE(options_.top_k >= 0, "top_k must be non-negative");
}

PeriodicSampler::Bucket& PeriodicSampler::bucket_at(TimePs when) {
  const auto index = static_cast<std::size_t>(std::max<TimePs>(when, 0) / options_.bucket);
  if (index >= buckets_.size()) buckets_.resize(index + 1);
  return buckets_[index];
}

void PeriodicSampler::on_transmit(const sim::Packet& packet, topo::NodeId /*from*/,
                                  topo::LinkId link, int direction, TimePs ready, TimePs start,
                                  TimePs finish) {
  Bucket& bucket = bucket_at(start);
  const std::uint64_t key =
      static_cast<std::uint64_t>(link) * 2 + static_cast<std::uint64_t>(direction != 0);
  LinkCell& cell = bucket.lines[key];
  cell.bits += packet.size;
  ++cell.packets;
  cell.busy += finish - start;
  const TimePs wait = start - ready;
  cell.max_queue_wait = std::max(cell.max_queue_wait, wait);
  bucket.max_queue_wait = std::max(bucket.max_queue_wait, wait);
}

void PeriodicSampler::on_delivery(const sim::Packet& /*packet*/, TimePs delivered, TimePs latency) {
  bucket_at(delivered).latency_us.add(to_microseconds(latency));
}

void PeriodicSampler::on_drop(const sim::Packet& /*packet*/, DropReason reason, TimePs when) {
  ++bucket_at(when).drops[static_cast<int>(reason)];
}

std::vector<BucketSummary> PeriodicSampler::summaries() const {
  std::vector<BucketSummary> out;
  out.reserve(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const Bucket& bucket = buckets_[i];
    BucketSummary s;
    s.start = static_cast<TimePs>(i) * options_.bucket;
    s.delivered = bucket.latency_us.count();
    if (s.delivered > 0) {
      s.mean_us = bucket.latency_us.mean();
      s.p50_us = bucket.latency_us.percentile(50.0);
      s.p99_us = bucket.latency_us.percentile(99.0);
    }
    s.queue_drops = bucket.drops[static_cast<int>(DropReason::kQueueOverflow)];
    s.link_down_drops = bucket.drops[static_cast<int>(DropReason::kLinkDown)];
    s.corrupted_drops = bucket.drops[static_cast<int>(DropReason::kCorrupted)];
    s.max_queue_wait_us = to_microseconds(bucket.max_queue_wait);

    std::vector<LinkActivity> lines;
    lines.reserve(bucket.lines.size());
    for (const auto& [key, cell] : bucket.lines) {
      LinkActivity a;
      a.link = static_cast<topo::LinkId>(key / 2);
      a.direction = static_cast<int>(key % 2);
      a.bits = cell.bits;
      a.packets = cell.packets;
      a.busy = cell.busy;
      a.utilization = static_cast<double>(cell.busy) / static_cast<double>(options_.bucket);
      a.max_queue_wait_us = to_microseconds(cell.max_queue_wait);
      lines.push_back(a);
    }
    // Strict total order even under ties: equal-bits directions rank
    // by link id, then direction.  This keeps top-K membership and
    // order independent of unordered_map iteration order, so merged
    // sweep outputs are byte-stable at any --jobs value.
    const auto hotter = [](const LinkActivity& x, const LinkActivity& y) {
      if (x.bits != y.bits) return x.bits > y.bits;
      if (x.link != y.link) return x.link < y.link;
      return x.direction < y.direction;
    };
    const std::size_t k = std::min<std::size_t>(options_.top_k, lines.size());
    std::partial_sort(lines.begin(), lines.begin() + static_cast<std::ptrdiff_t>(k), lines.end(),
                      hotter);
    lines.resize(k);
    s.hottest = std::move(lines);
    out.push_back(std::move(s));
  }
  return out;
}

const char* FaultTimeline::kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCut:
      return "cut";
    case Kind::kRepair:
      return "repair";
    case Kind::kDetectedDead:
      return "detected_dead";
    case Kind::kDetectedLive:
      return "detected_live";
    case Kind::kDegraded:
      return "degraded";
    case Kind::kRestored:
      return "restored";
    case Kind::kLossyDetected:
      return "lossy_detected";
    case Kind::kLossyCleared:
      return "lossy_cleared";
    case Kind::kDamped:
      return "flap_damped";
  }
  return "unknown";
}

void FaultTimeline::on_link_state(topo::LinkId link, bool up, TimePs when) {
  const Kind kind = up ? Kind::kRepair : Kind::kCut;
  events_.push_back({when, link, kind});
  ++counts_[static_cast<int>(kind)];
  pending_[link] = when;
}

void FaultTimeline::on_link_detected(topo::LinkId link, bool dead, TimePs when) {
  const Kind kind = dead ? Kind::kDetectedDead : Kind::kDetectedLive;
  events_.push_back({when, link, kind});
  ++counts_[static_cast<int>(kind)];
  const auto it = pending_.find(link);
  if (it != pending_.end()) {
    detection_lag_us_.add(to_microseconds(when - it->second));
    pending_.erase(it);
  }
}

void FaultTimeline::on_link_degraded(topo::LinkId link, double loss_rate, TimePs when) {
  const Kind kind = loss_rate > 0.0 ? Kind::kDegraded : Kind::kRestored;
  events_.push_back({when, link, kind, loss_rate});
  ++counts_[static_cast<int>(kind)];
  if (kind == Kind::kDegraded) {
    pending_degrade_.emplace(link, when);  // first degradation wins the lag clock
  } else {
    pending_degrade_.erase(link);
  }
}

void FaultTimeline::on_probe(topo::LinkId /*link*/, bool delivered, TimePs /*when*/) {
  ++probes_;
  if (!delivered) ++probe_losses_;
}

void FaultTimeline::on_health_transition(topo::LinkId link, routing::LinkHealth from,
                                         routing::LinkHealth to, TimePs when) {
  // Dead edges reuse the detection vocabulary so probe-based monitors
  // get the same detection-lag accounting as the fixed-delay path.
  if (to == routing::LinkHealth::kDead) {
    on_link_detected(link, /*dead=*/true, when);
    return;
  }
  if (from == routing::LinkHealth::kDead) {
    on_link_detected(link, /*dead=*/false, when);
    return;
  }
  const Kind kind = to == routing::LinkHealth::kLossy ? Kind::kLossyDetected : Kind::kLossyCleared;
  events_.push_back({when, link, kind});
  ++counts_[static_cast<int>(kind)];
  if (kind == Kind::kLossyDetected) {
    const auto it = pending_degrade_.find(link);
    if (it != pending_degrade_.end()) {
      detection_lag_us_.add(to_microseconds(when - it->second));
      pending_degrade_.erase(it);
    }
  }
}

void FaultTimeline::on_flap_damped(topo::LinkId link, TimePs suppressed_until, TimePs when) {
  events_.push_back({when, link, Kind::kDamped, to_microseconds(suppressed_until)});
  ++counts_[static_cast<int>(Kind::kDamped)];
}

double FaultTimeline::mean_detection_lag_us() const {
  return detection_lag_us_.count() > 0 ? detection_lag_us_.mean() : 0.0;
}

std::vector<JsonRow> FaultTimeline::to_rows() const {
  std::vector<JsonRow> rows;
  rows.reserve(events_.size());
  for (const Event& e : events_) {
    JsonRow row{
        {"t_us", to_microseconds(e.when)},
        {"link", static_cast<std::int64_t>(e.link)},
        {"event", std::string(kind_name(e.kind))},
    };
    if (e.kind == Kind::kDegraded || e.kind == Kind::kRestored || e.kind == Kind::kDamped) {
      row.emplace_back("value", e.value);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace quartz::telemetry
