#include "wavelength/assign.hpp"

#include <algorithm>
#include <optional>
#include <vector>

namespace quartz::wavelength {
namespace {

/// All unordered pairs at clockwise arc length `len`, in ring order.
/// For even rings the diametral class (len == M/2) has only M/2
/// distinct pairs.
std::vector<Lightpath> length_class(int ring_size, int len) {
  std::vector<Lightpath> out;
  const int starts = (2 * len == ring_size) ? ring_size / 2 : ring_size;
  out.reserve(static_cast<std::size_t>(starts));
  for (int s = 0; s < starts; ++s) {
    const int t = (s + len) % ring_size;
    Lightpath p;
    p.src = std::min(s, t);
    p.dst = std::max(s, t);
    // Keep the arc that actually spans `len` clockwise hops from s.
    p.dir = (p.src == s) ? Direction::kClockwise : Direction::kCounterClockwise;
    out.push_back(p);
  }
  return out;
}

class ChannelPool {
 public:
  /// Lowest channel whose segments are all free for `mask`; grows the
  /// pool on demand.
  int first_fit(std::uint64_t mask) {
    for (std::size_t c = 0; c < busy_.size(); ++c) {
      if ((busy_[c] & mask) == 0) return static_cast<int>(c);
    }
    busy_.push_back(0);
    return static_cast<int>(busy_.size() - 1);
  }

  void occupy(int channel, std::uint64_t mask) {
    while (static_cast<std::size_t>(channel) >= busy_.size()) busy_.push_back(0);
    QUARTZ_CHECK((busy_[static_cast<std::size_t>(channel)] & mask) == 0,
                 "channel already busy on a segment");
    busy_[static_cast<std::size_t>(channel)] |= mask;
  }

  int channels_used() const { return static_cast<int>(busy_.size()); }

 private:
  std::vector<std::uint64_t> busy_;
};

/// DFS state for the exact solver: can every pair be assigned within
/// `max_channels` colours?
class ExactSearch {
 public:
  ExactSearch(int ring_size, int max_channels, std::uint64_t node_budget)
      : ring_size_(ring_size),
        busy_(static_cast<std::size_t>(max_channels), 0),
        budget_(node_budget) {
    // Longest arcs first; within a class, ring order.  Each entry keeps
    // both direction masks so the DFS can flip directions cheaply.
    for (int len = ring_size / 2; len >= 1; --len) {
      for (Lightpath& p : length_class(ring_size, len)) {
        Item item;
        item.path = p;
        item.mask_primary = segment_mask(ring_size, p.src, p.dst, p.dir);
        item.mask_flipped = ~item.mask_primary & ring_mask(ring_size);
        item.min_crossings = std::min(__builtin_popcountll(item.mask_primary),
                                      __builtin_popcountll(item.mask_flipped));
        items_.push_back(item);
      }
    }
    // Suffix sums of minimum crossings: a load-based bound.  Every
    // crossing consumes one (segment, channel) slot, and there are
    // ring_size x max_channels slots in total.
    suffix_min_crossings_.assign(items_.size() + 1, 0);
    for (std::size_t i = items_.size(); i > 0; --i) {
      suffix_min_crossings_[i - 1] =
          suffix_min_crossings_[i] + static_cast<std::uint64_t>(items_[i - 1].min_crossings);
    }
    slot_capacity_ = static_cast<std::uint64_t>(ring_size) *
                     static_cast<std::uint64_t>(max_channels);
  }

  bool run() { return dfs(0); }

  bool exhausted() const { return exhausted_; }
  std::uint64_t nodes() const { return nodes_; }

  Assignment extract() const {
    Assignment a;
    a.ring_size = ring_size_;
    int max_channel = -1;
    for (const auto& item : items_) {
      a.paths.push_back(item.path);
      max_channel = std::max(max_channel, item.path.channel);
    }
    a.channels_used = max_channel + 1;
    std::sort(a.paths.begin(), a.paths.end(), [](const Lightpath& x, const Lightpath& y) {
      return x.src != y.src ? x.src < y.src : x.dst < y.dst;
    });
    return a;
  }

 private:
  struct Item {
    Lightpath path;
    std::uint64_t mask_primary = 0;
    std::uint64_t mask_flipped = 0;
    int min_crossings = 0;
  };

  static std::uint64_t ring_mask(int ring_size) {
    return ring_size == 64 ? ~0ull : ((1ull << ring_size) - 1);
  }

  static Direction flip(Direction d) {
    return d == Direction::kClockwise ? Direction::kCounterClockwise : Direction::kClockwise;
  }

  bool dfs(std::size_t index) {
    if (index == items_.size()) return true;
    if (++nodes_ > budget_) {
      exhausted_ = true;
      return false;
    }
    // Slot-capacity prune: committed crossings plus the cheapest
    // possible remaining crossings must fit in M x C slots.
    if (crossings_used_ + suffix_min_crossings_[index] > slot_capacity_) return false;
    Item& item = items_[index];
    const Direction original_dir = item.path.dir;
    // Symmetry breaking: the first arc's direction and channel are free
    // choices under reflection and colour permutation.
    const int direction_options = index == 0 ? 1 : 2;
    const int channel_limit =
        index == 0 ? 1 : static_cast<int>(std::min(busy_.size(), used_channels_ + 1));

    for (int d = 0; d < direction_options; ++d) {
      const std::uint64_t mask = d == 0 ? item.mask_primary : item.mask_flipped;
      item.path.dir = d == 0 ? original_dir : flip(original_dir);
      const auto crossings = static_cast<std::uint64_t>(__builtin_popcountll(mask));
      for (int c = 0; c < channel_limit; ++c) {
        if ((busy_[static_cast<std::size_t>(c)] & mask) != 0) continue;
        busy_[static_cast<std::size_t>(c)] |= mask;
        const std::size_t prev_used = used_channels_;
        used_channels_ = std::max(used_channels_, static_cast<std::size_t>(c) + 1);
        crossings_used_ += crossings;
        item.path.channel = c;
        if (dfs(index + 1)) return true;
        crossings_used_ -= crossings;
        used_channels_ = prev_used;
        busy_[static_cast<std::size_t>(c)] &= ~mask;
        if (exhausted_) {
          item.path.dir = original_dir;
          return false;
        }
      }
    }
    item.path.dir = original_dir;
    return false;
  }

  int ring_size_;
  std::vector<Item> items_;
  std::vector<std::uint64_t> busy_;
  std::vector<std::uint64_t> suffix_min_crossings_;
  std::uint64_t slot_capacity_ = 0;
  std::uint64_t crossings_used_ = 0;
  std::size_t used_channels_ = 0;
  std::uint64_t budget_;
  std::uint64_t nodes_ = 0;
  bool exhausted_ = false;
};

}  // namespace

Assignment greedy_assign_unordered(int ring_size, Rng& rng) {
  QUARTZ_REQUIRE(ring_size >= 2 && ring_size <= kMaxRingSize, "ring size out of range");
  // All pairs, shortest-arc orientation, shuffled.
  std::vector<Lightpath> pairs;
  for (int s = 0; s < ring_size; ++s) {
    for (int t = s + 1; t < ring_size; ++t) {
      Lightpath p;
      p.src = s;
      p.dst = t;
      const int cw = arc_length(ring_size, s, t, Direction::kClockwise);
      p.dir = cw * 2 <= ring_size ? Direction::kClockwise : Direction::kCounterClockwise;
      pairs.push_back(p);
    }
  }
  rng.shuffle(pairs);

  Assignment result;
  result.ring_size = ring_size;
  ChannelPool pool;
  for (Lightpath p : pairs) {
    const std::uint64_t mask = segment_mask(ring_size, p.src, p.dst, p.dir);
    p.channel = pool.first_fit(mask);
    pool.occupy(p.channel, mask);
    result.paths.push_back(p);
  }
  result.channels_used = pool.channels_used();
  std::sort(result.paths.begin(), result.paths.end(), [](const Lightpath& a, const Lightpath& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  return result;
}

Assignment greedy_assign(int ring_size) {
  QUARTZ_REQUIRE(ring_size >= 2 && ring_size <= kMaxRingSize, "ring size out of range");
  Assignment result;
  result.ring_size = ring_size;
  result.paths.reserve(static_cast<std::size_t>(pair_count(ring_size)));

  ChannelPool pool;
  // Long paths first (§3.1.1): they are the most constrained, and
  // placing them early avoids fragmenting the channels.
  for (int len = ring_size / 2; len >= 1; --len) {
    for (Lightpath p : length_class(ring_size, len)) {
      const std::uint64_t mask = segment_mask(ring_size, p.src, p.dst, p.dir);
      p.channel = pool.first_fit(mask);
      pool.occupy(p.channel, mask);
      result.paths.push_back(p);
    }
  }
  result.channels_used = pool.channels_used();

  std::sort(result.paths.begin(), result.paths.end(), [](const Lightpath& a, const Lightpath& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  return result;
}

ExactResult exact_assign(int ring_size, std::uint64_t node_budget) {
  QUARTZ_REQUIRE(ring_size >= 2 && ring_size <= kMaxRingSize, "ring size out of range");
  ExactResult result;

  Assignment greedy = greedy_assign(ring_size);
  const int lower = channel_lower_bound(ring_size);

  // Iterative deepening: the first feasible depth is the optimum.
  std::uint64_t spent = 0;
  for (int depth = lower; depth <= greedy.channels_used; ++depth) {
    if (spent >= node_budget) break;
    ExactSearch search(ring_size, depth, node_budget - spent);
    const bool found = search.run();
    spent += search.nodes();
    if (found) {
      result.assignment = search.extract();
      result.proved_optimal = true;
      result.nodes_explored = spent;
      QUARTZ_CHECK(verify(result.assignment), "exact solver produced invalid assignment");
      return result;
    }
    if (search.exhausted()) break;
  }

  // Budget exhausted: fall back to the greedy plan, un-certified.
  result.assignment = std::move(greedy);
  result.proved_optimal = false;
  result.nodes_explored = spent;
  return result;
}

int max_ring_size(int available_channels) {
  QUARTZ_REQUIRE(available_channels >= 1, "need at least one channel");
  int best = 1;
  for (int m = 2; m <= kMaxRingSize; ++m) {
    if (greedy_assign(m).channels_used > available_channels) break;
    best = m;
  }
  return best;
}

}  // namespace quartz::wavelength
