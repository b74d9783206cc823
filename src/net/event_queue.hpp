// Calendar (bucket) queue for the discrete-event simulator.
//
// The simulator's contract is exact (time, seq) total order: same-time
// events fire in scheduling order, every run is bit-deterministic. A
// single binary heap gives that in O(log n) per operation with n = ALL
// outstanding events; at campus scale (10k+ nodes, one broadcast parks
// tens of thousands of deliveries in flight) the heap's compare/move
// traffic on 56-byte events is a measurable slice of the event loop. A
// calendar queue [Brown 1988] hashes events into time-width buckets and
// walks the calendar "day" cursor forward, making the cost a function of
// *local* density instead of total population.
//
// Plain calendar queues degenerate when many events share one timestamp
// (here: every receiver in one broadcast ring shares an arrival time)
// — every pop would rescan that bucket linearly. So each bucket is
// itself a small binary min-heap ordered by (time, seq): locating a
// day's minimum reads the bucket top in O(1), and a same-instant pileup
// of k events costs O(log k), never O(k).
//
// Determinism note: bucket layout, width resampling, and the day cursor
// affect only *where* an event is stored, never *which* event pop_min
// extracts — extraction always compares exact (time, seq). Runs are
// byte-identical to the single-heap implementation by construction.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace argus::net {

using SimTime = double;  // virtual milliseconds

/// Handle for a cancellable timer; 0 is never a valid id.
using TimerId = std::uint64_t;

/// An event's exact place in the firing order: time, then the sequence
/// number the simulator issued when it was scheduled (or reserved).
struct EventKey {
  SimTime time = 0;
  std::uint64_t seq = 0;

  /// Sorts after every real event.
  static constexpr EventKey never() {
    return {std::numeric_limits<SimTime>::infinity(),
            std::numeric_limits<std::uint64_t>::max()};
  }
  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  friend bool operator==(const EventKey&, const EventKey&) = default;
};

class CalendarQueue {
 public:
  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
    TimerId timer = 0;  // 0: plain event; else cancellable
  };

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push(Event ev) {
    maybe_grow();
    if (day_of(ev.time) < day_) day_ = day_of(ev.time);
    const std::size_t b = bucket_of(ev.time);
    // A push can only displace the cached minimum by being smaller, in
    // which case it becomes the top of its own bucket.
    if (have_min_ && later(buckets_[min_bucket_].front(), ev)) {
      min_bucket_ = b;
    }
    auto& bucket = buckets_[b];
    bucket.push_back(std::move(ev));
    std::push_heap(bucket.begin(), bucket.end(), later);
    ++size_;
  }

  /// Smallest (time, seq) event, or nullptr when empty. The pointer is
  /// valid until the next push/pop_min/erase_if.
  [[nodiscard]] const Event* peek() {
    if (size_ == 0) return nullptr;
    locate_min();
    return &buckets_[min_bucket_].front();
  }

  Event pop_min() {
    assert(size_ != 0);
    locate_min();
    auto& bucket = buckets_[min_bucket_];
    std::pop_heap(bucket.begin(), bucket.end(), later);
    Event out = std::move(bucket.back());
    bucket.pop_back();
    --size_;
    have_min_ = false;
    // The next minimum cannot be on an earlier day than the one just
    // served, so the cursor stays put — the next search starts here.
    day_ = day_of(out.time);
    return out;
  }

  /// Remove every event matching `dead` (timer tombstone compaction).
  /// Returns the number removed. O(n); survivor order is unaffected
  /// because ordering is re-derived from (time, seq) on extraction.
  template <typename Pred>
  std::size_t erase_if(Pred dead) {
    std::size_t removed = 0;
    for (auto& bucket : buckets_) {
      const std::size_t before = bucket.size();
      std::erase_if(bucket, dead);
      if (bucket.size() != before) {
        removed += before - bucket.size();
        std::make_heap(bucket.begin(), bucket.end(), later);
      }
    }
    size_ -= removed;
    have_min_ = false;
    return removed;
  }

 private:
  static constexpr std::size_t kMinBuckets = 16;  // power of two

  /// Min-heap comparator: "a fires later than b" — exact (time, seq).
  static bool later(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  [[nodiscard]] std::uint64_t day_of(SimTime t) const {
    return static_cast<std::uint64_t>(t / width_);
  }
  [[nodiscard]] std::size_t bucket_of(SimTime t) const {
    return static_cast<std::size_t>(day_of(t)) & (buckets_.size() - 1);
  }

  /// Find the bucket holding the global minimum. Walk calendar days from
  /// the cursor: a bucket's heap top is its minimum, so the first bucket
  /// whose top belongs to the day being inspected holds the answer
  /// (later days only hold later times). One full lap without a hit
  /// means the events are sparse relative to the calendar year — fall
  /// back to a direct min over the bucket tops.
  void locate_min() {
    if (have_min_) return;
    const std::size_t n = buckets_.size();
    for (std::size_t step = 0; step < n; ++step) {
      const std::uint64_t day = day_ + step;
      const std::size_t b = static_cast<std::size_t>(day) & (n - 1);
      if (buckets_[b].empty()) continue;
      if (day_of(buckets_[b].front().time) == day) {
        min_bucket_ = b;
        day_ = day;
        have_min_ = true;
        return;
      }
    }
    // Sparse tail: every bucket top is that bucket's minimum, so the
    // global minimum is the smallest top.
    bool found = false;
    for (std::size_t b = 0; b < n; ++b) {
      if (buckets_[b].empty()) continue;
      if (!found || later(buckets_[min_bucket_].front(), buckets_[b].front())) {
        min_bucket_ = b;
        found = true;
      }
    }
    assert(found);
    day_ = day_of(buckets_[min_bucket_].front().time);
    have_min_ = true;
  }

  void maybe_grow() {
    if (size_ + 1 <= 2 * buckets_.size()) return;
    // Re-estimate the day width from the current population so a bucket
    // holds O(1) *distinct* event times of the same day: sample event
    // times, average the adjacent nonzero gaps. Everything here is a
    // deterministic function of the queue content.
    std::vector<Event> all;
    all.reserve(size_);
    for (auto& bucket : buckets_) {
      for (auto& ev : bucket) all.push_back(std::move(ev));
      bucket.clear();
    }
    std::vector<SimTime> sample;
    const std::size_t stride = all.size() < 64 ? 1 : all.size() / 64;
    for (std::size_t i = 0; i < all.size(); i += stride) {
      sample.push_back(all[i].time);
    }
    std::sort(sample.begin(), sample.end());
    double gap_sum = 0;
    std::size_t gaps = 0;
    for (std::size_t i = 1; i < sample.size(); ++i) {
      const double gap = sample[i] - sample[i - 1];
      if (gap > 0) {
        gap_sum += gap;
        ++gaps;
      }
    }
    if (gaps > 0) {
      width_ = std::max(2.0 * gap_sum / static_cast<double>(gaps), 1e-6);
    }
    buckets_.assign(buckets_.size() * 2, {});
    have_min_ = false;
    bool any = false;
    SimTime min_time = 0;
    for (auto& ev : all) {
      if (!any || ev.time < min_time) {
        min_time = ev.time;
        any = true;
      }
      buckets_[bucket_of(ev.time)].push_back(std::move(ev));
    }
    for (auto& bucket : buckets_) {
      std::make_heap(bucket.begin(), bucket.end(), later);
    }
    day_ = any ? day_of(min_time) : 0;
  }

  /// buckets_[d & mask] holds the events of calendar day d, as a binary
  /// min-heap on (time, seq).
  std::vector<std::vector<Event>> buckets_{kMinBuckets};
  double width_ = 1.0;       // calendar day width, virtual ms
  std::size_t size_ = 0;
  std::uint64_t day_ = 0;    // search cursor; <= the minimum event's day
  bool have_min_ = false;    // min_bucket_ below holds the global minimum
  std::size_t min_bucket_ = 0;
};

}  // namespace argus::net
