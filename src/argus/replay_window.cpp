#include "argus/replay_window.hpp"

#include <algorithm>
#include <utility>

namespace argus::core {

ReplayWindow::ReplayWindow(const ReplayWindow& other)
    : entries_(other.entries_), bound_(other.bound_) {
  rebuild();
}

ReplayWindow& ReplayWindow::operator=(const ReplayWindow& other) {
  if (this != &other) {
    entries_ = other.entries_;
    bound_ = other.bound_;
    rebuild();
  }
  return *this;
}

// Moving a std::map moves its nodes, so the ring's iterators stay valid
// and now point into this window's map.
ReplayWindow::ReplayWindow(ReplayWindow&& other) noexcept
    : entries_(std::move(other.entries_)),
      ring_(std::move(other.ring_)),
      head_(std::exchange(other.head_, 0)),
      count_(std::exchange(other.count_, 0)),
      bound_(other.bound_) {
  other.entries_.clear();
  other.ring_.clear();
}

ReplayWindow& ReplayWindow::operator=(ReplayWindow&& other) noexcept {
  if (this != &other) {
    entries_ = std::move(other.entries_);
    ring_ = std::move(other.ring_);
    head_ = std::exchange(other.head_, 0);
    count_ = std::exchange(other.count_, 0);
    bound_ = other.bound_;
    other.entries_.clear();
    other.ring_.clear();
  }
  return *this;
}

void ReplayWindow::push(Entries::iterator it) {
  if (count_ == ring_.size()) {
    std::size_t n = std::max<std::size_t>(1, 2 * ring_.size());
    if (bound_ > 0 && ring_.size() <= bound_) n = std::min(n, bound_ + 1);
    std::vector<Entries::iterator> grown(n);
    for (std::size_t i = 0; i < count_; ++i) {
      grown[i] = ring_[(head_ + i) % ring_.size()];
    }
    ring_ = std::move(grown);
    head_ = 0;
  }
  std::size_t tail = head_ + count_;
  if (tail >= ring_.size()) tail -= ring_.size();
  ring_[tail] = it;
  ++count_;
}

void ReplayWindow::insert(const Bytes& r_s, std::uint64_t stamp) {
  push(entries_.emplace(r_s, stamp).first);
}

Bytes ReplayWindow::evict_oldest() {
  const Entries::iterator oldest = ring_[head_];
  if (++head_ == ring_.size()) head_ = 0;
  --count_;
  return std::move(entries_.extract(oldest).key());
}

void ReplayWindow::assign(Entries entries) {
  entries_ = std::move(entries);
  rebuild();
}

void ReplayWindow::clear() {
  entries_.clear();
  ring_.clear();
  head_ = 0;
  count_ = 0;
}

void ReplayWindow::rebuild() {
  std::vector<Entries::iterator> order;
  order.reserve(entries_.size());
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    order.push_back(it);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](Entries::iterator a, Entries::iterator b) {
                     return a->second < b->second;
                   });
  ring_ = std::move(order);
  head_ = 0;
  count_ = ring_.size();
}

}  // namespace argus::core
