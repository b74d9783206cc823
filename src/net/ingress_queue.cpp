#include "net/ingress_queue.hpp"

#include <iterator>

namespace argus::net {

void IngressQueue::push(EventKey key, Entry entry) {
  Run run{key.time, key.seq, {}, 0};
  run.entries.push_back(std::move(entry));
  insert(std::move(run));
  ++size_;
}

IngressQueue::Entry IngressQueue::pop_front() { return take(first_, 0); }

void IngressQueue::repark_front(SimTime time, std::uint64_t seq) {
  // Relabel the run, shedding its consumed prefix once that is at least
  // half its storage (amortized O(1) per pop).
  Run& front = runs_[first_];
  Run moved{time, seq, std::move(front.entries), front.head};
  if (moved.head * 2 >= moved.entries.size()) {
    moved.entries.erase(
        moved.entries.begin(),
        moved.entries.begin() + static_cast<std::ptrdiff_t>(moved.head));
    moved.head = 0;
  }
  front.head = 0;
  erase_run(first_);
  insert(std::move(moved));
}

IngressQueue::Entry IngressQueue::evict_oldest() {
  std::size_t oldest = first_;
  for (std::size_t i = first_ + 1; i < runs_.size(); ++i) {
    if (runs_[i].seq < runs_[oldest].seq) oldest = i;
  }
  return take(oldest, 0);
}

std::optional<IngressQueue::Entry> IngressQueue::evict_weakest(
    std::uint8_t arriving) {
  std::size_t run = first_;
  std::size_t index = 0;
  std::uint8_t worst = 0;
  std::uint64_t worst_seq = 0;
  bool found = false;
  for (std::size_t i = first_; i < runs_.size(); ++i) {
    const Run& r = runs_[i];
    for (std::size_t j = 0; j < r.size(); ++j) {
      const std::uint8_t p = priority(*r.entries[r.head + j].frame);
      const std::uint64_t seq = r.seq + j;
      if (!found || p > worst || (p == worst && seq > worst_seq)) {
        run = i;
        index = j;
        worst = p;
        worst_seq = seq;
        found = true;
      }
    }
  }
  if (!found || arriving >= worst) return std::nullopt;
  return take(run, index);
}

void IngressQueue::insert(Run run) {
  std::size_t pos = runs_.size();
  while (pos > first_ && runs_[pos - 1].time > run.time) --pos;
  if (pos > first_) {
    Run& prev = runs_[pos - 1];
    // Append only the smaller run onto the larger, so a burst's big run
    // absorbs the single arrivals behind it, never the other way round.
    if (prev.time == run.time && prev.seq + prev.size() == run.seq &&
        run.size() <= prev.size()) {
      const auto from =
          run.entries.begin() + static_cast<std::ptrdiff_t>(run.head);
      prev.entries.insert(prev.entries.end(), std::make_move_iterator(from),
                          std::make_move_iterator(run.entries.end()));
      return;
    }
  }
  runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(pos),
               std::move(run));
}

IngressQueue::Entry IngressQueue::take(std::size_t i, std::size_t j) {
  Run& r = runs_[i];
  const std::size_t at = r.head + j;
  Entry out = std::move(r.entries[at]);
  --size_;
  if (j == 0) {
    ++r.head;
    ++r.seq;
  } else if (j + 1 == r.size()) {
    r.entries.pop_back();
  } else {
    // Mid-run removal splits the run: the tail keeps its keys.
    Run tail{r.time, r.seq + j + 1, {}, 0};
    const auto split = r.entries.begin() + static_cast<std::ptrdiff_t>(at);
    tail.entries.assign(std::make_move_iterator(split + 1),
                        std::make_move_iterator(r.entries.end()));
    r.entries.erase(split, r.entries.end());
    runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(i + 1),
                 std::move(tail));
  }
  if (runs_[i].size() == 0) erase_run(i);
  return out;
}

void IngressQueue::erase_run(std::size_t i) {
  if (i != first_) {
    runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(i));
    return;
  }
  runs_[first_].entries = {};
  ++first_;
  if (first_ == runs_.size()) {
    runs_.clear();
    first_ = 0;
  } else if (first_ * 2 >= runs_.size()) {
    runs_.erase(runs_.begin(),
                runs_.begin() + static_cast<std::ptrdiff_t>(first_));
    first_ = 0;
  }
}

}  // namespace argus::net
