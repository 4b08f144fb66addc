#include "sim/channel.hpp"

#include <stdexcept>

namespace pcm::sim {

FlitFifo::FlitFifo(int capacity) : capacity_(capacity) {
  if (capacity < 1) throw std::invalid_argument("FlitFifo: capacity must be >= 1");
  slots_.resize(capacity);
}

void FlitFifo::push(const Flit& f, Time now) {
  if (full()) throw std::logic_error("FlitFifo::push on full buffer (flow-control bug)");
  const int pos = (head_ + size_) % capacity_;
  slots_[pos] = Slot{f, now};
  ++size_;
}

int FlitFifo::remove_msg(MsgId msg) {
  int kept = 0;
  for (int i = 0; i < size_; ++i) {
    const Slot s = slots_[(head_ + i) % capacity_];
    if (s.flit.msg == msg) continue;
    slots_[(head_ + kept) % capacity_] = s;
    ++kept;
  }
  const int removed = size_ - kept;
  size_ = kept;
  return removed;
}

int FlitFifo::first_marked() const noexcept {
  for (int i = 0; i < size_; ++i) {
    const Flit& f = slots_[(head_ + i) % capacity_].flit;
    if (f.head || f.tail) return i;
  }
  return size_;
}

void FlitFifo::shift(Time d, MsgId msg) noexcept {
  // The flit at logical index i + d moves to index i without moving in
  // memory; the last min(d, size) slots are refilled with fresh bodies.
  const Time newest = slots_[(head_ + size_ - 1) % capacity_].entry + d;
  const int keep = d < size_ ? size_ - static_cast<int>(d) : 0;
  head_ = static_cast<int>((head_ + d % capacity_) % capacity_);
  for (int i = 0; i < size_; ++i) {
    Slot& s = slots_[(head_ + i) % capacity_];
    if (i >= keep) s.flit = Flit{msg, false, false};
    s.entry = newest - (size_ - 1 - i);
  }
  last_pop_ += d;
}

Flit FlitFifo::pop(Time now) {
  if (empty()) throw std::logic_error("FlitFifo::pop on empty buffer");
  Flit f = slots_[head_].flit;
  head_ = (head_ + 1) % capacity_;
  --size_;
  last_pop_ = now;
  return f;
}

}  // namespace pcm::sim
