// Flit buffer at a router input port: a small ring buffer that remembers
// each flit's arrival cycle so the router pipeline delay can be modelled
// as a minimum residency time.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "sim/message.hpp"

namespace pcm::sim {

struct Flit {
  MsgId msg = kInvalidMsg;
  bool head = false;
  bool tail = false;
};

class FlitFifo {
 public:
  FlitFifo() = default;
  explicit FlitFifo(int capacity);

  [[nodiscard]] int capacity() const noexcept { return capacity_; }
  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }

  /// Oldest flit; FIFO must be non-empty.
  [[nodiscard]] const Flit& front() const noexcept { return slots_[head_].flit; }
  [[nodiscard]] Time front_entry() const noexcept { return slots_[head_].entry; }
  /// Newest flit's arrival cycle; FIFO must be non-empty.
  [[nodiscard]] Time back_entry() const noexcept {
    return slots_[(head_ + size_ - 1) % capacity_].entry;
  }
  /// Cycle of the latest pop, or -1.
  [[nodiscard]] Time last_pop() const noexcept { return last_pop_; }

  void push(const Flit& f, Time now);
  Flit pop(Time now);

  /// Flit at logical index `i` (0 == front); for fault purging and
  /// forensic dumps only.
  [[nodiscard]] const Flit& at(int i) const {
    return slots_[(head_ + i) % capacity_].flit;
  }

  /// Removes every flit of `msg` (they form one contiguous segment under
  /// the wormhole invariant, but this handles any layout), preserving the
  /// order and entry times of the rest.  Returns the number removed.
  /// Fault path only — never called on healthy runs.
  int remove_msg(MsgId msg);

  /// Logical index of the first head or tail flit, or size() if every
  /// buffered flit is a body flit.
  [[nodiscard]] int first_marked() const noexcept;

  /// Pure-shift window (event engine only): applies `d` cycles of one pop
  /// and one push each, the pushed flits being body flits of `msg`.  The
  /// FIFO must hold consecutive entry times ending at last_pop(); sizes
  /// are unchanged and every entry time and last_pop() advance by `d`.
  void shift(Time d, MsgId msg) noexcept;

  /// Flow control against start-of-cycle occupancy: a flit popped earlier
  /// in the same cycle has not yet freed its slot for same-cycle pushes
  /// (one-cycle credit turnaround).  Each FIFO has a single writer, so at
  /// most one push per cycle can ask.
  [[nodiscard, gnu::always_inline]] bool can_accept(Time now) const noexcept {
    return size_ + (last_pop_ == now ? 1 : 0) < capacity_;
  }

 private:
  struct Slot {
    Flit flit;
    Time entry = 0;
  };
  std::vector<Slot> slots_;
  int capacity_ = 0;
  int head_ = 0;
  int size_ = 0;
  Time last_pop_ = -1;
};

}  // namespace pcm::sim
