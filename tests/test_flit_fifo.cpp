// Tests for the input-port flit buffer.
#include <gtest/gtest.h>

#include "sim/channel.hpp"

namespace pcm::sim {
namespace {

TEST(FlitFifo, StartsEmpty) {
  FlitFifo f(4);
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.full());
  EXPECT_EQ(f.capacity(), 4);
  EXPECT_EQ(f.size(), 0);
}

TEST(FlitFifo, RejectsZeroCapacity) {
  EXPECT_THROW(FlitFifo(0), std::invalid_argument);
}

TEST(FlitFifo, FifoOrderPreserved) {
  FlitFifo f(3);
  f.push(Flit{1, true, false}, 10);
  f.push(Flit{1, false, false}, 11);
  f.push(Flit{1, false, true}, 12);
  EXPECT_TRUE(f.full());
  EXPECT_TRUE(f.front().head);
  EXPECT_EQ(f.front_entry(), 10);
  EXPECT_TRUE(f.pop(0).head);
  EXPECT_EQ(f.front_entry(), 11);
  EXPECT_FALSE(f.pop(0).head);
  EXPECT_TRUE(f.pop(0).tail);
  EXPECT_TRUE(f.empty());
}

TEST(FlitFifo, WrapsAround) {
  FlitFifo f(2);
  for (int round = 0; round < 5; ++round) {
    f.push(Flit{round, true, false}, round);
    f.push(Flit{round, false, true}, round);
    EXPECT_EQ(f.pop(0).msg, round);
    EXPECT_EQ(f.pop(0).msg, round);
  }
}

TEST(FlitFifo, CanAcceptUsesStartOfCycleOccupancy) {
  FlitFifo f(2);
  f.push(Flit{1, true, false}, 5);
  f.push(Flit{1, false, true}, 6);
  EXPECT_TRUE(f.full());
  EXPECT_FALSE(f.can_accept(7));
  // A pop in cycle 7 frees the slot only for cycle 8 (credit turnaround).
  f.pop(7);
  EXPECT_FALSE(f.can_accept(7));
  EXPECT_TRUE(f.can_accept(8));
}

TEST(FlitFifo, OverflowAndUnderflowThrow) {
  FlitFifo f(1);
  f.push(Flit{}, 0);
  EXPECT_THROW(f.push(Flit{}, 1), std::logic_error);
  f.pop(0);
  EXPECT_THROW(f.pop(0), std::logic_error);
}

TEST(FlitFifo, ShiftEqualsPopPushRounds) {
  // A streaming FIFO (consecutive entries, one pop + one push a cycle)
  // shifted by d must match d literal pop/push rounds, whether d is
  // shorter or longer than its occupancy, and across ring wrap-around.
  for (const int d : {1, 2, 3, 7, 13}) {
    SCOPED_TRACE(d);
    FlitFifo a(5);
    FlitFifo b(5);
    // Entries 8..10 after a pop at 10: a body and the tail of msg 1, then
    // msg 2's head; the stream keeps feeding msg 2 bodies.
    for (FlitFifo* f : {&a, &b}) {
      f->push(Flit{1, false, false}, 7);
      f->push(Flit{1, false, false}, 8);
      f->push(Flit{1, false, true}, 9);
      f->pop(10);
      f->push(Flit{2, true, false}, 10);
    }
    EXPECT_EQ(a.first_marked(), 1);
    for (int k = 1; k <= d; ++k) {
      a.pop(10 + k);
      a.push(Flit{2, false, false}, 10 + k);
    }
    b.shift(d, 2);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.last_pop(), b.last_pop());
    EXPECT_EQ(a.front_entry(), b.front_entry());
    EXPECT_EQ(a.back_entry(), b.back_entry());
    EXPECT_EQ(a.first_marked(), b.first_marked());
    for (int i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.at(i).msg, b.at(i).msg) << i;
      EXPECT_EQ(a.at(i).head, b.at(i).head) << i;
      EXPECT_EQ(a.at(i).tail, b.at(i).tail) << i;
    }
  }
}

TEST(FlitFifo, FirstMarkedFindsHeadOrTail) {
  FlitFifo f(4);
  f.push(Flit{1, false, false}, 0);
  f.push(Flit{1, false, false}, 1);
  EXPECT_EQ(f.first_marked(), 2);  // none: size()
  f.push(Flit{1, false, true}, 2);
  EXPECT_EQ(f.first_marked(), 2);
}

}  // namespace
}  // namespace pcm::sim
