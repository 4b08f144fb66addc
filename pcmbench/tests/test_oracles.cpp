// Oracle tests: every workload's checks pass on real results and fire on
// each injected mismatch.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

using pcmbench::make_workload;
using pcmbench::workload_names;

class Oracles : public ::testing::TestWithParam<std::string> {};

TEST_P(Oracles, PassOnRealResultsAndFireOnEachPerturbation) {
  const auto wl = make_workload(GetParam());
  ASSERT_NE(wl, nullptr);
  wl->setup(7);
  ASSERT_GT(wl->size(), 0u);
  wl->call(0, true, nullptr);
  const std::vector<std::string> clean = wl->check(0);
  EXPECT_TRUE(clean.empty()) << GetParam() << ": " << (clean.empty() ? "" : clean.front());
  for (const std::string& what : wl->perturbations()) {
    // A fresh workload: the benchmark perturbs before any check has run.
    const auto fresh = make_workload(GetParam());
    fresh->setup(7);
    fresh->call(0, true, nullptr);
    fresh->perturb(0, what);
    EXPECT_FALSE(fresh->check(0).empty()) << GetParam() << ": perturbed " << what
                                          << " went unnoticed";
  }
  EXPECT_THROW(wl->perturb(0, "no_such_field"), std::invalid_argument);
}

TEST_P(Oracles, SetupIsRepeatableAndResultsAreDeterministic) {
  const auto a = make_workload(GetParam());
  const auto b = make_workload(GetParam());
  a->setup(11);
  b->setup(11);
  b->setup(11);  // a second set-up rebuilds the identical list
  ASSERT_EQ(a->size(), b->size());
  const std::size_t last = a->size() - 1;
  for (const std::size_t i : {std::size_t{0}, last}) {
    a->call(i, true, nullptr);
    b->call(i, true, nullptr);
    b->call(i, false, nullptr);
    EXPECT_EQ(a->fingerprint(i, true), b->fingerprint(i, true));
    EXPECT_EQ(b->fingerprint(i, true), b->fingerprint(i, false));
  }
}

TEST(OraclesUnknown, UnknownWorkloadIsRejected) {
  EXPECT_EQ(make_workload("no_such_workload"), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Oracles, ::testing::ValuesIn(workload_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
