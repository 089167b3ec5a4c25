// Adaptive-policy unit tests: the Eq. 4/5 decision formulas, footnote-7
// explicit-only counting, the no-repeat rule ("Checks and balances"), the
// infinite-cutoff configuration, and the §7.5 contended-escape extension.
#include "tracking/adaptive_policy.hpp"

#include <gtest/gtest.h>

namespace ht {
namespace {

TEST(AdaptivePolicy, TransfersAfterCutoffExplicitConflicts) {
  AdaptivePolicy p(PolicyConfig{});  // cutoff 4
  ObjectMeta m;
  m.reset(StateWord::wr_ex_opt(0));
  EXPECT_FALSE(p.to_pess_on_conflict(m, true));  // 1
  EXPECT_FALSE(p.to_pess_on_conflict(m, true));  // 2
  EXPECT_FALSE(p.to_pess_on_conflict(m, true));  // 3
  EXPECT_TRUE(p.to_pess_on_conflict(m, true));   // 4 >= cutoff
}

TEST(AdaptivePolicy, ImplicitConflictsDoNotCount) {
  PolicyConfig cfg;
  cfg.cutoff_confl = 1;
  AdaptivePolicy p(cfg);
  ObjectMeta m;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(p.to_pess_on_conflict(m, false));
  EXPECT_EQ(m.profile().load().opt_conflicts(), 0u);
  EXPECT_TRUE(p.to_pess_on_conflict(m, true));
}

TEST(AdaptivePolicy, InfiniteCutoffNeverTransfers) {
  AdaptivePolicy p(PolicyConfig::infinite());
  ObjectMeta m;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(p.to_pess_on_conflict(m, true));
}

TEST(AdaptivePolicy, Equation5GovernsReturnToOptimistic) {
  PolicyConfig cfg;
  cfg.k_confl = 10;
  cfg.inertia = 5;
  AdaptivePolicy p(cfg);
  ObjectMeta m;

  // 1 conflicting pessimistic transition -> need >= 10*1 + 5 non-conflicting.
  p.note_pess_transition(m, /*conflicting=*/true);
  for (int i = 0; i < 14; ++i) p.note_pess_transition(m, false);
  EXPECT_FALSE(p.should_go_opt(m));  // 14 < 15
  p.note_pess_transition(m, false);
  EXPECT_TRUE(p.should_go_opt(m));  // 15 >= 15
}

TEST(AdaptivePolicy, InertiaBlocksPrematureReturn) {
  PolicyConfig cfg;
  cfg.k_confl = 10;
  cfg.inertia = 100;
  AdaptivePolicy p(cfg);
  ObjectMeta m;
  // Zero conflicts, but fewer than Inertia non-conflicting transitions.
  for (int i = 0; i < 99; ++i) p.note_pess_transition(m, false);
  EXPECT_FALSE(p.should_go_opt(m));
  p.note_pess_transition(m, false);
  EXPECT_TRUE(p.should_go_opt(m));
}

TEST(AdaptivePolicy, ObjectsMustStayOptimisticAfterOneRoundTrip) {
  PolicyConfig cfg;
  cfg.cutoff_confl = 1;
  cfg.inertia = 1;
  AdaptivePolicy p(cfg);
  ObjectMeta m;
  EXPECT_TRUE(p.to_pess_on_conflict(m, true));
  p.note_pess_transition(m, false);
  ASSERT_TRUE(p.should_go_opt(m));
  p.commit_go_opt(m);
  // Second trip is forbidden regardless of further conflicts (§6.2).
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(p.to_pess_on_conflict(m, true));
}

TEST(AdaptivePolicy, CommitClearsPessCountersAndPins) {
  PolicyConfig cfg;
  cfg.inertia = 1;
  AdaptivePolicy p(cfg);
  ObjectMeta m;
  p.note_pess_transition(m, false);
  ASSERT_TRUE(p.should_go_opt(m));
  p.commit_go_opt(m);
  const ProfileWord w = m.profile().load();
  EXPECT_TRUE(w.must_stay_opt());
  EXPECT_EQ(w.pess_non_confl(), 0u);
}

TEST(AdaptivePolicy, ShouldGoOptIsPure) {
  PolicyConfig cfg;
  cfg.inertia = 1;
  AdaptivePolicy p(cfg);
  ObjectMeta m;
  p.note_pess_transition(m, false);
  const std::uint64_t before = m.profile().load().raw();
  EXPECT_TRUE(p.should_go_opt(m));
  EXPECT_TRUE(p.should_go_opt(m));
  EXPECT_EQ(m.profile().load().raw(), before);
}

TEST(AdaptivePolicy, ContendedEscapeReturnsRacyObjectsToOptimistic) {
  // §7.5: "Hybrid tracking could alleviate this deficiency by modifying the
  // adaptive policy to switch a pessimistic object back to optimistic states
  // if accesses to it trigger coordination frequently."
  AdaptivePolicy p(PolicyConfig::with_escape(3));
  ObjectMeta m;
  // Lots of conflicting pessimistic transitions: Eq. 5 will never fire.
  for (int i = 0; i < 50; ++i) p.note_pess_transition(m, true);
  EXPECT_FALSE(p.should_go_opt(m));
  p.note_pess_contended(m);
  p.note_pess_contended(m);
  EXPECT_FALSE(p.should_go_opt(m));
  p.note_pess_contended(m);
  EXPECT_TRUE(p.should_go_opt(m));
}

TEST(AdaptivePolicy, EscapeDisabledByDefault) {
  AdaptivePolicy p(PolicyConfig{});
  ObjectMeta m;
  for (int i = 0; i < 100; ++i) {
    p.note_pess_transition(m, true);
    p.note_pess_contended(m);
  }
  EXPECT_FALSE(p.should_go_opt(m));
}

TEST(AdaptivePolicy, RepessDisabledKeepsStayOptRule) {
  PolicyConfig cfg;
  cfg.cutoff_confl = 1;
  cfg.inertia = 1;
  AdaptivePolicy p(cfg);
  ObjectMeta m;
  EXPECT_TRUE(p.to_pess_on_conflict(m, true));
  p.note_pess_transition(m, false);
  ASSERT_TRUE(p.should_go_opt(m));
  p.commit_go_opt(m);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(p.to_pess_on_conflict(m, true));
}

TEST(AdaptivePolicy, PaperDefaultParameterValues) {
  const PolicyConfig c{};
  EXPECT_EQ(c.cutoff_confl, 4u);
  EXPECT_EQ(c.k_confl, 200u);
  EXPECT_EQ(c.inertia, 100u);
  EXPECT_FALSE(c.infinite_cutoff);
  EXPECT_EQ(c.contended_escape_threshold, 0u);
}

}  // namespace
}  // namespace ht
