#include "mac/backoff.hpp"

#include <gtest/gtest.h>

namespace rmacsim {
namespace {

using namespace rmacsim::literals;

class BackoffTest : public ::testing::Test, private BackoffEngine::Channel {
protected:
  BackoffTest() : engine_{sched_, 20_us, Rng{99}} {
    engine_.set_channel(*this, [this] { fired_at_ = sched_.now(); ++fires_; });
  }

  // The engine's inputs changed: flip the channel and notify it.
  void set_idle(bool idle) {
    idle_ = idle;
    engine_.notify();
  }
  [[nodiscard]] BackoffEngine::Forecast backoff_forecast() const override {
    return idle_ ? BackoffEngine::Forecast{SimTime::zero(), SimTime::max()}
                 : BackoffEngine::Forecast{SimTime::max(), SimTime::max()};
  }

  Scheduler sched_;
  BackoffEngine engine_;
  bool idle_{true};
  int fires_{0};
  SimTime fired_at_{SimTime::zero()};
};

TEST_F(BackoffTest, DrawBoundsRespectCw) {
  for (int i = 0; i < 200; ++i) {
    engine_.draw(31);
    EXPECT_LE(engine_.bi(), 31u);
  }
}

TEST_F(BackoffTest, FiresAfterBiIdleSlots) {
  engine_.draw(0);  // forces BI = 0
  EXPECT_EQ(engine_.bi(), 0u);
  engine_.ensure_running(31);
  sched_.run();
  EXPECT_EQ(fires_, 1);
  EXPECT_EQ(fired_at_, SimTime::zero());  // zero-delay tick
}

TEST_F(BackoffTest, CountdownTakesBiSlots) {
  // Find a draw with a known BI by drawing until BI == 5.
  do {
    engine_.draw(31);
  } while (engine_.bi() != 5);
  engine_.ensure_running(31);
  sched_.run();
  EXPECT_EQ(fires_, 1);
  EXPECT_EQ(fired_at_, 5 * 20_us);
}

TEST_F(BackoffTest, BusyChannelSuspendsCountdown) {
  do {
    engine_.draw(31);
  } while (engine_.bi() != 3);
  engine_.ensure_running(31);
  set_idle(false);
  sched_.run_until(1_ms);
  EXPECT_EQ(fires_, 0);
  EXPECT_EQ(engine_.bi(), 3u);  // BI preserved during suspension
  set_idle(true);
  sched_.run_until(2_ms);
  EXPECT_EQ(fires_, 1);
}

TEST_F(BackoffTest, StopPreservesBiForResume) {
  do {
    engine_.draw(31);
  } while (engine_.bi() != 4);
  engine_.ensure_running(31);
  sched_.run_until(20_us);  // one decrement
  engine_.stop();
  EXPECT_EQ(engine_.bi(), 3u);
  EXPECT_TRUE(engine_.has_pending_bi());
  // ensure_running must NOT redraw: resume from 3.
  engine_.ensure_running(31);
  sched_.run();
  EXPECT_EQ(fires_, 1);
  EXPECT_EQ(fired_at_, 20_us + 3 * 20_us);
}

TEST_F(BackoffTest, StopClearDiscardsBi) {
  engine_.draw(31);
  engine_.ensure_running(31);
  engine_.stop(/*clear=*/true);
  EXPECT_FALSE(engine_.has_pending_bi());
  EXPECT_TRUE(engine_.clear_to_send());
}

TEST_F(BackoffTest, ClearToSendSemantics) {
  EXPECT_TRUE(engine_.clear_to_send());  // nothing drawn
  do {
    engine_.draw(31);
  } while (engine_.bi() == 0);
  EXPECT_FALSE(engine_.clear_to_send());
  engine_.draw(0);
  EXPECT_TRUE(engine_.clear_to_send());  // drawn but zero
}

TEST_F(BackoffTest, FireConsumesDraw) {
  engine_.draw(0);
  engine_.ensure_running(31);
  sched_.run();
  EXPECT_EQ(fires_, 1);
  EXPECT_FALSE(engine_.has_pending_bi());
  EXPECT_FALSE(engine_.running());
}

TEST_F(BackoffTest, EnsureRunningDrawsWhenNoPendingBi) {
  engine_.ensure_running(15);
  EXPECT_TRUE(engine_.has_pending_bi());
  EXPECT_LE(engine_.bi(), 15u);
  sched_.run();
  EXPECT_EQ(fires_, 1);
}

TEST_F(BackoffTest, EnsureRunningIsIdempotentWhileTicking) {
  do {
    engine_.draw(31);
  } while (engine_.bi() != 2);
  engine_.ensure_running(31);
  engine_.ensure_running(31);
  engine_.ensure_running(31);
  sched_.run();
  EXPECT_EQ(fires_, 1);  // not accelerated by repeated calls
  EXPECT_EQ(fired_at_, 2 * 20_us);
}

TEST_F(BackoffTest, BusyAtZeroBiWaitsForIdleSlot) {
  engine_.draw(0);
  set_idle(false);
  engine_.ensure_running(31);
  sched_.run_until(500_us);
  EXPECT_EQ(fires_, 0);
  set_idle(true);
  sched_.run_until(600_us);
  EXPECT_EQ(fires_, 1);
}

TEST_F(BackoffTest, MeanDrawIsHalfCw) {
  double sum = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    engine_.draw(31);
    sum += engine_.bi();
  }
  EXPECT_NEAR(sum / n, 15.5, 0.3);
}

}  // namespace
}  // namespace rmacsim
