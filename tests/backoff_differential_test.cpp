// Differential test: the event-driven BackoffEngine against the per-slot
// polling engine it replaced (polling_backoff_reference.hpp).
//
// Each trial builds two identical worlds — one Scheduler, several engines,
// one scripted channel per engine — that differ only in the engine type,
// and runs the same randomized script through both: channel edges (busy,
// a DIFS-like idle threshold, a forecast horizon) landing on and off slot
// boundaries, stop() / draw() / ensure_running() while counting down or
// asleep, restarts from inside the fire callback (BI == 0 included), and
// countdowns that share a phase.  Script events are scheduled both up front
// and from other events, so they reach the scheduler with every kind of
// key.  The worlds must agree on the (time, engine) fire sequence — which
// includes the order of fires at the same nanosecond — on BI after every
// stop(), and on the idle/busy sample counts.
//
// One precondition of the event-driven engine is honoured by construction:
// no ordinary event is scheduled exactly one slot ahead (only a backoff
// sample is), so every script delay skips that value.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "mac/backoff.hpp"
#include "polling_backoff_reference.hpp"

namespace rmacsim {
namespace {

using namespace rmacsim::literals;

constexpr SimTime kSlot = 20_us;
constexpr SimTime kGrain = 5_us;  // script times: a quarter slot, so edges hit boundaries
constexpr std::size_t kEngines = 5;

// The scripted inputs of one engine: idle(t) = !busy && t >= idle_at.  With
// `horizon` set the event-driven view only vouches for the present
// instant, as ToneChannel::quiet_span does under mobility.
struct ChannelState {
  bool busy{false};
  SimTime idle_at{SimTime::zero()};
  bool horizon{false};
};

enum class Op : std::uint8_t {
  kBusy,
  kIdle,
  kIdleAt,
  kHorizon,
  kStop,
  kStopClear,
  kDraw,
  kRun,
};

struct Action {
  SimTime at;
  SimTime lead;  // scheduled `lead` before `at` from a helper event; zero: up front
  Op op;
  std::size_t engine;
  unsigned param;
};

struct Log {
  std::vector<std::pair<SimTime, std::size_t>> fires;
  std::vector<std::pair<SimTime, unsigned>> stops;  // BI after each stop()
  std::uint64_t idle{0};
  std::uint64_t busy{0};
};

// A delay in grains, never exactly one slot.
SimTime script_delay(Rng& rng, std::int64_t max_grains) {
  std::int64_t g = rng.uniform_int(0, max_grains);
  if (g * kGrain == kSlot) ++g;
  return g * kGrain;
}

std::vector<Action> make_script(std::uint64_t seed, std::size_t count) {
  Rng rng{seed};
  std::vector<Action> script;
  for (std::size_t i = 0; i < count; ++i) {
    Action a;
    a.at = rng.uniform_int(1, 800) * kGrain;
    a.lead = rng.uniform(0.0, 1.0) < 0.5 ? SimTime::zero() : script_delay(rng, 12);
    if (a.lead > a.at) a.lead = a.at;
    a.op = static_cast<Op>(rng.uniform_int(0, 7));
    // Skew towards the first two engines so their countdowns share phases.
    a.engine = static_cast<std::size_t>(rng.uniform(0.0, 1.0) < 0.5 ? rng.uniform_int(0, 1)
                                                                      : rng.uniform_int(0, 4));
    a.param = static_cast<unsigned>(rng.uniform_int(0, 15));
    script.push_back(a);
  }
  return script;
}

// Uniform face over the two engine types for the world template.
struct Polling {
  using Engine = PollingBackoffEngine;
};
struct EventDriven {
  using Engine = BackoffEngine;
};

template <typename Kind>
class World {
public:
  using Engine = typename Kind::Engine;

  explicit World(std::uint64_t seed) : follow_up_{seed ^ 0x5eed} {
    for (std::size_t i = 0; i < kEngines; ++i) {
      views_.push_back(std::make_unique<View>(*this));
      engines_.push_back(std::make_unique<Engine>(sched_, kSlot, Rng{seed * 31 + i}));
      View& v = *views_.back();
      if constexpr (std::is_same_v<Engine, BackoffEngine>) {
        engines_.back()->set_channel(v, [this, i] { on_fire(i); });
      } else {
        engines_.back()->set_callbacks(
            [this, &v] {
              const bool idle = v.idle_now();
              ++(idle ? log_.idle : log_.busy);
              return idle;
            },
            [this, i] { on_fire(i); });
      }
    }
  }

  Log run(const std::vector<Action>& script) {
    for (const Action& a : script) {
      if (a.lead == SimTime::zero()) {
        sched_.schedule_at(a.at, [this, a] { apply(a); });
      } else {
        sched_.schedule_at(a.at - a.lead, [this, a] {
          sched_.schedule_in(a.lead, [this, a] { apply(a); });
        });
      }
    }
    // Chunked, with probes between the chunks: an outside caller settles at
    // the boundary position a finished run_until() leaves behind.
    for (SimTime t = 400_us; t <= 6_ms; t += 400_us) {
      sched_.run_until(t);
      for (auto& e : engines_) bis_.push_back(e->bi());
    }
    if constexpr (std::is_same_v<Engine, BackoffEngine>) {
      for (auto& e : engines_) {
        log_.idle += e->slots().idle;
        log_.busy += e->slots().busy;
      }
    }
    return log_;
  }

  [[nodiscard]] const std::vector<unsigned>& probed_bis() const noexcept { return bis_; }

private:
  struct View final : BackoffEngine::Channel {
    explicit View(World& w) : world{w} {}
    [[nodiscard]] bool idle_now() const {
      return !state.busy && world.sched_.now() >= state.idle_at;
    }
    [[nodiscard]] BackoffEngine::Forecast backoff_forecast() const override {
      const SimTime now = world.sched_.now();
      SimTime from = state.busy ? SimTime::max() : std::max(now, state.idle_at);
      SimTime until = SimTime::max();
      if (state.horizon) {
        until = now + 1_ns;
        from = std::min(from, until);
      }
      return {from, until};
    }
    World& world;
    ChannelState state;
  };

  void changed(std::size_t i) {
    if constexpr (std::is_same_v<Engine, BackoffEngine>) engines_[i]->notify();
  }

  void apply(const Action& a) {
    Engine& e = *engines_[a.engine];
    ChannelState& c = views_[a.engine]->state;
    switch (a.op) {
      case Op::kBusy:
        c.busy = true;
        changed(a.engine);
        break;
      case Op::kIdle:
        c.busy = false;
        changed(a.engine);
        break;
      case Op::kIdleAt:
        c.idle_at = sched_.now() + static_cast<std::int64_t>(a.param) * kGrain;
        changed(a.engine);
        break;
      case Op::kHorizon:
        c.horizon = !c.horizon;
        changed(a.engine);
        break;
      case Op::kStop:
      case Op::kStopClear:
        e.stop(a.op == Op::kStopClear);
        log_.stops.emplace_back(sched_.now(), e.bi());
        break;
      case Op::kDraw:
        e.draw(a.param);
        break;
      case Op::kRun:
        e.ensure_running(a.param % 3 == 0 ? 0u : a.param);
        break;
    }
  }

  void on_fire(std::size_t i) {
    log_.fires.emplace_back(sched_.now(), i);
    // Same decisions in both worlds: the follow-up stream advances once per
    // fire, and the fire sequences are compared anyway.
    const std::int64_t what = follow_up_.uniform_int(0, 5);
    if (what == 0) {
      engines_[i]->draw(7);
      engines_[i]->ensure_running(7);
    } else if (what == 1) {
      engines_[i]->draw(0);  // BI == 0: zero-delay restart
      engines_[i]->ensure_running(0);
    } else if (what == 2) {
      const Action next{SimTime::zero(), SimTime::zero(), Op::kRun, i, 9};
      sched_.schedule_in(script_delay(follow_up_, 10), [this, next] { apply(next); });
    } else if (what == 3) {
      // Flip the channel of a peer from inside this fire.
      const std::size_t peer = (i + 1) % kEngines;
      views_[peer]->state.busy = !views_[peer]->state.busy;
      changed(peer);
    }
  }

  Scheduler sched_;
  std::vector<std::unique_ptr<View>> views_;
  std::vector<std::unique_ptr<Engine>> engines_;
  Rng follow_up_;
  Log log_;
  std::vector<unsigned> bis_;
};

TEST(BackoffDifferential, MatchesPollingReferenceOnRandomScripts) {
  std::size_t total_fires = 0, same_instant_fires = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const std::vector<Action> script = make_script(seed, 120);
    World<Polling> ref{seed};
    World<EventDriven> dut{seed};
    const Log want = ref.run(script);
    const Log got = dut.run(script);
    ASSERT_EQ(got.fires, want.fires);
    ASSERT_EQ(got.stops, want.stops);
    ASSERT_EQ(dut.probed_bis(), ref.probed_bis());
    ASSERT_EQ(got.idle, want.idle);
    ASSERT_EQ(got.busy, want.busy);
    total_fires += want.fires.size();
    for (std::size_t k = 1; k < want.fires.size(); ++k) {
      if (want.fires[k].first == want.fires[k - 1].first) ++same_instant_fires;
    }
  }
  // The scripts must actually exercise the engine, same-instant fires (the
  // same-phase ordering hazard) included.
  EXPECT_GT(total_fires, 3000u);
  EXPECT_GT(same_instant_fires, 20u);
}

// The same-slot collision case in isolation: countdowns sharing a phase,
// started in every order relative to each other's samples, fire at one
// instant in the order their polling ticks would have run.
TEST(BackoffDifferential, SamePhaseCountdownsKeepPollingOrder) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng{seed};
    std::vector<Action> script;
    for (std::size_t i = 0; i < 40; ++i) {
      Action a;
      a.at = rng.uniform_int(1, 40) * kSlot;  // every start shares one phase
      a.lead = rng.uniform(0.0, 1.0) < 0.5 ? SimTime::zero() : script_delay(rng, 6);
      if (a.lead > a.at) a.lead = a.at;
      const double pick = rng.uniform(0.0, 1.0);
      a.op = pick < 0.7 ? Op::kRun : (pick < 0.85 ? Op::kBusy : Op::kIdle);
      a.engine = static_cast<std::size_t>(rng.uniform_int(0, 4));
      a.param = static_cast<unsigned>(rng.uniform_int(1, 3));
      script.push_back(a);
    }
    World<Polling> ref{seed};
    World<EventDriven> dut{seed};
    const Log want = ref.run(script);
    const Log got = dut.run(script);
    ASSERT_EQ(got.fires, want.fires);
    ASSERT_EQ(got.idle, want.idle);
    ASSERT_EQ(got.busy, want.busy);
  }
}

}  // namespace
}  // namespace rmacsim
