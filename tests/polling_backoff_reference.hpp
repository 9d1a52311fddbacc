// Test-only reference: the per-slot polling backoff engine that
// src/mac/backoff.hpp replaced, kept verbatim apart from its name.  It is
// the oracle of tests/backoff_differential_test.cpp, which drives it and
// the event-driven engine through the same scripted inputs and requires
// identical fires, BIs and sample counts.  Nothing in src/ can select it.
//
// Slot-based backoff engine (paper §3.3.1).
//
// The node keeps a Backoff Interval (BI) in slot units.  Each slot it
// samples the channel predicate; if idle, BI decreases by one, otherwise
// the countdown is suspended with BI preserved.  When BI hits zero the
// `fire` callback runs.  Contention Window management (exponential
// increase / reset) stays with the owning protocol.
#pragma once

#include <cassert>
#include <functional>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace rmacsim {

class PollingBackoffEngine {
public:
  using IdlePredicate = std::function<bool()>;
  using FireCallback = std::function<void()>;

  PollingBackoffEngine(Scheduler& scheduler, SimTime slot, Rng rng)
      : scheduler_{scheduler}, slot_{slot}, rng_{rng} {}
  ~PollingBackoffEngine() { stop(); }
  PollingBackoffEngine(const PollingBackoffEngine&) = delete;
  PollingBackoffEngine& operator=(const PollingBackoffEngine&) = delete;

  void set_callbacks(IdlePredicate idle, FireCallback fire) {
    idle_ = std::move(idle);
    fire_ = std::move(fire);
  }

  // Draw a fresh BI uniformly from [0, cw].  Replaces any preserved BI.
  void draw(unsigned cw) {
    bi_ = static_cast<unsigned>(rng_.uniform_int(0, static_cast<std::int64_t>(cw)));
    drawn_ = true;
  }

  // Begin (or resume) the countdown; draws from `cw` only if no BI is
  // pending from a previous suspension.
  void ensure_running(unsigned cw) {
    if (!drawn_) draw(cw);
    if (ticking_) return;
    ticking_ = true;
    // BI == 0 with an idle channel fires on the next event boundary, which
    // matches "begins frame transmission immediately".
    schedule_tick(bi_ == 0 ? SimTime::zero() : slot_);
  }

  // Stop ticking; BI is preserved (suspension) unless `clear`.
  void stop(bool clear = false) noexcept {
    if (ticking_) {
      scheduler_.cancel(tick_event_);
      ticking_ = false;
    }
    if (clear) drawn_ = false;
  }

  [[nodiscard]] bool running() const noexcept { return ticking_; }
  [[nodiscard]] bool has_pending_bi() const noexcept { return drawn_; }
  [[nodiscard]] unsigned bi() const noexcept { return bi_; }
  // True when an immediate transmission is allowed (no countdown pending).
  [[nodiscard]] bool clear_to_send() const noexcept { return !drawn_ || bi_ == 0; }

private:
  void schedule_tick(SimTime delay) {
    tick_event_ = scheduler_.schedule_in(delay, [this] { tick(); });
  }

  void tick() {
    assert(idle_ && fire_);
    if (idle_()) {
      if (bi_ > 0) --bi_;
      if (bi_ == 0) {
        ticking_ = false;
        drawn_ = false;
        fire_();
        return;
      }
    }
    schedule_tick(slot_);
  }

  Scheduler& scheduler_;
  SimTime slot_;
  Rng rng_;
  IdlePredicate idle_;
  FireCallback fire_;
  unsigned bi_{0};
  bool drawn_{false};
  bool ticking_{false};
  EventId tick_event_{kInvalidEvent};
};

}  // namespace rmacsim
