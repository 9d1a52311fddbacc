// Slot-based backoff engine (paper §3.3.1).
//
// The node keeps a Backoff Interval (BI) in slot units.  The channel is
// sampled once per slot, at the phase-aligned boundaries B_k = B_0 + k·slot
// of the countdown that ensure_running() started; on an idle sample BI
// decreases by one, on a busy one the countdown is suspended with BI
// preserved.  When BI hits zero on an idle sample the `fire` callback runs.
// Contention Window management (exponential increase / reset) stays with
// the owning protocol.
//
// The engine is event-driven.  Instead of a predicate it reads a Channel
// view, which forecasts the idle predicate from now on assuming none of its
// inputs change; the owner calls notify() after every input change.  The
// idle samples between two changes are then counted arithmetically, and
// only two kinds of boundary get a scheduler event: the boundary the
// countdown fires at, and the first boundary past a forecast's horizon
// (where the view cannot say more, e.g. under mobility).  A busy channel
// costs nothing until it clears.
//
// Observable behaviour is exactly that of sampling every boundary with a
// per-slot event that reschedules itself (the reference engine in
// tests/polling_backoff_reference.hpp).  Such a tick for B_k would have been
// scheduled while the tick for B_{k-1} ran, so it sorted after every event
// scheduled before that moment and before every event scheduled after it.
// The engine gives every boundary the scheduler key {B_k, B_{k-1}, rank}:
// scheduled-at B_{k-1} reproduces that order against ordinary events, and
// `rank` — one order value per countdown, fixed for its whole life —
// reproduces the order among countdowns sharing a phase (two 802.11 nodes
// drawing the same slot), which polling ticks keep from the moment the
// younger countdown started.  Whether the sample at B_k == now() precedes
// the running event is a comparison of that key with the scheduler's
// current_key().
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace rmacsim {

class BackoffEngine {
public:
  // The idle predicate as a function of future time t >= now(), valid until
  // the owner's next notify(): busy for t < idle_from, idle for
  // idle_from <= t < idle_until, unknown from idle_until on (the engine
  // samples the first boundary there with a real event).  {max, max} is
  // "busy until further notice".
  struct Forecast {
    SimTime idle_from;
    SimTime idle_until;
  };
  class Channel {
  public:
    [[nodiscard]] virtual Forecast backoff_forecast() const = 0;

  protected:
    ~Channel() = default;
  };
  using FireCallback = std::function<void()>;

  // Per-sample accounting: every boundary the countdown sampled.
  struct SlotCounts {
    std::uint64_t idle{0};
    std::uint64_t busy{0};
  };

  BackoffEngine(Scheduler& scheduler, SimTime slot, Rng rng)
      : scheduler_{scheduler}, slot_{slot.nanoseconds()}, rng_{rng} {}
  ~BackoffEngine() { stop(); }
  BackoffEngine(const BackoffEngine&) = delete;
  BackoffEngine& operator=(const BackoffEngine&) = delete;

  void set_channel(const Channel& channel, FireCallback fire) {
    channel_ = &channel;
    fire_ = std::move(fire);
  }

  // Draw a fresh BI uniformly from [0, cw].  Replaces any preserved BI.
  void draw(unsigned cw) {
    settle();
    bi_ = static_cast<unsigned>(rng_.uniform_int(0, static_cast<std::int64_t>(cw)));
    drawn_ = true;
    if (counting()) plan();
  }

  // Begin (or resume) the countdown; draws from `cw` only if no BI is
  // pending from a previous suspension.
  void ensure_running(unsigned cw) {
    if (!drawn_) draw(cw);
    if (running_) return;
    running_ = true;
    if (bi_ == 0) {
      // BI == 0 samples the channel at now() itself ("begins frame
      // transmission immediately"), behind everything already scheduled for
      // now(): an ordinary zero-delay event is exactly that position.
      starting_ = true;
      event_ = scheduler_.schedule_in(SimTime::zero(), [this] { on_start(); });
      return;
    }
    rank_ = start_rank();
    next_ = scheduler_.now().nanoseconds() + slot_;
    forecast_ = channel_->backoff_forecast();
    plan();
  }

  // Stop counting down; BI is preserved (suspension) unless `clear`.
  void stop(bool clear = false) noexcept {
    if (running_) {
      settle();
      scheduler_.cancel(event_);
      event_ = kInvalidEvent;
      running_ = false;
      starting_ = false;
    }
    if (clear) drawn_ = false;
  }

  // The owner's channel inputs changed: count the samples taken under the
  // old forecast, then re-plan under a new one.
  void notify() {
    if (!counting()) return;
    settle();
    forecast_ = channel_->backoff_forecast();
    plan();
  }

  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] bool has_pending_bi() const noexcept { return drawn_; }
  [[nodiscard]] unsigned bi() {
    settle();
    return bi_;
  }
  // True when an immediate transmission is allowed (no countdown pending).
  [[nodiscard]] bool clear_to_send() { return !drawn_ || bi() == 0; }

  // Samples so far, including every boundary that precedes the scheduler's
  // current position.
  [[nodiscard]] const SlotCounts& slots() {
    settle();
    return slots_;
  }

private:
  [[nodiscard]] bool counting() const noexcept { return running_ && !starting_; }

  // Key of the (virtual) sample at boundary b.
  [[nodiscard]] EventKey key_at(std::int64_t b) const noexcept {
    return EventKey{SimTime::ns(b), SimTime::ns(b - slot_), rank_};
  }

  // Order value for a countdown whose first boundary is now() + slot.  Its
  // polling tick would be scheduled right now, so among countdowns sharing
  // its phase it sorts where the running event sorts among their samples
  // at now(): after all of them when that event was scheduled after
  // now() - slot, before all of them when it was scheduled earlier — and in
  // both cases after the countdowns started earlier at this same now().
  // The only event scheduled at exactly now() - slot for now() that can
  // restart a countdown is that countdown's own firing sample, whose place
  // the new one takes.
  [[nodiscard]] std::uint64_t start_rank() {
    const EventKey& cur = scheduler_.current_key();
    const SimTime prev = scheduler_.now() - SimTime::ns(slot_);
    if (cur.scheduled_at < prev) return scheduler_.take_front_order();
    if (cur.scheduled_at == prev && cur.at == scheduler_.now() && cur.order == rank_) {
      return rank_;
    }
    return scheduler_.take_order();
  }

  // Fold every boundary whose sample precedes the scheduler's current
  // position into BI and the slot counts, using the cached forecast.
  void settle() {
    if (!counting()) return;
    const std::int64_t now = scheduler_.now().nanoseconds();
    if (next_ > now) return;
    std::int64_t last = next_ + (now - next_) / slot_ * slot_;
    if (last == now && !(key_at(last) < scheduler_.current_key())) last -= slot_;
    if (last < next_) return;
    const std::uint64_t n = static_cast<std::uint64_t>((last - next_) / slot_) + 1;
    std::uint64_t idle = 0;
    const std::int64_t lo = align_up(std::max(next_, forecast_.idle_from.nanoseconds()));
    if (lo <= last && lo < forecast_.idle_until.nanoseconds()) {
      const std::int64_t hi = std::min(last, forecast_.idle_until.nanoseconds() - 1);
      idle = static_cast<std::uint64_t>((hi - lo) / slot_) + 1;
    }
    // The planned event covers the first boundary that fires or leaves the
    // forecast, and it has not run yet.
    assert(idle < std::max<std::uint64_t>(bi_, 1));
    assert(last < forecast_.idle_until.nanoseconds());
    bi_ -= static_cast<unsigned>(idle);
    slots_.idle += idle;
    slots_.busy += n - idle;
    next_ = last + slot_;
  }

  // Schedule the one event the countdown needs under forecast_: the firing
  // boundary, or the first boundary past the forecast's horizon — or none
  // while the channel stays busy.
  void plan() {
    const std::int64_t from = forecast_.idle_from.nanoseconds();
    const std::int64_t until = forecast_.idle_until.nanoseconds();
    std::int64_t target = kNever;
    const std::int64_t first_idle = align_up(std::max(next_, from));
    const std::int64_t need = std::max<std::int64_t>(bi_, 1) - 1;
    if (first_idle < until && (until - first_idle - 1) / slot_ >= need) {
      target = first_idle + need * slot_;  // fires there
    } else if (forecast_.idle_until != SimTime::max()) {
      target = align_up(std::max(next_, until));  // sample past the horizon
    }
    if (event_ != kInvalidEvent) {
      if (target == event_at_) return;
      scheduler_.cancel(event_);
      event_ = kInvalidEvent;
    }
    if (target == kNever) return;
    event_at_ = target;
    event_ = scheduler_.schedule_keyed(SimTime::ns(target), SimTime::ns(target - slot_), rank_,
                                       [this] { on_boundary(); });
  }

  // A real sample at boundary now(): the firing boundary or a horizon.
  void on_boundary() {
    event_ = kInvalidEvent;
    settle();  // the boundaries before this one
    forecast_ = channel_->backoff_forecast();
    sample_now();
  }

  // The zero-delay first sample of a countdown started with BI == 0.
  void on_start() {
    event_ = kInvalidEvent;
    starting_ = false;
    next_ = scheduler_.now().nanoseconds();
    forecast_ = channel_->backoff_forecast();
    // A countdown that continues re-arms behind this sample, like the
    // polling tick it replaces.
    rank_ = scheduler_.take_order();
    sample_now();
  }

  void sample_now() {
    const SimTime now = scheduler_.now();
    assert(next_ == now.nanoseconds());
    if (forecast_.idle_from <= now && now < forecast_.idle_until) {
      ++slots_.idle;
      if (bi_ > 0) --bi_;
      if (bi_ == 0) {
        running_ = false;
        drawn_ = false;
        fire_();
        return;
      }
    } else {
      ++slots_.busy;
    }
    next_ += slot_;
    plan();
  }

  [[nodiscard]] std::int64_t align_up(std::int64_t t) const noexcept {
    if (t <= next_) return next_;
    if (t >= kNever - slot_) return kNever;
    return next_ + (t - next_ + slot_ - 1) / slot_ * slot_;
  }

  static constexpr std::int64_t kNever = SimTime::max().nanoseconds();

  Scheduler& scheduler_;
  std::int64_t slot_;
  Rng rng_;
  const Channel* channel_{nullptr};
  FireCallback fire_;
  unsigned bi_{0};
  bool drawn_{false};
  bool running_{false};
  bool starting_{false};     // running, zero-delay first sample still pending
  std::int64_t next_{0};     // first boundary not yet sampled
  std::uint64_t rank_{0};    // scheduler order of this countdown's samples
  Forecast forecast_{SimTime::max(), SimTime::max()};
  EventId event_{kInvalidEvent};
  std::int64_t event_at_{0};
  SlotCounts slots_;
};

}  // namespace rmacsim
