// Lightweight structured trace facility.
//
// Protocol modules emit trace records (state transitions, frame events);
// a run installs one or more sinks when it wants them (tests assert on
// traces, the frame_trace example pretty-prints them, the SimAuditor checks
// protocol invariants against them).  With no sink installed tracing is a
// branch and nothing more.
//
// Records carry both a human-readable message and, for phy-level events, a
// machine-readable part (`event`, `frame`, `flag`, `aux`) so consumers never
// have to parse message strings.  `frame` is a forward-declared
// shared_ptr<const Frame>: sinks that need frame contents include
// phy/frame.hpp themselves, keeping sim/ below phy/ in the layering.
//
// Tracing is pay-for-what-you-read.  Each sink subscribes with a category
// mask and declares whether it reads `message`; hot emit sites pass a
// deferred formatter and the Tracer renders the string only when at least
// one subscribed sink asked for it.  Structured consumers (the SimAuditor,
// golden-trace digests) therefore run completely string-free, which is what
// makes always-on auditing affordable at paper scale.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "sim/ids.hpp"
#include "sim/time.hpp"

namespace rmacsim {

struct Frame;  // phy/frame.hpp

enum class TraceCategory : std::uint8_t {
  kPhy,
  kTone,
  kMac,
  kMacState,
  kNet,
  kApp,
};

[[nodiscard]] std::string_view to_string(TraceCategory c) noexcept;

// Machine-readable event kind for structured records.
enum class TraceEvent : std::uint8_t {
  kGeneric,  // message-only record (state changes, net/app notes)
  kTxStart,  // node started transmitting `frame`
  kTxEnd,    // node's transmission ended; flag = aborted (truncated on air)
  kFrameRx,  // an intact frame was decoded at node (regardless of addressing)
  kToneOn,   // node raised its tone; aux = tone kind; flag = suppressed
  kToneOff,  // node dropped its tone; aux = tone kind; flag = suppressed
  kMacState, // MAC state transition; aux = (from_state << 8) | to_state
  kDeliver,  // app-layer first delivery of a packet at node
};

[[nodiscard]] std::string_view to_string(TraceEvent e) noexcept;

// `aux` values for kToneOn/kToneOff records.
inline constexpr std::uint32_t kToneKindRbt = 0;
inline constexpr std::uint32_t kToneKindAbt = 1;
inline constexpr std::uint32_t kToneKindOther = 2;

struct TraceRecord {
  SimTime at;
  TraceCategory category;
  std::uint32_t node;
  // Human-readable text.  Lazily rendered: when the emit site supplies a
  // deferred formatter, `message` is empty unless a subscribed sink declared
  // needs_message for this record's category.
  std::string message;
  // --- structured part (meaningful when event != kGeneric) -----------------
  TraceEvent event{TraceEvent::kGeneric};
  std::shared_ptr<const Frame> frame{};  // kTxStart / kTxEnd / kFrameRx
  bool flag{false};                      // kTxEnd: aborted; tones: suppressed
  std::uint32_t aux{0};                  // tones: kToneKind*; kMacState: states
  // Journey of the packet this record concerns (flight recorder); mirrors
  // frame->journey on frame events so mask-only sinks needn't touch `frame`.
  JourneyId journey{kInvalidJourney};
};

class Tracer {
 public:
  using Sink = std::function<void(const TraceRecord&)>;
  using SinkId = std::uint32_t;
  using CategoryMask = std::uint32_t;

  [[nodiscard]] static constexpr CategoryMask bit(TraceCategory c) noexcept {
    return CategoryMask{1} << static_cast<unsigned>(c);
  }
  // One bit per TraceCategory enumerator (kPhy .. kApp).
  static constexpr CategoryMask kAllCategories = (CategoryMask{1} << 6) - 1;

  // `categories` selects which records the sink receives; a sink that only
  // reads the structured fields passes needs_message=false so hot emit sites
  // can skip string formatting entirely when nobody else wants the text.
  SinkId add_sink(Sink sink, CategoryMask categories = kAllCategories,
                  bool needs_message = true) {
    const SinkId id = next_id_++;
    sinks_.push_back(Entry{id, categories, needs_message, std::move(sink)});
    recompute_masks();
    return id;
  }
  // Safe to call from inside a sink callback during emit, the sink itself
  // included: the entry is tombstoned (never invoked again, including for the
  // record currently being dispatched to later sinks), and its callable is
  // destroyed only when the entry is erased, once dispatch unwinds.
  void remove_sink(SinkId id) noexcept {
    for (Entry& e : sinks_) {
      if (e.id == id) {
        e.id = kTombstone;
        if (dispatch_depth_ == 0) {
          compact();
        } else {
          pending_compact_ = true;
        }
        recompute_masks();
        return;
      }
    }
  }

  [[nodiscard]] bool enabled() const noexcept { return union_mask_ != 0; }

  // True when some sink subscribed to `c` — the emit-site guard.
  [[nodiscard]] bool wants(TraceCategory c) const noexcept {
    return (union_mask_ & bit(c)) != 0;
  }
  // True when some sink subscribed to `c` also reads `message`.
  [[nodiscard]] bool wants_message(TraceCategory c) const noexcept {
    return (message_mask_ & bit(c)) != 0;
  }

  void emit(SimTime at, TraceCategory category, std::uint32_t node, std::string message) const {
    if (!wants(category)) return;
    dispatch(TraceRecord{at, category, node, std::move(message)});
  }

  // Structured emission; `record.event` et al. set by the caller.
  void emit(TraceRecord record) const {
    if (!wants(record.category)) return;
    dispatch(record);
  }

  // Hot-path structured emission: `fmt()` renders the human-readable message
  // and runs only when a subscribed sink declared needs_message for this
  // category.  Callers still guard with wants() to skip building the record.
  template <typename Fmt>
  void emit(TraceRecord record, Fmt&& fmt) const {
    if (!wants(record.category)) return;
    if (wants_message(record.category)) record.message = std::forward<Fmt>(fmt)();
    dispatch(record);
  }

 private:
  struct Entry {
    SinkId id;  // kTombstone = removed, awaiting compaction
    CategoryMask mask;
    bool needs_message;
    Sink sink;
  };

  // Marks a removed entry; add_sink never hands this id out.
  static constexpr SinkId kTombstone = std::numeric_limits<SinkId>::max();

  void recompute_masks() noexcept {
    union_mask_ = 0;
    message_mask_ = 0;
    for (const Entry& e : sinks_) {
      if (e.id == kTombstone) continue;
      union_mask_ |= e.mask;
      if (e.needs_message) message_mask_ |= e.mask;
    }
  }

  void compact() const noexcept {
    for (std::size_t i = sinks_.size(); i-- > 0;) {
      if (sinks_[i].id == kTombstone) {
        sinks_.erase(sinks_.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    pending_compact_ = false;
  }

  // Reentrancy contract: a sink callback may add or remove sinks (itself
  // included).  Entries live in a deque so appends never relocate the entry
  // whose std::function is currently executing; the size snapshot means a
  // sink added mid-dispatch first sees the *next* record (never a partial or
  // double delivery of this one); removal tombstones in place, so later
  // entries keep their positions and are each visited exactly once.
  void dispatch(const TraceRecord& r) const {
    const CategoryMask b = bit(r.category);
    ++dispatch_depth_;
    const std::size_t n = sinks_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Entry& e = sinks_[i];
      if (e.id != kTombstone && (e.mask & b) != 0) e.sink(r);
    }
    if (--dispatch_depth_ == 0 && pending_compact_) compact();
  }

  mutable std::deque<Entry> sinks_;
  CategoryMask union_mask_{0};
  CategoryMask message_mask_{0};
  SinkId next_id_{1};
  mutable std::uint32_t dispatch_depth_{0};
  mutable bool pending_compact_{false};
};

}  // namespace rmacsim
