// Canonical experiment-config serialization and content-addressed cell keys.
//
// A campaign cell is identified by WHAT it simulates, not by where or when it
// ran: the key is FNV-1a(canonical config string + code revision).  The
// canonical string is a versioned, '|'-separated key=value rendering of every
// ExperimentConfig field that can change figures, digests, or the metrics
// snapshot.  Fields proven result-neutral (observer/progress attachments,
// artifact paths) are deliberately excluded — toggling them must hit the
// cache.
//
// The string is also the worker-process wire format: the coordinator passes
// it verbatim to `run_experiment --worker <canonical>`, the worker parses it
// back and re-serializes to prove the round trip, so a key can never refer to
// a config the worker didn't actually run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "scenario/experiment.hpp"

namespace rmacsim {

inline constexpr std::string_view kCanonicalConfigVersion = "rmacsim-cell-v1";

// Lowercase stable tokens (distinct from the display names in to_string(),
// which carry dots and dashes awkward in specs and filenames).
[[nodiscard]] const char* protocol_token(Protocol p) noexcept;
[[nodiscard]] const char* mobility_token(MobilityScenario m) noexcept;
[[nodiscard]] const char* partition_token(ShardPartition p) noexcept;
[[nodiscard]] const char* strategy_token(ForwardStrategy s) noexcept;
[[nodiscard]] bool protocol_from_token(std::string_view token, Protocol& out) noexcept;
[[nodiscard]] bool mobility_from_token(std::string_view token, MobilityScenario& out) noexcept;
[[nodiscard]] bool partition_from_token(std::string_view token, ShardPartition& out) noexcept;
[[nodiscard]] bool strategy_from_token(std::string_view token, ForwardStrategy& out) noexcept;

// Render the canonical string.  Deterministic: fixed field order, times as
// integer nanoseconds, doubles in shortest round-trip form.
[[nodiscard]] std::string canonical_config(const ExperimentConfig& config);

// Parse a canonical string back into a config (starting from defaults, so a
// newer writer adding fields breaks loudly via the version token rather than
// silently).  Returns false and fills `error` (if non-null) on version
// mismatch, unknown key, or malformed value.  Result-neutral fields keep
// their ExperimentConfig defaults and can be set by the caller afterwards.
[[nodiscard]] bool parse_canonical_config(std::string_view text, ExperimentConfig& out,
                                          std::string* error = nullptr);

// FNV-1a 64-bit over `canonical` + '\n' + `revision`, rendered as 16 lowercase
// hex digits.  `revision` ties results to the code that produced them; use
// build_revision() (src/campaign/) for the compiled-in git revision.
[[nodiscard]] std::string cell_key(std::string_view canonical, std::string_view revision);

}  // namespace rmacsim
