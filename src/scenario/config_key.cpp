#include "scenario/config_key.hpp"

#include <charconv>
#include <cstddef>

#include "sim/strfmt.hpp"

namespace rmacsim {

namespace {

// Shortest round-trip double rendering (to_chars default), so the canonical
// string survives serialize -> parse -> serialize byte for byte.
void append_double(std::string& s, double v) {
  char b[40];
  const auto r = std::to_chars(b, b + sizeof b, v);
  s.append(b, static_cast<std::size_t>(r.ptr - b));
}

void append_u64(std::string& s, std::uint64_t v) {
  char b[24];
  const auto r = std::to_chars(b, b + sizeof b, v);
  s.append(b, static_cast<std::size_t>(r.ptr - b));
}

void append_i64(std::string& s, std::int64_t v) {
  char b[24];
  const auto r = std::to_chars(b, b + sizeof b, v);
  s.append(b, static_cast<std::size_t>(r.ptr - b));
}

struct FieldParser {
  std::string_view key;
  std::string_view value;
  bool ok{true};
  std::string detail;

  void fail(const char* what) {
    if (ok) detail = cat("field ", key, ": ", what, " '", value, "'");
    ok = false;
  }

  void u64(std::uint64_t& out) {
    const auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
    if (ec != std::errc{} || p != value.data() + value.size()) fail("bad integer");
  }
  void u32(unsigned& out) {
    std::uint64_t v = 0;
    u64(v);
    out = static_cast<unsigned>(v);
  }
  void usize(std::size_t& out) {
    std::uint64_t v = 0;
    u64(v);
    out = static_cast<std::size_t>(v);
  }
  void dbl(double& out) {
    const auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
    if (ec != std::errc{} || p != value.data() + value.size()) fail("bad number");
  }
  void boolean(bool& out) {
    if (value == "1") {
      out = true;
    } else if (value == "0") {
      out = false;
    } else {
      fail("bad bool");
    }
  }
  void time_ns(SimTime& out) {
    std::int64_t v = 0;
    const auto [p, ec] = std::from_chars(value.data(), value.data() + value.size(), v);
    if (ec != std::errc{} || p != value.data() + value.size()) {
      fail("bad time");
      return;
    }
    out = SimTime::ns(v);
  }
};

}  // namespace

const char* protocol_token(Protocol p) noexcept {
  switch (p) {
    case Protocol::kRmac: return "rmac";
    case Protocol::kBmmm: return "bmmm";
    case Protocol::kDcf: return "dcf";
    case Protocol::kBmw: return "bmw";
    case Protocol::kMx: return "mx";
    case Protocol::kLamm: return "lamm";
  }
  return "?";
}

const char* mobility_token(MobilityScenario m) noexcept {
  switch (m) {
    case MobilityScenario::kStationary: return "stationary";
    case MobilityScenario::kSpeed1: return "speed1";
    case MobilityScenario::kSpeed2: return "speed2";
  }
  return "?";
}

const char* partition_token(ShardPartition p) noexcept {
  switch (p) {
    case ShardPartition::kStripes: return "stripes";
    case ShardPartition::kGrid: return "grid";
    case ShardPartition::kRcb: return "rcb";
  }
  return "?";
}

const char* strategy_token(ForwardStrategy s) noexcept {
  switch (s) {
    case ForwardStrategy::kTree: return "tree";
    case ForwardStrategy::kFlood: return "flood";
  }
  return "?";
}

bool protocol_from_token(std::string_view token, Protocol& out) noexcept {
  for (const Protocol p : {Protocol::kRmac, Protocol::kBmmm, Protocol::kDcf, Protocol::kBmw,
                           Protocol::kMx, Protocol::kLamm}) {
    if (token == protocol_token(p)) {
      out = p;
      return true;
    }
  }
  return false;
}

bool mobility_from_token(std::string_view token, MobilityScenario& out) noexcept {
  for (const MobilityScenario m :
       {MobilityScenario::kStationary, MobilityScenario::kSpeed1, MobilityScenario::kSpeed2}) {
    if (token == mobility_token(m)) {
      out = m;
      return true;
    }
  }
  return false;
}

bool partition_from_token(std::string_view token, ShardPartition& out) noexcept {
  for (const ShardPartition p :
       {ShardPartition::kStripes, ShardPartition::kGrid, ShardPartition::kRcb}) {
    if (token == partition_token(p)) {
      out = p;
      return true;
    }
  }
  return false;
}

bool strategy_from_token(std::string_view token, ForwardStrategy& out) noexcept {
  for (const ForwardStrategy s : {ForwardStrategy::kTree, ForwardStrategy::kFlood}) {
    if (token == strategy_token(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

std::string canonical_config(const ExperimentConfig& c) {
  std::string s{kCanonicalConfigVersion};
  const auto field = [&s](std::string_view key) {
    s += '|';
    s += key;
    s += '=';
  };
  field("proto"), s += protocol_token(c.protocol);
  field("mob"), s += mobility_token(c.mobility);
  field("rate"), append_double(s, c.rate_pps);
  field("pkts"), append_u64(s, c.num_packets);
  field("payload"), append_u64(s, c.payload_bytes);
  field("nodes"), append_u64(s, c.num_nodes);
  field("area_w"), append_double(s, c.area.width);
  field("area_h"), append_double(s, c.area.height);
  field("seed"), append_u64(s, c.seed);
  field("warmup_ns"), append_i64(s, c.warmup.nanoseconds());
  field("drain_ns"), append_i64(s, c.drain.nanoseconds());
  field("phy_range"), append_double(s, c.phy.range_m);
  field("phy_rate"), append_double(s, c.phy.data_rate_bps);
  field("phy_preamble_bits"), append_double(s, c.phy.preamble_bits);
  field("phy_preamble_rate"), append_double(s, c.phy.preamble_rate_bps);
  field("phy_plcp_bits"), append_double(s, c.phy.plcp_header_bits);
  field("phy_plcp_rate"), append_double(s, c.phy.plcp_header_rate_bps);
  field("phy_slot_ns"), append_i64(s, c.phy.slot.nanoseconds());
  field("phy_cca_ns"), append_i64(s, c.phy.cca.nanoseconds());
  field("phy_sifs_ns"), append_i64(s, c.phy.sifs.nanoseconds());
  field("phy_difs_ns"), append_i64(s, c.phy.difs.nanoseconds());
  field("phy_maxprop_ns"), append_i64(s, c.phy.max_propagation.nanoseconds());
  field("phy_ber"), append_double(s, c.phy.bit_error_rate);
  field("phy_prop_speed"), append_double(s, c.phy.propagation_speed_mps);
  field("phy_capture"), append_double(s, c.phy.capture_ratio);
  field("phy_intf_range"), append_double(s, c.phy.interference_range_m);
  field("mac_cw_min"), append_u64(s, c.mac.cw_min);
  field("mac_cw_max"), append_u64(s, c.mac.cw_max);
  field("mac_retry"), append_u64(s, c.mac.retry_limit);
  field("mac_max_rx"), append_u64(s, c.mac.max_receivers);
  field("mac_queue"), append_u64(s, c.mac.queue_limit);
  field("mac_fault_nav"), s += c.mac.fault_ignore_nav ? '1' : '0';
  field("rbt"), s += c.rbt_protection ? '1' : '0';
  field("strategy"), s += strategy_token(c.strategy);
  field("shards"), append_u64(s, c.shards);
  field("partition"), s += partition_token(c.shard_partition);
  field("grid_rows"), append_u64(s, c.shard_grid_rows);
  field("grid_cols"), append_u64(s, c.shard_grid_cols);
  return s;
}

bool parse_canonical_config(std::string_view text, ExperimentConfig& out, std::string* error) {
  const auto fail = [error](std::string msg) {
    if (error != nullptr) *error = std::move(msg);
    return false;
  };
  std::size_t pos = text.find('|');
  if (text.substr(0, pos) != kCanonicalConfigVersion) {
    return fail(cat("canonical config: expected version ", kCanonicalConfigVersion));
  }
  ExperimentConfig c;  // defaults for anything result-neutral
  while (pos != std::string_view::npos) {
    const std::size_t next = text.find('|', pos + 1);
    const std::string_view pair = text.substr(
        pos + 1, next == std::string_view::npos ? std::string_view::npos : next - pos - 1);
    pos = next;
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos) return fail(cat("canonical config: bad pair '", pair, "'"));
    FieldParser f{pair.substr(0, eq), pair.substr(eq + 1), true, {}};
    if (f.key == "proto") {
      if (!protocol_from_token(f.value, c.protocol)) f.fail("unknown protocol");
    } else if (f.key == "mob") {
      if (!mobility_from_token(f.value, c.mobility)) f.fail("unknown mobility");
    } else if (f.key == "rate") {
      f.dbl(c.rate_pps);
    } else if (f.key == "pkts") {
      std::uint64_t v = 0;
      f.u64(v);
      c.num_packets = static_cast<std::uint32_t>(v);
    } else if (f.key == "payload") {
      f.usize(c.payload_bytes);
    } else if (f.key == "nodes") {
      f.u32(c.num_nodes);
    } else if (f.key == "area_w") {
      f.dbl(c.area.width);
    } else if (f.key == "area_h") {
      f.dbl(c.area.height);
    } else if (f.key == "seed") {
      f.u64(c.seed);
    } else if (f.key == "warmup_ns") {
      f.time_ns(c.warmup);
    } else if (f.key == "drain_ns") {
      f.time_ns(c.drain);
    } else if (f.key == "phy_range") {
      f.dbl(c.phy.range_m);
    } else if (f.key == "phy_rate") {
      f.dbl(c.phy.data_rate_bps);
    } else if (f.key == "phy_preamble_bits") {
      f.dbl(c.phy.preamble_bits);
    } else if (f.key == "phy_preamble_rate") {
      f.dbl(c.phy.preamble_rate_bps);
    } else if (f.key == "phy_plcp_bits") {
      f.dbl(c.phy.plcp_header_bits);
    } else if (f.key == "phy_plcp_rate") {
      f.dbl(c.phy.plcp_header_rate_bps);
    } else if (f.key == "phy_slot_ns") {
      f.time_ns(c.phy.slot);
    } else if (f.key == "phy_cca_ns") {
      f.time_ns(c.phy.cca);
    } else if (f.key == "phy_sifs_ns") {
      f.time_ns(c.phy.sifs);
    } else if (f.key == "phy_difs_ns") {
      f.time_ns(c.phy.difs);
    } else if (f.key == "phy_maxprop_ns") {
      f.time_ns(c.phy.max_propagation);
    } else if (f.key == "phy_ber") {
      f.dbl(c.phy.bit_error_rate);
    } else if (f.key == "phy_prop_speed") {
      f.dbl(c.phy.propagation_speed_mps);
    } else if (f.key == "phy_capture") {
      f.dbl(c.phy.capture_ratio);
    } else if (f.key == "phy_intf_range") {
      f.dbl(c.phy.interference_range_m);
    } else if (f.key == "mac_cw_min") {
      f.u32(c.mac.cw_min);
    } else if (f.key == "mac_cw_max") {
      f.u32(c.mac.cw_max);
    } else if (f.key == "mac_retry") {
      f.u32(c.mac.retry_limit);
    } else if (f.key == "mac_max_rx") {
      f.u32(c.mac.max_receivers);
    } else if (f.key == "mac_queue") {
      f.usize(c.mac.queue_limit);
    } else if (f.key == "mac_fault_nav") {
      f.boolean(c.mac.fault_ignore_nav);
    } else if (f.key == "rbt") {
      f.boolean(c.rbt_protection);
    } else if (f.key == "strategy") {
      if (!strategy_from_token(f.value, c.strategy)) f.fail("unknown strategy");
    } else if (f.key == "shards") {
      f.u32(c.shards);
    } else if (f.key == "partition") {
      if (!partition_from_token(f.value, c.shard_partition)) f.fail("unknown partition");
    } else if (f.key == "grid_rows") {
      f.u32(c.shard_grid_rows);
    } else if (f.key == "grid_cols") {
      f.u32(c.shard_grid_cols);
    } else {
      f.fail("unknown key");
    }
    if (!f.ok) return fail(cat("canonical config: ", f.detail));
  }
  out = c;
  return true;
}

std::string cell_key(std::string_view canonical, std::string_view revision) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::string_view sv) {
    for (const char ch : sv) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ull;
    }
  };
  mix(canonical);
  mix("\n");
  mix(revision);
  static constexpr char kHex[] = "0123456789abcdef";
  std::string key(16, '0');
  for (int i = 15; i >= 0; --i) {
    key[static_cast<std::size_t>(i)] = kHex[h & 0xF];
    h >>= 4;
  }
  return key;
}

}  // namespace rmacsim
