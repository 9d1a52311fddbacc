#include "campaign/spec.hpp"

#include <charconv>

#include "sim/strfmt.hpp"

namespace rmacsim {

namespace {

bool set_error(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

// Shortest round-trip double (matches canonical_config's rendering so labels
// and canonical strings agree on e.g. "40" vs "40.0").
std::string double_token(double v) {
  char b[40];
  const auto r = std::to_chars(b, b + sizeof b, v);
  return std::string{b, static_cast<std::size_t>(r.ptr - b)};
}

}  // namespace

std::string cell_label(const ExperimentConfig& config) {
  return cat(protocol_token(config.protocol), "/", mobility_token(config.mobility), "/r",
             double_token(config.rate_pps), "/s", config.seed);
}

bool parse_campaign_spec(const JsonValue& doc, CampaignSpec& out, std::string* error) {
  if (!doc.is_object()) return set_error(error, "spec: document is not an object");
  if (const JsonValue* schema = doc.find("schema");
      schema != nullptr && schema->as_string() != kCampaignSpecSchema) {
    return set_error(error, cat("spec: unknown schema ", schema->as_string(), " (expected ",
                                kCampaignSpecSchema, ")"));
  }
  CampaignSpec spec;

  if (const JsonValue* protos = doc.find("protocols")) {
    if (!protos->is_array() || protos->size() == 0) {
      return set_error(error, "spec: protocols must be a non-empty array");
    }
    spec.protocols.clear();
    for (const JsonValue& p : protos->array()) {
      Protocol proto{};
      if (!protocol_from_token(p.as_string(), proto)) {
        return set_error(error, cat("spec: unknown protocol ", p.as_string()));
      }
      spec.protocols.push_back(proto);
    }
  }
  if (const JsonValue* mobs = doc.find("mobilities")) {
    if (!mobs->is_array() || mobs->size() == 0) {
      return set_error(error, "spec: mobilities must be a non-empty array");
    }
    spec.mobilities.clear();
    for (const JsonValue& m : mobs->array()) {
      MobilityScenario mob{};
      if (!mobility_from_token(m.as_string(), mob)) {
        return set_error(error, cat("spec: unknown mobility ", m.as_string()));
      }
      spec.mobilities.push_back(mob);
    }
  }
  if (const JsonValue* rates = doc.find("rates")) {
    if (!rates->is_array() || rates->size() == 0) {
      return set_error(error, "spec: rates must be a non-empty array");
    }
    spec.rates.clear();
    for (const JsonValue& r : rates->array()) spec.rates.push_back(r.as_number());
  }
  if (const JsonValue* seeds = doc.find("seeds")) {
    spec.seeds.clear();
    if (seeds->is_array() && seeds->size() > 0) {
      for (const JsonValue& s : seeds->array()) spec.seeds.push_back(s.as_u64());
    } else if (seeds->is_object()) {
      const std::uint64_t count = seeds->at("count").as_u64();
      const std::uint64_t base = seeds->at("base").as_u64(1);
      if (count == 0) return set_error(error, "spec: seeds.count must be >= 1");
      for (std::uint64_t i = 0; i < count; ++i) spec.seeds.push_back(base + i);
    } else {
      return set_error(error, "spec: seeds must be an array or {count, base}");
    }
  }

  ExperimentConfig& base = spec.base;
  if (const JsonValue* v = doc.find("nodes")) base.num_nodes = static_cast<unsigned>(v->as_u64());
  if (const JsonValue* v = doc.find("packets")) {
    base.num_packets = static_cast<std::uint32_t>(v->as_u64());
  }
  if (const JsonValue* v = doc.find("payload")) {
    base.payload_bytes = static_cast<std::size_t>(v->as_u64());
  }
  if (const JsonValue* v = doc.find("area")) {
    if (!v->is_array() || v->size() != 2) {
      return set_error(error, "spec: area must be [width, height]");
    }
    base.area.width = v->array()[0].as_number();
    base.area.height = v->array()[1].as_number();
  }
  if (const JsonValue* v = doc.find("warmup_s")) base.warmup = SimTime::from_seconds(v->as_number());
  if (const JsonValue* v = doc.find("drain_s")) base.drain = SimTime::from_seconds(v->as_number());
  if (const JsonValue* v = doc.find("shards")) base.shards = static_cast<unsigned>(v->as_u64());
  if (const JsonValue* v = doc.find("rbt")) base.rbt_protection = v->as_bool(true);
  if (const JsonValue* v = doc.find("strategy")) {
    if (!strategy_from_token(v->as_string(), base.strategy)) {
      return set_error(error, cat("spec: unknown strategy ", v->as_string()));
    }
  }
  for (const double rate : spec.rates) {
    ExperimentConfig cell = base;
    cell.rate_pps = rate;
    if (const std::string why = config_error(cell); !why.empty()) {
      return set_error(error, cat("spec: ", why));
    }
  }

  out = std::move(spec);
  return true;
}

bool parse_campaign_spec(std::string_view text, CampaignSpec& out, std::string* error) {
  std::string parse_error;
  const JsonValue doc = JsonValue::parse(text, &parse_error);
  if (doc.is_null() && !parse_error.empty()) return set_error(error, cat("spec: ", parse_error));
  return parse_campaign_spec(doc, out, error);
}

std::vector<CampaignCell> expand_cells(const CampaignSpec& spec, std::string_view revision) {
  std::vector<CampaignCell> cells;
  cells.reserve(spec.protocols.size() * spec.mobilities.size() * spec.rates.size() *
                spec.seeds.size());
  for (const Protocol proto : spec.protocols) {
    for (const MobilityScenario mob : spec.mobilities) {
      for (const double rate : spec.rates) {
        for (const std::uint64_t seed : spec.seeds) {
          CampaignCell cell;
          cell.config = spec.base;
          cell.config.protocol = proto;
          cell.config.mobility = mob;
          cell.config.rate_pps = rate;
          cell.config.seed = seed;
          cell.canonical = canonical_config(cell.config);
          cell.key = cell_key(cell.canonical, revision);
          cell.label = cell_label(cell.config);
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  return cells;
}

}  // namespace rmacsim
