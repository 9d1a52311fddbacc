#include "metrics/export.hpp"

#include <filesystem>

#include "sim/bufio.hpp"

namespace rmacsim {

namespace {

void labels_openmetrics(BufWriter& b, const MetricLabels& labels) {
  if (labels.empty()) return;
  b.ch('{');
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) b.ch(',');
    b.str(labels[i].first);
    b.lit("=\"");
    b.escaped(labels[i].second);
    b.ch('"');
  }
  b.ch('}');
}

// Histogram expansion: cumulative `_bucket{le=...}` counts per OpenMetrics.
void histogram_openmetrics(BufWriter& b, const std::string& family, const MetricLabels& labels,
                           const StreamingHistogram& h) {
  std::uint64_t cum = h.underflow();
  const auto bucket = [&](double le, std::uint64_t count, bool inf) {
    b.str(family);
    b.lit("_bucket{");
    for (const auto& [k, v] : labels) {
      b.str(k);
      b.lit("=\"");
      b.escaped(v);
      b.lit("\",");
    }
    b.lit("le=\"");
    if (inf) {
      b.lit("+Inf");
    } else {
      b.dbl9(le);
    }
    b.lit("\"} ");
    b.u64(count);
    b.ch('\n');
  };
  const double width = (h.bin_hi() - h.bin_lo()) / static_cast<double>(h.bins().size());
  for (std::size_t i = 0; i < h.bins().size(); ++i) {
    cum += h.bins()[i];
    bucket(h.bin_lo() + width * static_cast<double>(i + 1), cum, false);
  }
  bucket(0.0, h.count(), true);
  b.str(family);
  b.lit("_sum");
  labels_openmetrics(b, labels);
  b.ch(' ');
  b.dbl9(h.mean() * static_cast<double>(h.count()));
  b.ch('\n');
  b.str(family);
  b.lit("_count");
  labels_openmetrics(b, labels);
  b.ch(' ');
  b.u64(h.count());
  b.ch('\n');
}

}  // namespace

std::string to_openmetrics(const MetricsRegistry& registry) {
  BufWriter b;
  const std::string* last_family = nullptr;
  registry.for_each_series([&](const MetricsRegistry::SeriesView& v) {
    if (last_family == nullptr || *last_family != *v.family) {
      last_family = v.family;
      b.lit("# TYPE ");
      b.str(*v.family);
      switch (v.kind) {
        case MetricKind::kCounter: b.lit(" counter\n"); break;
        case MetricKind::kGauge: b.lit(" gauge\n"); break;
        case MetricKind::kHistogram: b.lit(" histogram\n"); break;
      }
      if (!v.help->empty()) {
        b.lit("# HELP ");
        b.str(*v.family);
        b.ch(' ');
        b.str(*v.help);
        b.ch('\n');
      }
    }
    switch (v.kind) {
      case MetricKind::kCounter:
        b.str(*v.family);
        labels_openmetrics(b, *v.labels);
        b.ch(' ');
        b.u64(v.counter->value());
        b.ch('\n');
        break;
      case MetricKind::kGauge:
        b.str(*v.family);
        labels_openmetrics(b, *v.labels);
        b.ch(' ');
        b.dbl9(v.gauge->value());
        b.ch('\n');
        break;
      case MetricKind::kHistogram:
        histogram_openmetrics(b, *v.family, *v.labels, *v.histogram);
        break;
    }
  });
  b.lit("# EOF\n");
  return std::move(b.s);
}

std::string to_metrics_json(const MetricsRegistry& registry, const LedgerSummary& ledger,
                            const Profiler::Report* profile) {
  return to_metrics_json(registry, ledger, profile, std::string{}, std::string{});
}

std::string to_metrics_json(const MetricsRegistry& registry, const LedgerSummary& ledger,
                            const Profiler::Report* profile, const std::string& extra_key,
                            const std::string& extra_json) {
  BufWriter b;
  b.lit("{\n  \"metrics\": {");
  const std::string* last_family = nullptr;
  bool first_series = true;
  registry.for_each_series([&](const MetricsRegistry::SeriesView& v) {
    if (last_family == nullptr || *last_family != *v.family) {
      if (last_family != nullptr) b.lit("]}");
      if (last_family != nullptr) b.ch(',');
      last_family = v.family;
      first_series = true;
      b.lit("\n    \"");
      b.escaped(*v.family);
      b.lit("\": {\"type\": \"");
      switch (v.kind) {
        case MetricKind::kCounter: b.lit("counter"); break;
        case MetricKind::kGauge: b.lit("gauge"); break;
        case MetricKind::kHistogram: b.lit("histogram"); break;
      }
      b.lit("\", \"series\": [");
    }
    if (!first_series) b.ch(',');
    first_series = false;
    b.lit("\n      {\"labels\": {");
    for (std::size_t i = 0; i < v.labels->size(); ++i) {
      if (i != 0) b.lit(", ");
      b.ch('"');
      b.escaped((*v.labels)[i].first);
      b.lit("\": \"");
      b.escaped((*v.labels)[i].second);
      b.ch('"');
    }
    b.lit("}, ");
    switch (v.kind) {
      case MetricKind::kCounter:
        b.lit("\"value\": ");
        b.u64(v.counter->value());
        break;
      case MetricKind::kGauge:
        b.lit("\"value\": ");
        b.dbl9(v.gauge->value());
        break;
      case MetricKind::kHistogram: {
        const StreamingHistogram& h = *v.histogram;
        b.lit("\"count\": ");
        b.u64(h.count());
        b.lit(", \"sum\": ");
        b.dbl9(h.mean() * static_cast<double>(h.count()));
        b.lit(", \"lo\": ");
        b.dbl9(h.bin_lo());
        b.lit(", \"hi\": ");
        b.dbl9(h.bin_hi());
        b.lit(", \"underflow\": ");
        b.u64(h.underflow());
        b.lit(", \"overflow\": ");
        b.u64(h.overflow());
        b.lit(", \"bins\": [");
        for (std::size_t i = 0; i < h.bins().size(); ++i) {
          if (i != 0) b.ch(',');
          b.u64(h.bins()[i]);
        }
        b.ch(']');
        break;
      }
    }
    b.ch('}');
  });
  if (last_family != nullptr) b.lit("]}");
  b.lit("\n  },\n  \"ledger\": {\n    \"journeys\": ");
  b.u64(ledger.journeys);
  b.lit(",\n    \"expected\": ");
  b.u64(ledger.expected);
  b.lit(",\n    \"delivered\": ");
  b.u64(ledger.delivered);
  b.lit(",\n    \"dropped\": {");
  bool first_reason = true;
  for (std::size_t i = 0; i < kDropReasonCount; ++i) {
    const auto reason = static_cast<DropReason>(i);
    if (reason == DropReason::kNone) continue;
    if (!first_reason) b.lit(", ");
    first_reason = false;
    b.ch('"');
    b.lit(to_string(reason));
    b.lit("\": ");
    b.u64(ledger.dropped[i]);
  }
  b.lit("},\n    \"conservation_ok\": ");
  b.lit(ledger.conservation_ok() ? "true" : "false");
  b.lit("\n  }");
  if (profile != nullptr) {
    b.lit(",\n  \"profile\": {\n    \"wall_s\": ");
    b.dbl9(profile->wall_s);
    b.lit(",\n    \"accounted_s\": ");
    b.dbl9(profile->accounted_s);
    b.lit(",\n    \"sections\": [");
    for (std::size_t i = 0; i < profile->sections.size(); ++i) {
      const Profiler::SectionStats& s = profile->sections[i];
      if (i != 0) b.ch(',');
      b.lit("\n      {\"name\": \"");
      b.escaped(s.name);
      b.lit("\", \"calls\": ");
      b.u64(s.calls);
      b.lit(", \"total_ns\": ");
      b.u64(s.total_ns);
      b.lit(", \"self_ns\": ");
      b.u64(s.self_ns);
      b.ch('}');
    }
    b.lit("\n    ]\n  }");
  }
  if (!extra_key.empty()) {
    b.lit(",\n  \"");
    b.escaped(extra_key);
    b.lit("\": ");
    b.str(extra_json);
  }
  b.lit("\n}\n");
  return std::move(b.s);
}

bool write_metrics_artifacts(const MetricsRegistry& registry, const LedgerSummary& ledger,
                             const Profiler::Report* profile, const std::string& dir,
                             const std::string& prefix, std::string& text_path,
                             std::string& json_path) {
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
  }
  const std::string base = dir.empty() ? prefix : dir + "/" + prefix;
  text_path = base + "_metrics.txt";
  json_path = base + "_metrics.json";
  BufWriter text;
  text.s = to_openmetrics(registry);
  BufWriter json;
  json.s = to_metrics_json(registry, ledger, profile);
  return text.flush_to(text_path) && json.flush_to(json_path);
}

std::string manifest_relative_path(const std::string& path, const std::string& manifest_path) {
  namespace fs = std::filesystem;
  if (path.empty()) return path;
  std::error_code ec;
  const fs::path file = fs::absolute(path, ec).lexically_normal();
  const fs::path dir = fs::absolute(manifest_path, ec).lexically_normal().parent_path();
  if (ec) return path;
  const fs::path rel = file.lexically_relative(dir);
  return rel.empty() ? file.string() : rel.string();
}

}  // namespace rmacsim
