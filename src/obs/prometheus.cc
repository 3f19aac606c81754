#include "obs/prometheus.h"

#include <fstream>

#include "common/string_util.h"

namespace fairwos::obs {
namespace {

void AppendLine(std::string* out, const std::string& series, double value) {
  *out += common::StrFormat("%s %.9g\n", series.c_str(), value);
}

void AppendLine(std::string* out, const std::string& series, int64_t value) {
  *out += common::StrFormat("%s %lld\n", series.c_str(),
                            static_cast<long long>(value));
}

}  // namespace

std::string PrometheusMetricName(const std::string& name) {
  std::string out = "fairwos_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

std::string ToPrometheusText(const MetricsRegistry& registry) {
  std::string out;
  for (const auto& [name, value] : registry.CounterValues()) {
    const std::string prom = PrometheusMetricName(name) + "_total";
    out += "# TYPE " + prom + " counter\n";
    AppendLine(&out, prom, value);
  }
  for (const auto& [name, value] : registry.GaugeValues()) {
    const std::string prom = PrometheusMetricName(name);
    out += "# TYPE " + prom + " gauge\n";
    AppendLine(&out, prom, value);
  }
  for (const auto& [name, h] : registry.HistogramValues()) {
    const std::string prom = PrometheusMetricName(name);
    out += "# TYPE " + prom + " histogram\n";
    int64_t cumulative = 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      const std::string le =
          i < h.bounds.size() ? common::StrFormat("%.9g", h.bounds[i])
                              : std::string("+Inf");
      AppendLine(&out, prom + "_bucket{le=\"" + le + "\"}", cumulative);
    }
    AppendLine(&out, prom + "_sum", h.sum);
    AppendLine(&out, prom + "_count", h.count);
    if (h.nan_count > 0) {
      const std::string nan_prom = prom + "_nan_total";
      out += "# TYPE " + nan_prom + " counter\n";
      AppendLine(&out, nan_prom, h.nan_count);
    }
  }
  for (const auto& [name, w] : registry.WindowValues()) {
    const std::string prom = PrometheusMetricName(name);
    out += "# TYPE " + prom + " summary\n";
    AppendLine(&out, prom + "{quantile=\"0.5\"}", w.p50);
    AppendLine(&out, prom + "{quantile=\"0.9\"}", w.p90);
    AppendLine(&out, prom + "{quantile=\"0.99\"}", w.p99);
    AppendLine(&out, prom + "_sum", w.sum);
    AppendLine(&out, prom + "_count", w.count);
  }
  return out;
}

common::Status WritePrometheusText(const std::string& path,
                                   const MetricsRegistry& registry) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return common::Status::IoError("cannot open for write: " + path);
  out << ToPrometheusText(registry);
  out.flush();
  if (!out) return common::Status::IoError("write failed: " + path);
  return common::Status::OK();
}

common::Status WriteMetricsFile(const std::string& path,
                                const MetricsRegistry& registry) {
  const auto has_suffix = [&path](const std::string& suffix) {
    return path.size() > suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (has_suffix(".prom")) return WritePrometheusText(path, registry);
  if (has_suffix(".csv")) return registry.WriteCsv(path);
  return registry.WriteJson(path);
}

}  // namespace fairwos::obs
