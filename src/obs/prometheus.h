// Prometheus text-exposition exporter (fairwos::obs — see
// docs/observability.md): renders a MetricsRegistry in the format a
// Prometheus scraper (or promtool) ingests. Counters become `_total`
// counters, gauges stay gauges, fixed-bucket histograms become cumulative
// `_bucket{le=...}` series with `_sum`/`_count`, and the sliding-window
// histograms export as summaries with `quantile` labels so dashboards see
// last-window p50/p99 instead of process-lifetime aggregates.
#ifndef FAIRWOS_OBS_PROMETHEUS_H_
#define FAIRWOS_OBS_PROMETHEUS_H_

#include <string>

#include "common/metrics.h"
#include "common/status.h"

namespace fairwos::obs {

/// `fairwos_` + `name` with every character outside [a-zA-Z0-9_] replaced
/// by '_' (metric dots become underscores: serve.audit.delta_sp ->
/// fairwos_serve_audit_delta_sp).
std::string PrometheusMetricName(const std::string& name);

/// The whole registry in Prometheus text exposition format 0.0.4.
std::string ToPrometheusText(
    const MetricsRegistry& registry = MetricsRegistry::Global());

common::Status WritePrometheusText(
    const std::string& path,
    const MetricsRegistry& registry = MetricsRegistry::Global());

/// The one `--metrics-out` export every front end shares: the file
/// extension chooses the format — `.prom` Prometheus text, `.csv` CSV,
/// anything else JSON.
common::Status WriteMetricsFile(
    const std::string& path,
    const MetricsRegistry& registry = MetricsRegistry::Global());

}  // namespace fairwos::obs

#endif  // FAIRWOS_OBS_PROMETHEUS_H_
