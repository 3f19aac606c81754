#include "fairness/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace fairwos::fairness {
namespace {

void CheckIndex(const std::vector<int>& v, const std::vector<int64_t>& idx) {
  FW_CHECK(!idx.empty()) << "metric over empty index set";
  for (int64_t i : idx) {
    FW_CHECK_GE(i, 0);
    FW_CHECK_LT(i, static_cast<int64_t>(v.size()));
  }
}

}  // namespace

double AccuracyPct(const std::vector<int>& pred, const std::vector<int>& labels,
                   const std::vector<int64_t>& idx) {
  FW_CHECK_EQ(pred.size(), labels.size());
  CheckIndex(pred, idx);
  int64_t correct = 0;
  for (int64_t i : idx) {
    if (pred[static_cast<size_t>(i)] == labels[static_cast<size_t>(i)]) {
      ++correct;
    }
  }
  return 100.0 * static_cast<double>(correct) /
         static_cast<double>(idx.size());
}

double F1Pct(const std::vector<int>& pred, const std::vector<int>& labels,
             const std::vector<int64_t>& idx) {
  FW_CHECK_EQ(pred.size(), labels.size());
  CheckIndex(pred, idx);
  int64_t tp = 0, fp = 0, fn = 0;
  for (int64_t i : idx) {
    const int p = pred[static_cast<size_t>(i)];
    const int y = labels[static_cast<size_t>(i)];
    if (p == 1 && y == 1) ++tp;
    if (p == 1 && y == 0) ++fp;
    if (p == 0 && y == 1) ++fn;
  }
  if (2 * tp + fp + fn == 0) return 0.0;
  return 100.0 * 2.0 * static_cast<double>(tp) /
         static_cast<double>(2 * tp + fp + fn);
}

double AucPct(const std::vector<float>& prob1, const std::vector<int>& labels,
              const std::vector<int64_t>& idx) {
  FW_CHECK_EQ(prob1.size(), labels.size());
  FW_CHECK(!idx.empty());
  // Rank-sum (Mann-Whitney) formulation with midranks for ties.
  std::vector<int64_t> order = idx;
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return prob1[static_cast<size_t>(a)] < prob1[static_cast<size_t>(b)];
  });
  int64_t n_pos = 0, n_neg = 0;
  for (int64_t i : idx) {
    (labels[static_cast<size_t>(i)] == 1 ? n_pos : n_neg) += 1;
  }
  if (n_pos == 0 || n_neg == 0) return 50.0;
  double rank_sum_pos = 0.0;
  size_t i = 0;
  while (i < order.size()) {
    size_t j = i;
    while (j < order.size() &&
           prob1[static_cast<size_t>(order[j])] ==
               prob1[static_cast<size_t>(order[i])]) {
      ++j;
    }
    // Ranks are 1-based; tied scores share the average rank.
    const double midrank = 0.5 * (static_cast<double>(i + 1) +
                                  static_cast<double>(j));
    for (size_t k = i; k < j; ++k) {
      if (labels[static_cast<size_t>(order[k])] == 1) rank_sum_pos += midrank;
    }
    i = j;
  }
  const double auc =
      (rank_sum_pos - static_cast<double>(n_pos) *
                          (static_cast<double>(n_pos) + 1.0) / 2.0) /
      (static_cast<double>(n_pos) * static_cast<double>(n_neg));
  return 100.0 * auc;
}

GroupConfusion ComputeGroupConfusion(const std::vector<int>& pred,
                                     const std::vector<int>& labels,
                                     const std::vector<int>& sens,
                                     const std::vector<int64_t>& idx) {
  FW_CHECK_EQ(pred.size(), labels.size());
  FW_CHECK_EQ(pred.size(), sens.size());
  CheckIndex(pred, idx);
  GroupConfusion gc;
  for (int64_t i : idx) {
    const int s = sens[static_cast<size_t>(i)];
    const int y = labels[static_cast<size_t>(i)];
    const int p = pred[static_cast<size_t>(i)];
    FW_CHECK(s == 0 || s == 1);
    FW_CHECK(y == 0 || y == 1);
    FW_CHECK(p == 0 || p == 1);
    ++gc.count[s][y][p];
  }
  return gc;
}

int64_t GroupConfusion::GroupTotal(int s) const {
  return count[s][0][0] + count[s][0][1] + count[s][1][0] + count[s][1][1];
}

double GroupConfusion::PositiveRate(int s) const {
  const int64_t total = GroupTotal(s);
  if (total == 0) return 0.0;
  return static_cast<double>(count[s][0][1] + count[s][1][1]) /
         static_cast<double>(total);
}

double GroupConfusion::TruePositiveRate(int s) const {
  const int64_t pos = count[s][1][0] + count[s][1][1];
  if (pos == 0) return 0.0;
  return static_cast<double>(count[s][1][1]) / static_cast<double>(pos);
}

double StatisticalParityGapPct(const GroupConfusion& gc) {
  if (gc.GroupTotal(0) == 0 || gc.GroupTotal(1) == 0) return 0.0;
  return 100.0 * std::abs(gc.PositiveRate(0) - gc.PositiveRate(1));
}

double EqualOpportunityGapPct(const GroupConfusion& gc) {
  const int64_t pos0 = gc.count[0][1][0] + gc.count[0][1][1];
  const int64_t pos1 = gc.count[1][1][0] + gc.count[1][1][1];
  if (pos0 == 0 || pos1 == 0) return 0.0;
  return 100.0 * std::abs(gc.TruePositiveRate(0) - gc.TruePositiveRate(1));
}

double DisparateImpactRatio(const GroupConfusion& gc) {
  if (gc.GroupTotal(0) == 0 || gc.GroupTotal(1) == 0) return 1.0;
  const double p0 = gc.PositiveRate(0);
  const double p1 = gc.PositiveRate(1);
  const double hi = std::max(p0, p1);
  if (hi == 0.0) return 1.0;  // nobody receives positives: no disparity
  return std::min(p0, p1) / hi;
}

double StatisticalParityGapPct(const std::vector<int>& pred,
                               const std::vector<int>& sens,
                               const std::vector<int64_t>& idx) {
  // Labels are unused for SP; pass pred twice to reuse the bucketing.
  return StatisticalParityGapPct(ComputeGroupConfusion(pred, pred, sens, idx));
}

double EqualOpportunityGapPct(const std::vector<int>& pred,
                              const std::vector<int>& labels,
                              const std::vector<int>& sens,
                              const std::vector<int64_t>& idx) {
  return EqualOpportunityGapPct(
      ComputeGroupConfusion(pred, labels, sens, idx));
}

double DisparateImpactRatio(const std::vector<int>& pred,
                            const std::vector<int>& sens,
                            const std::vector<int64_t>& idx) {
  return DisparateImpactRatio(ComputeGroupConfusion(pred, pred, sens, idx));
}

double CounterfactualConsistencyPct(
    const std::vector<int>& pred,
    const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  if (pairs.empty()) return 100.0;
  int64_t consistent = 0;
  for (const auto& [a, b] : pairs) {
    FW_CHECK_GE(a, 0);
    FW_CHECK_LT(a, static_cast<int64_t>(pred.size()));
    FW_CHECK_GE(b, 0);
    FW_CHECK_LT(b, static_cast<int64_t>(pred.size()));
    consistent += pred[static_cast<size_t>(a)] == pred[static_cast<size_t>(b)];
  }
  return 100.0 * static_cast<double>(consistent) /
         static_cast<double>(pairs.size());
}

}  // namespace fairwos::fairness
