// Utility and group-fairness metrics (paper §II-B and §V-A2): accuracy,
// F1, AUC, statistical parity gap ΔSP and equal-opportunity gap ΔEO. All
// metrics are computed over an explicit index set (normally the test split)
// and reported in percent, matching the paper's tables.
#ifndef FAIRWOS_FAIRNESS_METRICS_H_
#define FAIRWOS_FAIRNESS_METRICS_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace fairwos::fairness {

/// Fraction of correct predictions over `idx`, in percent.
double AccuracyPct(const std::vector<int>& pred, const std::vector<int>& labels,
                   const std::vector<int64_t>& idx);

/// Binary F1 of the positive class over `idx`, in percent (0 when the
/// positive class never appears in predictions nor labels).
double F1Pct(const std::vector<int>& pred, const std::vector<int>& labels,
             const std::vector<int64_t>& idx);

/// ROC AUC from P(y = 1) scores over `idx`, in percent; 50 when one class
/// is absent. Ties handled by midrank.
double AucPct(const std::vector<float>& prob1, const std::vector<int>& labels,
              const std::vector<int64_t>& idx);

/// ΔSP = |P(ŷ=1 | s=0) − P(ŷ=1 | s=1)| over `idx`, percent (paper Eq. 43).
/// Returns 0 when either group is empty.
double StatisticalParityGapPct(const std::vector<int>& pred,
                               const std::vector<int>& sens,
                               const std::vector<int64_t>& idx);

/// ΔEO = |P(ŷ=1 | y=1, s=0) − P(ŷ=1 | y=1, s=1)| over `idx`, percent
/// (paper Eq. 44). Returns 0 when either positive-class group is empty.
double EqualOpportunityGapPct(const std::vector<int>& pred,
                              const std::vector<int>& labels,
                              const std::vector<int>& sens,
                              const std::vector<int64_t>& idx);

/// Disparate impact ratio min(p0, p1) / max(p0, p1) with
/// pₛ = P(ŷ=1 | s); in [0, 1], 1 = perfectly fair, and the 0.8 value is
/// the classic "four-fifths rule" threshold. Returns 1 when a group is
/// empty and 0 when one group never receives positives while the other
/// does.
double DisparateImpactRatio(const std::vector<int>& pred,
                            const std::vector<int>& sens,
                            const std::vector<int64_t>& idx);

/// Counterfactual consistency: the fraction (percent) of (node,
/// counterfactual) pairs with identical predictions. `pairs` holds node-id
/// pairs (v, v'); the metric is the empirical version of the paper's
/// counterfactual-fairness goal (predictions invariant across
/// counterfactuals). Returns 100 for an empty pair list.
double CounterfactualConsistencyPct(
    const std::vector<int>& pred,
    const std::vector<std::pair<int64_t, int64_t>>& pairs);

/// Per-group confusion counts, handy for debugging bias sources.
struct GroupConfusion {
  // [s][y][pred] counts.
  int64_t count[2][2][2] = {};

  int64_t GroupTotal(int s) const;
  double PositiveRate(int s) const;          // P(pred=1 | s)
  double TruePositiveRate(int s) const;      // P(pred=1 | y=1, s)
};

GroupConfusion ComputeGroupConfusion(const std::vector<int>& pred,
                                     const std::vector<int>& labels,
                                     const std::vector<int>& sens,
                                     const std::vector<int64_t>& idx);

/// Confusion-count forms of the group metrics above. The index-set versions
/// delegate to these, and the streaming serve-time auditor (serve/audit.h)
/// maintains a GroupConfusion incrementally over its window and calls the
/// same functions — so a windowed ΔSP/ΔEO/DI is bit-identical to the batch
/// metric computed over the same samples.
double StatisticalParityGapPct(const GroupConfusion& gc);
double EqualOpportunityGapPct(const GroupConfusion& gc);
double DisparateImpactRatio(const GroupConfusion& gc);

}  // namespace fairwos::fairness

#endif  // FAIRWOS_FAIRNESS_METRICS_H_
