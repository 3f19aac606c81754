#include "core/counterfactual.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace fairwos::core {
namespace {

/// Picks `k` node ids (all of them when k <= 0 or k >= n).
std::vector<int64_t> PickNodes(int64_t n, int64_t k, common::Rng* rng) {
  if (k <= 0 || k >= n) {
    std::vector<int64_t> all(static_cast<size_t>(n));
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  return rng->SampleWithoutReplacement(n, k);
}

/// The pool's candidates of one pseudo-label, laid out for the per-anchor
/// pass: ids ascending, embeddings transposed so the distance loop runs
/// over candidates, and the bins of every candidate in one block.
struct Bucket {
  int label = 0;
  std::vector<int64_t> ids;    // [m], ascending
  std::vector<float> emb_t;    // [h][m]
  std::vector<uint8_t> bins;   // [m][num_attrs]
};

/// Splits the pool by pseudo-label; buckets come out in ascending label.
std::vector<Bucket> MakeBuckets(const tensor::Tensor& embeddings,
                                const std::vector<std::vector<uint8_t>>& bins,
                                const std::vector<int>& pseudo_labels,
                                std::vector<int64_t> pool) {
  const int64_t h = embeddings.dim(1);
  const size_t num_attrs = bins[0].size();
  const float* emb = embeddings.data().data();
  auto label = [&](int64_t v) { return pseudo_labels[static_cast<size_t>(v)]; };
  std::sort(pool.begin(), pool.end(), [&](int64_t x, int64_t y) {
    return label(x) != label(y) ? label(x) < label(y) : x < y;
  });
  std::vector<Bucket> buckets;
  for (size_t lo = 0; lo < pool.size();) {
    size_t hi = lo + 1;
    while (hi < pool.size() && label(pool[hi]) == label(pool[lo])) ++hi;
    Bucket& b = buckets.emplace_back();
    b.label = label(pool[lo]);
    b.ids.assign(pool.begin() + static_cast<int64_t>(lo),
                 pool.begin() + static_cast<int64_t>(hi));
    const size_t m = b.ids.size();
    b.emb_t.resize(static_cast<size_t>(h) * m);
    b.bins.resize(m * num_attrs);
    for (size_t j = 0; j < m; ++j) {
      const float* row = emb + b.ids[j] * h;
      for (int64_t d = 0; d < h; ++d) {
        b.emb_t[static_cast<size_t>(d) * m + j] = row[d];
      }
      const auto& cand_bins = bins[static_cast<size_t>(b.ids[j])];
      std::copy(cand_bins.begin(), cand_bins.end(),
                b.bins.begin() + static_cast<int64_t>(j * num_attrs));
    }
    lo = hi;
  }
  return buckets;
}

/// A candidate's sort key: distance, then position in its bucket. Positions
/// rise with node id, so ties still go to the smaller id.
struct Key {
  float dist;
  int32_t pos;
  bool operator<(const Key& o) const {
    return dist < o.dist || (dist == o.dist && pos < o.pos);
  }
};

}  // namespace

CounterfactualSet FindCounterfactuals(
    const tensor::Tensor& embeddings,
    const std::vector<std::vector<uint8_t>>& bins,
    const std::vector<int>& pseudo_labels, const CounterfactualConfig& config,
    common::Rng* rng) {
  FW_CHECK_EQ(embeddings.rank(), 2);
  const int64_t n = embeddings.dim(0);
  const int64_t h = embeddings.dim(1);
  FW_CHECK_EQ(static_cast<int64_t>(bins.size()), n);
  FW_CHECK_EQ(static_cast<int64_t>(pseudo_labels.size()), n);
  FW_CHECK_GT(n, 1);
  FW_CHECK_LT(n, std::numeric_limits<int32_t>::max());
  const int64_t num_attrs = static_cast<int64_t>(bins[0].size());
  FW_CHECK_GT(num_attrs, 0);
  for (const auto& row : bins) {
    FW_CHECK_EQ(static_cast<int64_t>(row.size()), num_attrs);
  }
  FW_CHECK_GT(config.top_k, 0);
  const auto top_k = static_cast<size_t>(config.top_k);

  CounterfactualSet out;
  out.anchors = PickNodes(n, config.sample_nodes, rng);
  const std::vector<Bucket> buckets = MakeBuckets(
      embeddings, bins, pseudo_labels,
      PickNodes(n, config.candidate_pool, rng));
  out.matches.assign(
      static_cast<size_t>(num_attrs),
      std::vector<std::vector<int64_t>>(out.anchors.size()));

  const float* emb = embeddings.data().data();
  std::vector<float> dist;
  std::vector<Key> keys;
  std::vector<int64_t> open;  // attributes still short of top_k matches
  for (size_t a = 0; a < out.anchors.size(); ++a) {
    const int64_t v = out.anchors[a];
    const int label = pseudo_labels[static_cast<size_t>(v)];
    const auto bucket = std::lower_bound(
        buckets.begin(), buckets.end(), label,
        [](const Bucket& b, int l) { return b.label < l; });
    // Eq. 12: same (pseudo-)label; none in the pool leaves every slot empty.
    if (bucket == buckets.end() || bucket->label != label) continue;
    const size_t m = bucket->ids.size();

    // Distances with the candidate as the inner loop: each candidate's sum
    // still starts at 0 and adds d = 0..h-1 in order.
    const float* ev = emb + v * h;
    dist.assign(m, 0.0f);
    for (int64_t d = 0; d < h; ++d) {
      const float e = ev[d];
      const float* col = bucket->emb_t.data() + static_cast<size_t>(d) * m;
      for (size_t j = 0; j < m; ++j) {
        const float diff = e - col[j];
        dist[j] += diff * diff;
      }
    }
    // The anchor may sit in its own bucket; its bins equal its own, so no
    // attribute ever takes it as a match.
    keys.resize(m);
    for (size_t j = 0; j < m; ++j) {
      keys[j] = {dist[j], static_cast<int32_t>(j)};
    }

    // Chunked selection: bring the next-nearest chunk to the front, sort
    // only it, and let each open attribute continue its scan through it
    // (Eq. 12: x⁰ᵢ must differ). Stops once every attribute is full or the
    // bucket is used up.
    const uint8_t* anchor_bins = bins[static_cast<size_t>(v)].data();
    open.resize(static_cast<size_t>(num_attrs));
    std::iota(open.begin(), open.end(), 0);
    for (int64_t i = 0; i < num_attrs; ++i) {
      out.matches[static_cast<size_t>(i)][a].reserve(top_k);
    }
    size_t chunk = 16 * top_k;
    for (size_t start = 0; start < keys.size() && !open.empty();
         start += chunk, chunk *= 2) {
      const size_t end = std::min(keys.size(), start + chunk);
      const auto first = keys.begin() + static_cast<int64_t>(start);
      const auto last = keys.begin() + static_cast<int64_t>(end);
      if (end < keys.size()) std::nth_element(first, last, keys.end());
      std::sort(first, last);
      for (auto it = first; it != last && !open.empty(); ++it) {
        const auto pos = static_cast<size_t>(it->pos);
        const uint8_t* cand_bins =
            bucket->bins.data() + pos * static_cast<size_t>(num_attrs);
        for (size_t t = 0; t < open.size();) {
          const auto i = static_cast<size_t>(open[t]);
          if (cand_bins[i] != anchor_bins[i]) {
            auto& slot = out.matches[i][a];
            slot.push_back(bucket->ids[pos]);
            if (slot.size() == top_k) {
              open[t] = open.back();
              open.pop_back();
              continue;
            }
          }
          ++t;
        }
      }
    }
  }
  return out;
}

}  // namespace fairwos::core
