// Graph algorithms the fairness baselines run on the input graph.
#ifndef FAIRWOS_GRAPH_ALGORITHMS_H_
#define FAIRWOS_GRAPH_ALGORITHMS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"

namespace fairwos::graph {

/// Spectral bipartition: the sign pattern of (an approximation of) the
/// second dominant eigenvector of the row-normalized adjacency, computed
/// by power iteration with the trivial all-ones direction deflated.
/// On homophilous graphs this recovers the dominant community split —
/// which, when a hidden demographic drives edge formation, is exactly the
/// demographic signature the fairness baselines go looking for.
std::vector<int> SpectralBipartition(const Graph& g, int64_t iterations,
                                     common::Rng* rng);

}  // namespace fairwos::graph

#endif  // FAIRWOS_GRAPH_ALGORITHMS_H_
