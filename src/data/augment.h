// Dataset augmentation and corruption utilities: used for robustness
// testing (how stable are the fairness gains under feature noise or
// missing edges?) and by downstream users who need train-time augmentation.
// Every function is pure: it returns a modified copy.
#ifndef FAIRWOS_DATA_AUGMENT_H_
#define FAIRWOS_DATA_AUGMENT_H_

#include "data/dataset.h"

namespace fairwos::data {

/// Adds iid N(0, stddev) noise to every feature entry.
Dataset WithFeatureNoise(const Dataset& ds, double stddev, common::Rng* rng);

/// Keeps each edge independently with probability `keep_prob`.
Dataset WithEdgeDropout(const Dataset& ds, double keep_prob,
                        common::Rng* rng);

/// Zeroes a random fraction of feature *columns* (simulates unavailable
/// attributes at deployment).
Dataset WithMaskedAttributes(const Dataset& ds, double mask_fraction,
                             common::Rng* rng);

}  // namespace fairwos::data

#endif  // FAIRWOS_DATA_AUGMENT_H_
