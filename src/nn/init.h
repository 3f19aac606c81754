// Weight initialization (Glorot/Xavier uniform).
#ifndef FAIRWOS_NN_INIT_H_
#define FAIRWOS_NN_INIT_H_

#include "common/rng.h"
#include "tensor/tensor.h"

namespace fairwos::nn {

/// Glorot/Xavier uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out)).
/// The default for linear and graph-convolution weights.
tensor::Tensor GlorotUniform(int64_t fan_in, int64_t fan_out,
                             common::Rng* rng);

}  // namespace fairwos::nn

#endif  // FAIRWOS_NN_INIT_H_
