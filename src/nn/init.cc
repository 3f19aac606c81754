#include "nn/init.h"

#include <cmath>

namespace fairwos::nn {

tensor::Tensor GlorotUniform(int64_t fan_in, int64_t fan_out,
                             common::Rng* rng) {
  FW_CHECK_GT(fan_in, 0);
  FW_CHECK_GT(fan_out, 0);
  const float a =
      std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return tensor::Tensor::RandUniform({fan_in, fan_out}, -a, a, rng);
}

}  // namespace fairwos::nn
