#include "data/synthetic.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/random.h"

namespace ldpr {

Dataset MakeZipfDataset(std::string name, size_t d, uint64_t n, double s,
                        uint64_t shuffle_seed) {
  LDPR_CHECK(d >= 2);
  LDPR_CHECK(n > 0);
  std::vector<double> weights(d);
  for (size_t i = 0; i < d; ++i)
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  if (shuffle_seed != 0) {
    Rng rng(shuffle_seed);
    for (size_t i = d; i > 1; --i)
      std::swap(weights[i - 1], weights[rng.UniformU64(i)]);
  }
  return MakeDatasetFromFrequencies(std::move(name), weights, n);
}

Dataset MakeUniformDataset(std::string name, size_t d, uint64_t n) {
  LDPR_CHECK(d >= 2);
  return MakeDatasetFromFrequencies(std::move(name),
                                    std::vector<double>(d, 1.0), n);
}

Dataset MakeIpumsLike() {
  return MakeZipfDataset("IPUMS", /*d=*/102, /*n=*/389894, /*s=*/1.05,
                         /*shuffle_seed=*/17);
}

Dataset MakeFireLike() {
  return MakeZipfDataset("Fire", /*d=*/490, /*n=*/667574, /*s=*/0.8,
                         /*shuffle_seed=*/23);
}

}  // namespace ldpr
