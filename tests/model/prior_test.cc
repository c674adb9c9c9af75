#include "model/prior.h"

#include <vector>

#include <gtest/gtest.h>

namespace qasca {
namespace {

// EstimatePriorInto over a row-major n-by-l matrix's cells.
std::vector<double> PriorOf(const std::vector<double>& cells, int num_labels) {
  std::vector<double> prior;
  EstimatePriorInto(cells, num_labels, &prior);
  return prior;
}

TEST(PriorTest, UniformPriorSumsToOne) {
  std::vector<double> prior = UniformPrior(4);
  EXPECT_EQ(prior.size(), 4u);
  for (double p : prior) EXPECT_DOUBLE_EQ(p, 0.25);
}

TEST(PriorTest, EstimateIsColumnMean) {
  std::vector<double> prior = PriorOf({0.8, 0.2, 0.4, 0.6}, 2);
  EXPECT_NEAR(prior[0], 0.6, 1e-12);
  EXPECT_NEAR(prior[1], 0.4, 1e-12);
}

TEST(PriorTest, EstimateOfUniformMatrixIsUniform) {
  std::vector<double> prior = PriorOf(
      std::vector<double>(5 * 3, 1.0 / 3.0), 3);
  for (double p : prior) EXPECT_NEAR(p, 1.0 / 3.0, 1e-12);
}

TEST(PriorTest, EstimateSumsToOne) {
  std::vector<double> prior =
      PriorOf({1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.2, 0.3, 0.5}, 3);
  EXPECT_NEAR(prior[0] + prior[1] + prior[2], 1.0, 1e-12);
}

}  // namespace
}  // namespace qasca
