#include "util/invariants.h"

#include <cmath>
#include <cstdio>
#include <vector>

namespace qasca::invariants {
namespace {

std::string FormatDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

util::Status OutOfRange(int id, int num_questions) {
  return util::Status::Internal("question id " + std::to_string(id) +
                                " outside [0, " +
                                std::to_string(num_questions) + ")");
}

}  // namespace

util::Status CheckDistributionRow(std::span<const double> row,
                                  double tolerance) {
  if (row.empty()) {
    return util::Status::Internal("distribution row is empty");
  }
  double total = 0.0;
  for (size_t j = 0; j < row.size(); ++j) {
    double p = row[j];
    if (!std::isfinite(p)) {
      return util::Status::Internal("entry " + std::to_string(j) +
                                    " is not finite: " + FormatDouble(p));
    }
    if (p < -tolerance || p > 1.0 + tolerance) {
      return util::Status::Internal("entry " + std::to_string(j) +
                                    " outside [0,1]: " + FormatDouble(p));
    }
    total += p;
  }
  if (std::fabs(total - 1.0) > tolerance) {
    return util::Status::Internal("row sums to " + FormatDouble(total) +
                                  ", expected 1");
  }
  return util::Status::Ok();
}

util::Status CheckConfusionMatrix(std::span<const double> matrix,
                                  int num_labels, double tolerance) {
  if (num_labels <= 0) {
    return util::Status::Internal("num_labels must be positive");
  }
  if (matrix.size() != static_cast<size_t>(num_labels) * num_labels) {
    return util::Status::Internal(
        "confusion matrix has " + std::to_string(matrix.size()) +
        " entries, expected " + std::to_string(num_labels * num_labels));
  }
  for (int j = 0; j < num_labels; ++j) {
    util::Status status = CheckDistributionRow(
        matrix.subspan(static_cast<size_t>(j) * num_labels,
                       static_cast<size_t>(num_labels)),
        tolerance);
    if (!status.ok()) {
      return util::Status::Internal("true-label row " + std::to_string(j) +
                                    ": " + status.message());
    }
  }
  return util::Status::Ok();
}

util::Status CheckCandidateSet(std::span<const int> candidates,
                               int num_questions) {
  // A strictly ascending list is distinct, and it lies in [0, n) when its
  // ends do: one pass and no allocation for the ascending lists the
  // database hands out and the solvers return.
  size_t ascending = 1;
  while (ascending < candidates.size() &&
         candidates[ascending - 1] < candidates[ascending]) {
    ++ascending;
  }
  if (ascending >= candidates.size()) {
    if (candidates.empty()) return util::Status::Ok();
    if (candidates.front() < 0) {
      return OutOfRange(candidates.front(), num_questions);
    }
    if (candidates.back() >= num_questions) {
      return OutOfRange(candidates.back(), num_questions);
    }
    return util::Status::Ok();
  }
  // Any other order: one pass with a seen-bitmap, O(num_questions +
  // candidates.size()) and no sort.
  std::vector<unsigned char> seen(static_cast<size_t>(
      num_questions > 0 ? num_questions : 0));
  for (int id : candidates) {
    if (id < 0 || id >= num_questions) return OutOfRange(id, num_questions);
    if (seen[static_cast<size_t>(id)]) {
      return util::Status::Internal("duplicate question id " +
                                    std::to_string(id));
    }
    seen[static_cast<size_t>(id)] = 1;
  }
  return util::Status::Ok();
}

util::Status CheckAssignment(std::span<const int> selected, int k,
                             int num_questions) {
  if (static_cast<int>(selected.size()) != k) {
    return util::Status::Internal(
        "assignment has " + std::to_string(selected.size()) +
        " questions, expected exactly k = " + std::to_string(k));
  }
  return CheckCandidateSet(selected, num_questions);
}

util::Status CheckFractionalDenominator(double denominator) {
  if (!std::isfinite(denominator) || denominator <= 0.0) {
    return util::Status::Internal(
        "0-1 FP denominator must stay strictly positive over the feasible "
        "region, got " +
        FormatDouble(denominator));
  }
  return util::Status::Ok();
}

util::Status CheckLambdaMonotone(double previous, double updated,
                                 double tolerance) {
  if (!std::isfinite(updated)) {
    return util::Status::Internal("Dinkelbach lambda is not finite: " +
                                  FormatDouble(updated));
  }
  if (updated < previous - tolerance) {
    return util::Status::Internal(
        "Dinkelbach lambda decreased: " + FormatDouble(previous) + " -> " +
        FormatDouble(updated) +
        " (lambda_init must be a lower bound on the optimum)");
  }
  return util::Status::Ok();
}

util::Status CheckLogLikelihoodMonotone(double previous, double updated,
                                        double tolerance) {
  if (!std::isfinite(updated)) {
    return util::Status::Internal("log-likelihood is not finite: " +
                                  FormatDouble(updated));
  }
  if (updated < previous - tolerance) {
    return util::Status::Internal(
        "EM log-likelihood decreased: " + FormatDouble(previous) + " -> " +
        FormatDouble(updated));
  }
  return util::Status::Ok();
}

}  // namespace qasca::invariants
