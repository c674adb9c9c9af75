#ifndef QASCA_CORE_TOP_K_H_
#define QASCA_CORE_TOP_K_H_

#include <limits>
#include <utility>

#include "core/types.h"

namespace qasca {

/// A candidate question and the score a selection ranks it by.
using ScoredQuestion = std::pair<double, QuestionIndex>;

/// The selections' strict total order: larger score first, ties broken by
/// smaller question index. Strict and total because no two candidates share
/// a question index, so every candidate set has exactly one top-k set —
/// whatever order the candidates are offered in.
inline bool ScoreGreater(const ScoredQuestion& a, const ScoredQuestion& b) {
  return a.first > b.first || (a.first == b.first && a.second < b.second);
}

/// Streaming top-k by bounded insertion into a caller-owned buffer:
/// `top[0, count())` holds the best candidates offered so far, in
/// ScoreGreater order, and `top` has room for `k` > 0 of them. Once the
/// buffer is full, a candidate that scores below the k-th costs one
/// comparison against a threshold held in the selector; the insertion
/// itself is rare. Keep the selector a local so that threshold stays in a
/// register.
class BoundedTopK {
 public:
  BoundedTopK(ScoredQuestion* top, int k) : top_(top), k_(k) {}

  void Offer(const ScoredQuestion& candidate) {
    // Scoring below the k-th means losing to it under ScoreGreater; before
    // the buffer is full the threshold is -infinity and rejects nothing.
    if (candidate.first < worst_.first) return;
    if (count_ == k_) {
      if (!ScoreGreater(candidate, worst_)) return;
      Insert(candidate, k_ - 1);
    } else {
      Insert(candidate, count_++);
      if (count_ < k_) return;
    }
    worst_ = top_[k_ - 1];
  }

  int count() const { return count_; }

 private:
  // Shifts the entries that `candidate` beats one slot down, starting from
  // slot `pos`, and writes it into the freed slot.
  void Insert(const ScoredQuestion& candidate, int pos) {
    while (pos > 0 && ScoreGreater(candidate, top_[pos - 1])) {
      top_[pos] = top_[pos - 1];
      --pos;
    }
    top_[pos] = candidate;
  }

  ScoredQuestion* top_;
  int k_;
  int count_ = 0;
  ScoredQuestion worst_{-std::numeric_limits<double>::infinity(), 0};
};

}  // namespace qasca

#endif  // QASCA_CORE_TOP_K_H_
