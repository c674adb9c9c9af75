#ifndef QASCA_CORE_ASSIGNMENT_QW_OVERLAY_H_
#define QASCA_CORE_ASSIGNMENT_QW_OVERLAY_H_

#include <span>
#include <vector>

#include "util/logging.h"

namespace qasca {

/// Zero-copy form of the estimated distribution matrix Qw (DESIGN.md §12):
/// the assignment algorithms read Qw only at the candidate set S^w, so
/// instead of deep-copying all n rows of Qc and overwriting the candidate
/// rows, only the candidate rows are materialised, into a reusable block of
/// `rows` × l doubles addressed by candidate position. Slot c holds the row
/// of the request's candidates[c]; AssignmentRequest::EstimatedSlotRow is
/// the read, and the overlay keeps no per-question state.
///
/// Ownership and threading: owned by the strategy that fills it
/// (QascaStrategy holds one as per-strategy scratch) and valid only for the
/// duration of one SelectQuestions call, like every other AssignmentRequest
/// pointer. Fill protocol: the engine thread calls Begin() (and
/// ArmQualities() if wanted); parallel kernel chunks may then write disjoint
/// MutableRow(slot) buffers and quality slots concurrently. Readers run
/// after the fill completes.
class QwOverlay {
 public:
  /// Starts a new request with room for `rows` rows of `num_labels` labels,
  /// one per candidate position. Disarms the quality channel.
  void Begin(int num_labels, int rows) {
    QASCA_CHECK_GT(num_labels, 0);
    QASCA_CHECK_GE(rows, 0);
    num_labels_ = num_labels;
    rows_ = rows;
    scratch_.resize(static_cast<size_t>(rows) * num_labels);
    has_qualities_ = false;
  }

  /// The writable row buffer for slot `slot`. Distinct slots never overlap,
  /// so parallel chunks may fill their own slots concurrently.
  double* MutableRow(int slot) {
    return scratch_.data() + static_cast<size_t>(slot) * num_labels_;
  }

  /// Arms the fused per-row quality channel for the current request and
  /// returns its slot-indexed buffer (one double per row). The estimation
  /// kernel writes each row's decomposable quality — the Accuracy* row max —
  /// into slot c while the row is still in registers, so the benefit scan
  /// reads one contiguous double per candidate instead of re-reducing the
  /// row. Engine-thread-only, like Begin(); parallel fill chunks then write
  /// disjoint slots. Begin() disarms the channel, so a previous request's
  /// qualities never leak into the next.
  double* ArmQualities() {
    quality_.resize(static_cast<size_t>(rows_));
    has_qualities_ = true;
    return quality_.data();
  }

  /// Whether the current request armed (and filled) the quality channel.
  bool has_qualities() const noexcept { return has_qualities_; }

  /// The fused quality of slot `slot`; has_qualities() must hold.
  double Quality(int slot) const {
    QASCA_DCHECK(has_qualities_);
    QASCA_DCHECK_GE(slot, 0);
    QASCA_DCHECK_LT(slot, rows_);
    return quality_[static_cast<size_t>(slot)];
  }

  /// The row in slot `slot`, in [0, rows_materialized()).
  std::span<const double> SlotRow(int slot) const {
    QASCA_DCHECK_GE(slot, 0);
    QASCA_DCHECK_LT(slot, rows_);
    return {scratch_.data() + static_cast<size_t>(slot) * num_labels_,
            static_cast<size_t>(num_labels_)};
  }

  int num_labels() const noexcept { return num_labels_; }
  /// Rows of the current request: one per candidate.
  int rows_materialized() const noexcept { return rows_; }

 private:
  std::vector<double> scratch_;
  std::vector<double> quality_;
  int num_labels_ = 0;
  int rows_ = 0;
  bool has_qualities_ = false;
};

}  // namespace qasca

#endif  // QASCA_CORE_ASSIGNMENT_QW_OVERLAY_H_
