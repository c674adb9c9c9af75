#ifndef QASCA_CORE_ASSIGNMENT_QW_OVERLAY_H_
#define QASCA_CORE_ASSIGNMENT_QW_OVERLAY_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"
#include "util/logging.h"

namespace qasca {

/// Zero-copy view of the estimated distribution matrix Qw (DESIGN.md §12):
/// instead of deep-copying all n rows of Qc and overwriting the candidate
/// rows, only the candidate rows are materialised into a reusable scratch
/// buffer, and reads fall through to the base matrix for every other row.
/// AssignmentRequest::EstimatedRow is the fall-through read; the assignment
/// algorithms never touch non-candidate estimated rows, so the two
/// representations are interchangeable bit-for-bit.
///
/// Epoch discipline: Begin() starts a new request in O(1) by bumping an
/// epoch counter — a row is "materialised" iff its stamp matches the
/// current epoch, so the per-question stamp array never needs clearing
/// between requests (it is cleared only on shape changes and on the
/// ~4-billion-request epoch wraparound).
///
/// Ownership and threading: owned by the strategy that fills it
/// (QascaStrategy holds one as per-strategy scratch) and valid only for the
/// duration of one SelectQuestions call, like every other AssignmentRequest
/// pointer. Fill protocol: the engine thread calls Begin() then Stamp()s
/// every candidate; parallel kernel chunks may then write disjoint
/// MutableRow(slot) buffers concurrently (slot = candidate position, so
/// writes never overlap). Readers run after the fill completes.
class QwOverlay {
 public:
  /// Starts a new overlay epoch over a base matrix of shape
  /// [num_questions, num_labels], with room for `rows` materialised rows.
  /// Invalidates every row stamped in previous epochs.
  void Begin(int num_questions, int num_labels, int rows) {
    QASCA_CHECK_GT(num_questions, 0);
    QASCA_CHECK_GT(num_labels, 0);
    QASCA_CHECK_GE(rows, 0);
    QASCA_CHECK_LE(rows, num_questions);
    if (static_cast<int>(epoch_of_.size()) != num_questions) {
      epoch_of_.assign(static_cast<size_t>(num_questions), 0);
      slot_of_.assign(static_cast<size_t>(num_questions), 0);
      epoch_ = 0;
    }
    if (++epoch_ == 0) {
      // uint32 wraparound: stale stamps from 2^32 requests ago would alias
      // the new epoch, so clear them once and restart from epoch 1.
      std::fill(epoch_of_.begin(), epoch_of_.end(), 0u);
      epoch_ = 1;
    }
    num_labels_ = num_labels;
    rows_ = rows;
    scratch_.resize(static_cast<size_t>(rows) * num_labels);
    total_rows_materialized_ += rows;
    quality_epoch_ = 0;  // disarm: qualities must be re-armed every epoch
  }

  /// Claims scratch slot `slot` (in [0, rows)) for question `i` in the
  /// current epoch. Engine-thread-only (the serial part of the fill).
  void Stamp(QuestionIndex i, int slot) {
    QASCA_CHECK_GE(i, 0);
    QASCA_CHECK_LT(i, static_cast<int>(epoch_of_.size()));
    QASCA_DCHECK_GE(slot, 0);
    QASCA_DCHECK_LT(slot, rows_);
    epoch_of_[static_cast<size_t>(i)] = epoch_;
    slot_of_[static_cast<size_t>(i)] = slot;
  }

  /// The writable row buffer for slot `slot`. Distinct slots never overlap,
  /// so parallel chunks may fill their own slots concurrently.
  double* MutableRow(int slot) {
    return scratch_.data() + static_cast<size_t>(slot) * num_labels_;
  }

  /// Whether question `i` was stamped in the current epoch.
  bool Contains(QuestionIndex i) const {
    QASCA_DCHECK_GE(i, 0);
    QASCA_DCHECK_LT(i, static_cast<int>(epoch_of_.size()));
    return epoch_of_[static_cast<size_t>(i)] == epoch_;
  }

  /// Arms the fused per-row quality channel for the current epoch and
  /// returns its slot-indexed buffer (one double per materialised row).
  /// The estimation kernel writes each row's decomposable quality — the
  /// Accuracy* row max — into slot c while the row is still in registers,
  /// so the benefit scan reads one contiguous double per candidate instead
  /// of re-reducing the row. Engine-thread-only, like Stamp(); parallel
  /// fill chunks then write disjoint slots. Begin() disarms the channel, so
  /// a stale epoch can never leak qualities into the next request.
  double* ArmQualities() {
    quality_.resize(static_cast<size_t>(rows_));
    quality_epoch_ = epoch_;
    return quality_.data();
  }

  /// Whether the current epoch armed (and filled) the quality channel.
  bool has_qualities() const noexcept {
    return epoch_ != 0 && quality_epoch_ == epoch_;
  }

  /// The fused quality for question `i`; Contains(i) and has_qualities()
  /// must hold.
  double Quality(QuestionIndex i) const {
    QASCA_DCHECK(Contains(i));
    QASCA_DCHECK(has_qualities());
    return quality_[static_cast<size_t>(slot_of_[static_cast<size_t>(i)])];
  }

  /// The row in slot `slot`, in [0, rows_materialized()).
  std::span<const double> SlotRow(int slot) const {
    QASCA_DCHECK_GE(slot, 0);
    QASCA_DCHECK_LT(slot, rows_);
    return {scratch_.data() + static_cast<size_t>(slot) * num_labels_,
            static_cast<size_t>(num_labels_)};
  }

  /// The materialised row for question `i`; Contains(i) must hold.
  std::span<const double> Row(QuestionIndex i) const {
    QASCA_DCHECK(Contains(i));
    return {scratch_.data() +
                static_cast<size_t>(slot_of_[static_cast<size_t>(i)]) *
                    num_labels_,
            static_cast<size_t>(num_labels_)};
  }

  int num_labels() const noexcept { return num_labels_; }
  int num_questions() const noexcept {
    return static_cast<int>(epoch_of_.size());
  }
  /// Rows materialised by the current epoch / across all epochs (the bench
  /// `kernels` section reports the cumulative count).
  int rows_materialized() const noexcept { return rows_; }
  int64_t total_rows_materialized() const noexcept {
    return total_rows_materialized_;
  }

 private:
  std::vector<double> scratch_;
  std::vector<double> quality_;
  std::vector<uint32_t> epoch_of_;
  std::vector<int32_t> slot_of_;
  uint32_t epoch_ = 0;
  uint32_t quality_epoch_ = 0;
  int num_labels_ = 0;
  int rows_ = 0;
  int64_t total_rows_materialized_ = 0;
};

}  // namespace qasca

#endif  // QASCA_CORE_ASSIGNMENT_QW_OVERLAY_H_
