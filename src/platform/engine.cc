#include "platform/engine.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <utility>

#include "util/failpoint.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/telemetry_names.h"

namespace {

/// Deadline value of a lease that never expires (lease_timeout_ticks == 0).
constexpr uint64_t kLeaseNever = std::numeric_limits<uint64_t>::max();

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  hash ^= value;
  hash *= kFnvPrime;
  return hash;
}

uint64_t BitsOf(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace

namespace qasca {

TaskAssignmentEngine::TaskAssignmentEngine(
    AppConfig config, std::unique_ptr<AssignmentStrategy> strategy,
    uint64_t seed)
    : config_(std::move(config)),
      // The flight recorder and the SLO tracker ride the span/instrument
      // machinery, so either one needs the registry live even when plain
      // telemetry is off. Decisions are byte-identical either way
      // (DeterminismTest.TracingNeverChangesDecisions).
      telemetry_(config_.telemetry_enabled || config_.flight_recorder_enabled ||
                 config_.slo_p95_assign_ms > 0.0) {
  util::Status status = config_.Validate();
  QASCA_CHECK(status.ok()) << status.ToString();
  config_.em.worker_kind = config_.worker_kind;
  if (config_.flight_recorder_enabled) {
    flight_recorder_ =
        std::make_unique<util::FlightRecorder>(config_.flight_recorder_capacity);
    // Attached before any worker thread exists — the registry's recorder
    // pointer is written exactly once, here.
    telemetry_.AttachFlightRecorder(flight_recorder_.get());
  }
  if (config_.provenance_enabled) {
    provenance_ = std::make_unique<ProvenanceLog>(config_.provenance_capacity);
  }
  if (config_.slo_p95_assign_ms > 0.0) {
    util::SloTracker::Instruments slo_instruments;
    slo_instruments.window_name = util::tnames::kWindowAssignHit;
    slo_instruments.over_target_name = util::tnames::kSloAssignOverTarget;
    slo_instruments.breaches_name = util::tnames::kSloAssignP95Breaches;
    slo_instruments.window_p95_name = util::tnames::kSloAssignWindowP95Ms;
    util::SloTracker::Options slo_options;
    slo_options.target_p95_seconds = config_.slo_p95_assign_ms * 1e-3;
    slo_options.window = config_.latency_window_samples;
    assign_slo_ = std::make_unique<util::SloTracker>(
        &telemetry_, slo_instruments, slo_options);
  }
  if (!config_.persistence_path.empty()) {
    journal_ = std::make_unique<LifecycleJournal>(config_.persistence_path);
    journal_->AttachTelemetry(&telemetry_);
  }
  // Arms any fault plan in the QASCA_FAILPOINTS environment variable; a
  // no-op when unset or when fail points are compiled out.
  util::FailPoints::Global().ArmFromEnv();
  // The decision core: owns the database, the strategy, the RNG stream and
  // the EM refresh machinery. Constructed after the registry, which its
  // instruments resolve against.
  core_ = std::make_unique<AssignmentCore>(&config_, std::move(strategy),
                                           seed, &telemetry_);
  instruments_.hits_assigned =
      telemetry_.GetCounter(util::tnames::kHitsAssigned);
  instruments_.hits_completed =
      telemetry_.GetCounter(util::tnames::kHitsCompleted);
  instruments_.lease_expired =
      telemetry_.GetCounter(util::tnames::kHitLeaseExpired);
  instruments_.questions_requeued =
      telemetry_.GetCounter(util::tnames::kHitQuestionsRequeued);
  instruments_.duplicate_dropped =
      telemetry_.GetCounter(util::tnames::kHitDuplicateDropped);
  instruments_.late_completion_rejected =
      telemetry_.GetCounter(util::tnames::kHitLateCompletionRejected);
  instruments_.journal_events_replayed =
      telemetry_.GetCounter(util::tnames::kJournalEventsReplayed);
  instruments_.batches_served =
      telemetry_.GetCounter(util::tnames::kServingBatches);
  instruments_.batch_requests =
      telemetry_.GetCounter(util::tnames::kServingBatchRequests);
  instruments_.open_hits = telemetry_.GetGauge(util::tnames::kOpenHits);
  instruments_.remaining_hits =
      telemetry_.GetGauge(util::tnames::kRemainingHits);
}

util::StatusOr<std::vector<QuestionIndex>> TaskAssignmentEngine::RequestHit(
    WorkerId worker) {
  if (BudgetExhausted()) {
    return util::Status::ResourceExhausted("budget spent: no HITs left");
  }
  if (open_hits_.contains(worker)) {
    return util::Status::FailedPrecondition(
        "worker already holds an open HIT");
  }
  // The seq this assignment's journal line gets: the trace id stamped onto
  // every span event of the request, the HIT id and the provenance
  // record's journal_seq. A request rejected below journals nothing and
  // consumes no seq, so its spans carry the seq of the next event applied.
  const uint64_t seq = next_seq_;
  util::TraceScope trace_scope(seq);
  // Root span of the HIT-request workflow; every stage below (estimate_qw,
  // topk_scan / fscore_online -> dinkelbach_inner) nests inside it.
  util::Span span(&telemetry_, util::tnames::kSpanAssignHit);

  // Decision provenance: the strategy fills the selection scores and the
  // core fills the decision-input fields; the shell fills the rest below
  // once the assignment is journaled.
  DecisionProvenance provenance_record;
  util::Stopwatch stopwatch;
  util::StatusOr<AssignmentCore::Decision> decision = core_->Decide(
      worker, provenance_ != nullptr ? &provenance_record : nullptr);
  if (!decision.ok()) {
    // A rejected request (short candidate set) never reached the strategy;
    // it does not contribute an assignment-latency sample.
    return decision.status();
  }
  const double decision_seconds = stopwatch.ElapsedSeconds();
  max_assignment_seconds_ = std::max(max_assignment_seconds_, decision_seconds);
  if (assign_slo_ != nullptr) assign_slo_->RecordSeconds(decision_seconds);
  std::vector<QuestionIndex> selected = std::move(decision->questions);

  // Write-ahead: the event must be journaled before any engine state mutates,
  // so a failed append leaves this HIT unassigned everywhere — recovery and
  // the live engine agree the event never happened.
  if (journal_ != nullptr && !replaying_) {
    QASCA_RETURN_IF_ERROR(journal_->AppendAssign(worker, selected));
    QASCA_DCHECK_EQ(journal_->last_seq(), seq);
  }
  ++next_seq_;
  core_->CommitAssignment(worker, selected);
  OpenHit hit;
  hit.hit_id = seq;
  hit.deadline = config_.lease_timeout_ticks == 0
                     ? kLeaseNever
                     : now_ticks_ + config_.lease_timeout_ticks;
  hit.questions = selected;
  const uint64_t lease_deadline = hit.deadline;
  open_hits_.emplace(worker, std::move(hit));
  // A new HIT supersedes any earlier expired lease: the late-completion
  // rejection window for this worker closes here.
  expired_pending_.erase(worker);
  ++assigned_hits_;
  instruments_.hits_assigned->Add(1);
  instruments_.open_hits->Set(static_cast<double>(open_hits_.size()));
  instruments_.remaining_hits->Set(static_cast<double>(remaining_hits()));
  if (provenance_ != nullptr) {
    // Appended after the assignment is journaled, and during replay too:
    // provenance is re-derivable audit state, rebuilt by recovery replay,
    // so counts stay consistent across crashes.
    provenance_record.journal_seq = seq;
    provenance_record.worker = worker;
    provenance_record.questions = selected;
    provenance_record.now_ticks = now_ticks_;
    provenance_record.lease_deadline = lease_deadline;
    provenance_->Record(std::move(provenance_record));
  }
  return selected;
}

std::vector<util::StatusOr<std::vector<QuestionIndex>>>
TaskAssignmentEngine::ServeRequestBatch(const std::vector<WorkerId>& workers) {
  // One root span and one shared-state warm-up for the whole batch: the
  // cached typical-worker model, for strategies that read it, is
  // materialised once here instead of inside the first request's span.
  util::Span span(&telemetry_, util::tnames::kSpanServeBatch);
  core_->WarmSharedState();
  std::vector<util::StatusOr<std::vector<QuestionIndex>>> results;
  results.reserve(workers.size());
  for (WorkerId worker : workers) {
    results.push_back(RequestHit(worker));
  }
  instruments_.batches_served->Add(1);
  instruments_.batch_requests->Add(static_cast<int64_t>(workers.size()));
  return results;
}

util::Status TaskAssignmentEngine::CompleteHit(
    WorkerId worker, const std::vector<LabelIndex>& labels) {
  auto it = open_hits_.find(worker);
  if (it == open_hits_.end()) {
    // Distinguish the platform failure modes from a plain unknown worker.
    // A redelivered completion callback matches the worker's most recent
    // completed HIT by answer-set hash and is dropped without touching D
    // or EM; a completion arriving after the lease timed out is rejected
    // as late. Both are recoverable platform events, not API misuse.
    auto completed = last_completion_.find(worker);
    if (completed != last_completion_.end() &&
        completed->second.answers_hash == HashLabels(labels)) {
      instruments_.duplicate_dropped->Add(1);
      return util::Status::AlreadyExists(
          "duplicate completion of HIT " +
          std::to_string(completed->second.hit_id) + " dropped");
    }
    if (expired_pending_.contains(worker)) {
      instruments_.late_completion_rejected->Add(1);
      return util::Status::FailedPrecondition(
          "lease expired before completion; answers rejected");
    }
    return util::Status::NotFound("worker has no open HIT");
  }
  const std::vector<QuestionIndex>& questions = it->second.questions;
  if (labels.size() != questions.size()) {
    return util::Status::InvalidArgument(
        "answer count does not match HIT size");
  }
  for (LabelIndex label : labels) {
    if (label < 0 || label >= config_.num_labels) {
      return util::Status::InvalidArgument("answer label out of range");
    }
  }
  // The completion's journal seq is its trace id, as in RequestHit.
  const uint64_t seq = next_seq_;
  util::TraceScope trace_scope(seq);
  // Root span of the HIT-completion workflow (steps A-C); em_full_refit /
  // incremental_refresh nest inside it.
  util::Span span(&telemetry_, util::tnames::kSpanCompleteHit);
  // Write-ahead, as in RequestHit: fail before touching D or the lease so a
  // completion the journal lost is a completion that never happened.
  if (journal_ != nullptr && !replaying_) {
    QASCA_RETURN_IF_ERROR(journal_->AppendComplete(worker, labels));
    QASCA_DCHECK_EQ(journal_->last_seq(), seq);
  }
  ++next_seq_;
  std::vector<QuestionIndex> touched = it->second.questions;
  last_completion_[worker] =
      CompletedHit{it->second.hit_id, HashLabels(labels)};
  open_hits_.erase(it);
  instruments_.hits_completed->Add(1);
  instruments_.open_hits->Set(static_cast<double>(open_hits_.size()));
  // Steps A-C run in the core: append the answers to D, then refresh Qc
  // (incremental row re-derivation or a scheduled full EM refit).
  core_->ApplyCompletion(worker, touched, labels);
  return util::Status::Ok();
}

int TaskAssignmentEngine::Tick(uint64_t ticks) {
  QASCA_CHECK_GT(ticks, 0u);
  now_ticks_ += ticks;
  // Tick has no error channel, and a clock advance the journal lost would
  // recover to different lease deadlines — divergence, the one thing the
  // journal must never allow. Fatal, so the operator restarts into Recover.
  if (journal_ != nullptr && !replaying_) {
    QASCA_CHECK_OK(journal_->AppendTick(ticks));
    QASCA_DCHECK_EQ(journal_->last_seq(), next_seq_);
  }
  ++next_seq_;
  // Collect the expired workers with an explicit iterator walk and process
  // them in ascending-id order: expiry requeues questions and is replayed
  // during recovery, so its effects must not depend on unordered_map
  // bucket order (determinism pass, tools/analyze.py).
  std::vector<WorkerId> expired;
  for (auto it = open_hits_.begin(); it != open_hits_.end(); ++it) {
    if (it->second.deadline <= now_ticks_) expired.push_back(it->first);
  }
  std::sort(expired.begin(), expired.end());
  for (WorkerId worker : expired) {
    const OpenHit& hit = open_hits_.at(worker);
    core_->ReleaseAssignment(worker, hit.questions);
    instruments_.questions_requeued->Add(
        static_cast<int64_t>(hit.questions.size()));
    open_hits_.erase(worker);
    expired_pending_.insert(worker);
    // Refund the budget: the HIT was never completed, so it is never paid
    // for. This keeps assigned_hits == completed_hits + open_hit_count.
    --assigned_hits_;
    instruments_.lease_expired->Add(1);
  }
  if (!expired.empty()) {
    instruments_.open_hits->Set(static_cast<double>(open_hits_.size()));
    instruments_.remaining_hits->Set(static_cast<double>(remaining_hits()));
  }
  return static_cast<int>(expired.size());
}

util::Status TaskAssignmentEngine::Recover() {
  if (journal_ == nullptr) {
    return util::Status::FailedPrecondition(
        "recovery requires AppConfig::persistence_path");
  }
  // A fresh engine has applied no event. The seq only grows, unlike
  // assigned_hits_, which lease expiry refunds.
  QASCA_CHECK(next_seq_ == 0)
      << "Recover must run on a freshly constructed engine";
  replaying_ = true;
  util::Status status = ReplayLoadedEvents();
  replaying_ = false;
  // Replayed events live on in the journal's file, not in memory.
  journal_->ReleaseLoadedEvents();
  return status;
}

util::Status TaskAssignmentEngine::ReplayLoadedEvents() {
  for (const LifecycleJournal::Event& event : journal_->events()) {
    // Each applied event consumes one seq, so the replay numbers every
    // event with the seq the live run gave it.
    QASCA_CHECK_EQ(event.seq, next_seq_);
    switch (event.kind) {
      case LifecycleJournal::Event::Kind::kAssign: {
        util::StatusOr<std::vector<QuestionIndex>> selected =
            RequestHit(event.worker);
        if (!selected.ok()) return selected.status();
        if (*selected != event.questions) {
          return util::Status::Internal(
              "journal replay diverged from the strategy's selection — the "
              "journal was not written by this (config, seed)");
        }
        break;
      }
      case LifecycleJournal::Event::Kind::kComplete:
        QASCA_RETURN_IF_ERROR(CompleteHit(event.worker, event.labels));
        break;
      case LifecycleJournal::Event::Kind::kTick:
        Tick(event.ticks);
        break;
    }
    instruments_.journal_events_replayed->Add(1);
  }
  return util::Status::Ok();
}

uint64_t TaskAssignmentEngine::HashLabels(
    const std::vector<LabelIndex>& labels) {
  uint64_t hash = kFnvOffset;
  hash = FnvMix(hash, labels.size());
  for (LabelIndex label : labels) {
    hash = FnvMix(hash, static_cast<uint64_t>(label) + 1);
  }
  return hash;
}

uint64_t TaskAssignmentEngine::StateFingerprint() const {
  uint64_t hash = kFnvOffset;
  hash = FnvMix(hash, static_cast<uint64_t>(assigned_hits_));
  hash = FnvMix(hash, static_cast<uint64_t>(completed_hits()));
  hash = FnvMix(hash, now_ticks_);
  hash = FnvMix(hash, next_seq_);
  // Open leases, folded in ascending worker order (determinism pass: the
  // fingerprint must not depend on bucket layout).
  std::vector<WorkerId> workers;
  for (auto it = open_hits_.begin(); it != open_hits_.end(); ++it) {
    workers.push_back(it->first);
  }
  std::sort(workers.begin(), workers.end());
  for (WorkerId worker : workers) {
    const OpenHit& hit = open_hits_.at(worker);
    hash = FnvMix(hash, static_cast<uint64_t>(worker));
    hash = FnvMix(hash, hit.hit_id);
    hash = FnvMix(hash, hit.deadline);
    for (QuestionIndex q : hit.questions) {
      hash = FnvMix(hash, static_cast<uint64_t>(q) + 1);
    }
  }
  // The answer set D, in per-question arrival order.
  const Database& db = core_->database();
  for (int q = 0; q < db.num_questions(); ++q) {
    const auto& answers = db.answers()[static_cast<size_t>(q)];
    hash = FnvMix(hash, answers.size());
    for (const Answer& answer : answers) {
      hash = FnvMix(hash, static_cast<uint64_t>(answer.worker));
      hash = FnvMix(hash, static_cast<uint64_t>(answer.label) + 1);
    }
  }
  const DistributionMatrix& qc = db.current();
  for (int i = 0; i < qc.num_questions(); ++i) {
    for (int j = 0; j < qc.num_labels(); ++j) {
      hash = FnvMix(hash, BitsOf(qc.At(i, j)));
    }
  }
  for (LabelIndex r : CurrentResults()) {
    hash = FnvMix(hash, static_cast<uint64_t>(r) + 1);
  }
  return hash;
}

}  // namespace qasca
