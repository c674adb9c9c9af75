#ifndef QASCA_UTIL_TELEMETRY_NAMES_H_
#define QASCA_UTIL_TELEMETRY_NAMES_H_

// Central registry of every telemetry instrument name used in the tree.
//
// Span names MUST be one of the tnames::kSpan* constants below —
// tools/lint_invariants.py rejects any util::Span constructed from a raw
// string literal or an identifier not declared here, so stage names cannot
// drift between the engine, the benches and the docs (DESIGN.md §9 maps
// each name to its paper stage). Counter/gauge names live here too so the
// exports stay greppable from one place.

namespace qasca::util::tnames {

// --- span / latency-histogram names (one histogram per span name) --------
// Engine HIT lifecycle (Figure 2 workflows).
inline constexpr char kSpanAssignHit[] = "assign_hit";
inline constexpr char kSpanCompleteHit[] = "complete_hit";
// Qw estimation (Section 5.3, Eqs. 17-18).
inline constexpr char kSpanEstimateQw[] = "estimate_qw";
// Parameter re-estimation on completion (Section 5.2 / Eq. 5).
inline constexpr char kSpanEmFullRefit[] = "em_full_refit";
inline constexpr char kSpanIncrementalRefresh[] = "incremental_refresh";
// Assignment algorithms: Top-K Benefit (Section 4.1 / Eq. 12) and the
// F-score online algorithm with its nested Dinkelbach solves
// (Section 4.2, Algorithms 2-3).
inline constexpr char kSpanTopkScan[] = "topk_scan";
inline constexpr char kSpanFscoreOnline[] = "fscore_online";
inline constexpr char kSpanDinkelbachInner[] = "dinkelbach_inner";
// Assignment-kernel stage (DESIGN.md §12): the fused SampledQwRows batch
// over all candidate chunks, inside estimate_qw.
inline constexpr char kSpanQwSampledBatch[] = "qw_sampled_batch";
// Serving layer (DESIGN.md §14): one span per request batch, amortising the
// shared-state warm-up across the batch's assign_hit spans.
inline constexpr char kSpanServeBatch[] = "serve_batch";

// --- counter names -------------------------------------------------------
inline constexpr char kHitsAssigned[] = "engine.hits_assigned";
inline constexpr char kHitsCompleted[] = "engine.hits_completed";
inline constexpr char kEmFullRefits[] = "em.full_refits";
inline constexpr char kEmIncrementalRefreshes[] = "em.incremental_refreshes";
inline constexpr char kEmIterations[] = "em.iterations";
inline constexpr char kQwSamplesDrawn[] = "qw.samples_drawn";
inline constexpr char kTopkCandidatesScanned[] = "topk.candidates_scanned";
inline constexpr char kDinkelbachOuterIterations[] =
    "dinkelbach.outer_iterations";
inline constexpr char kDinkelbachInnerIterations[] =
    "dinkelbach.inner_iterations";
inline constexpr char kPoolTasksQueued[] = "threadpool.tasks_queued";
inline constexpr char kPoolTasksExecuted[] = "threadpool.tasks_executed";
inline constexpr char kDbAnswersRecorded[] = "db.answers_recorded";
inline constexpr char kDbPosteriorRowUpdates[] = "db.posterior_row_updates";
// HIT-lifecycle robustness (leases / idempotent completion, DESIGN.md §11).
inline constexpr char kHitLeaseExpired[] = "hit.lease_expired";
inline constexpr char kHitQuestionsRequeued[] = "hit.questions_requeued";
inline constexpr char kHitDuplicateDropped[] = "hit.duplicate_dropped";
inline constexpr char kHitLateCompletionRejected[] =
    "hit.late_completion_rejected";
// Lifecycle journal persistence (crash recovery, DESIGN.md §11).
inline constexpr char kJournalEventsReplayed[] = "journal.events_replayed";
// Assignment-latency SLO tracking (flight recorder PR, DESIGN.md §13):
// samples over the p95 target and window-p95 breach transitions.
inline constexpr char kSloAssignOverTarget[] = "slo.assign_hit.over_target";
inline constexpr char kSloAssignP95Breaches[] =
    "slo.assign_hit.p95_breaches";
// Serving layer (AppManager, DESIGN.md §14): request batches served and the
// requests they carried (per-app registries, like every engine metric).
inline constexpr char kServingBatches[] = "serving.batches";
inline constexpr char kServingBatchRequests[] = "serving.batch_requests";

// --- sliding-window latency names ---------------------------------------
inline constexpr char kWindowAssignHit[] = "assign_hit.window";

// --- gauge names ---------------------------------------------------------
inline constexpr char kOpenHits[] = "engine.open_hits";
inline constexpr char kRemainingHits[] = "engine.remaining_hits";
inline constexpr char kLastRefreshDrift[] = "em.last_refresh_drift";
// Current sliding-window p95 of assign_hit in milliseconds, published by
// the SloTracker after every sample.
inline constexpr char kSloAssignWindowP95Ms[] =
    "slo.assign_hit.window_p95_ms";

}  // namespace qasca::util::tnames

#endif  // QASCA_UTIL_TELEMETRY_NAMES_H_
