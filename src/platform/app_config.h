#ifndef QASCA_PLATFORM_APP_CONFIG_H_
#define QASCA_PLATFORM_APP_CONFIG_H_

#include <string>

#include "core/metrics/metric.h"
#include "model/em.h"
#include "model/posterior.h"
#include "util/attributes.h"
#include "util/status.h"

namespace qasca {

/// Everything a requester supplies when deploying an application — the
/// contents of the paper's Configuration File plus question-set shape
/// (Appendix A): n questions with l labels, k questions per HIT, payment b
/// per HIT, total budget B, and the evaluation metric.
///
/// Threading contract: a value type, immutable once handed to the engine;
/// const references are safe to read from any thread.
struct AppConfig {
  std::string name = "app";
  /// Number of questions n.
  int num_questions = 0;
  /// Number of labels l (>= 2).
  int num_labels = 2;
  /// Questions per HIT (the paper's k).
  int questions_per_hit = 4;
  /// Payment per HIT in dollars (the paper's b).
  double pay_per_hit = 0.02;
  /// Total invested budget in dollars (the paper's B). The engine stops
  /// issuing HITs once B/b HITs have been assigned.
  double budget = 1.0;
  /// The application-driven evaluation metric.
  MetricSpec metric = MetricSpec::Accuracy();
  /// Worker-model parameterisation fitted by EM on HIT completion.
  WorkerModel::Kind worker_kind = WorkerModel::Kind::kConfusionMatrix;
  /// How Qw rows are derived (Section 5.3). kSampled, the paper's
  /// estimator, is the only value; the field stays because perfbench
  /// passes it to QascaStrategy and EstimateWorkerRowsInto.
  QwMode qw_mode = QwMode::kSampled;
  /// EM settings used on each HIT-completion event.
  EmOptions em;
  /// Warm-start each EM refit from the previous fit's worker models.
  /// Cheaper per completion, but OFF by default: in the sparse early phase
  /// (a handful of answers per worker) a warm start can lock in a bad early
  /// local optimum that the cold vote bootstrap would wash out, noticeably
  /// hurting end quality. Enable only when seeding from a mature fit.
  bool warm_start_em = false;
  /// Worker threads for the hot kernels (Qw estimation, benefit scans; EM
  /// refits and the F-score assignment always run serially). 1 = exact
  /// serial execution with no pool at all. Any value produces
  /// byte-identical assignment decisions (fixed-grain chunking and
  /// counter-based per-question RNG streams; see DESIGN.md "Threading and
  /// incrementality").
  int num_threads = 1;
  /// Full EM refits run every this-many HIT completions; completions in
  /// between only re-derive the posterior rows of the k questions the
  /// completed HIT touched, under the frozen worker models and prior
  /// (Eq. 5's posterior update only changes rows whose answer set changed).
  /// 1 = refit on every completion (the paper's batch-global behaviour).
  int em_refresh_interval = 1;
  /// Enables the engine's telemetry layer (util::MetricRegistry): per-stage
  /// latency spans (assign_hit, estimate_qw, em_full_refit, ...), hot-path
  /// counters (EM iterations, Dinkelbach iterations, Qw samples) and gauges.
  /// OFF by default; when disabled no clock is read and the latency
  /// instruments stay empty, while counters and gauges still record (they
  /// are the engine's only counts of its events). Decisions are
  /// byte-identical either way (telemetry never touches the RNG streams —
  /// guarded by the determinism suite).
  bool telemetry_enabled = false;
  /// Assignment-lease timeout in virtual-clock ticks: a HIT not completed
  /// within this many ticks of its assignment (time advances only through
  /// Engine::Tick) expires — its questions return to the worker's candidate
  /// pool, the budget is refunded, and a late completion is rejected.
  /// 0 = leases never expire (the paper's idealised lifecycle; default).
  uint64_t lease_timeout_ticks = 0;
  /// Path prefix for the crash-recovery lifecycle journal, one append-only
  /// file "<prefix>.log" (DESIGN.md §11). Every assignment, completion and
  /// tick is appended so Engine::Recover can replay a crashed engine to a
  /// bit-identical state. Empty = persistence off (default).
  std::string persistence_path;
  /// Always-on agreement bound between the incremental Qc and the next full
  /// EM refit: the max absolute cell difference must stay below this, else
  /// the engine aborts. Generous by design: a refit sees fresher worker
  /// models, and on a sparsely-answered contested question that can
  /// legitimately flip the posterior (measured flips reach ~0.9 at small
  /// scale), so tight bounds would abort on correct behaviour. A violation
  /// means the incremental path asserts near-certainty the refit
  /// contradicts — a logic error (stale or forgotten rows), not noise.
  double em_drift_tolerance = 0.95;
  /// Enables the flight recorder (util/flight_recorder.h): every telemetry
  /// span additionally appends begin/end events to a fixed-capacity ring,
  /// exportable as Chrome/Perfetto trace JSON (qasca_sim --trace-out).
  /// Implies the telemetry registry is live even when telemetry_enabled is
  /// false. OFF by default; decisions are byte-identical either way
  /// (DeterminismTest.TracingNeverChangesDecisions).
  bool flight_recorder_enabled = false;
  /// Flight-recorder ring capacity in events (one span = two events).
  int flight_recorder_capacity = 65536;
  /// Record a DecisionProvenance entry (platform/provenance.h) for every
  /// assignment: chosen questions + benefit scores, EM generation,
  /// lease/journal sequencing. Dumpable as JSONL
  /// (qasca_sim --provenance-out). OFF by default.
  bool provenance_enabled = false;
  /// Provenance ring capacity in records (one per assignment).
  int provenance_capacity = 4096;
  /// p95 assignment-latency SLO target in milliseconds, tracked by a
  /// util::SloTracker over a sliding window of the last
  /// latency_window_samples assignments (breach counters + window-p95
  /// gauge under the slo.assign_hit.* names). 0 disables tracking
  /// (default). Implies the telemetry registry is live.
  double slo_p95_assign_ms = 0.0;
  /// Sliding-window size in samples for the SLO tracker's percentiles.
  int latency_window_samples = 512;

  /// Total number of HITs the budget affords: m = B / b (rounded to the
  /// nearest whole HIT to absorb floating-point currency arithmetic).
  int TotalHits() const {
    return pay_per_hit > 0 ? static_cast<int>(budget / pay_per_hit + 0.5) : 0;
  }

  /// Checks the configuration for structural errors.
  QASCA_NODISCARD util::Status Validate() const;
};

}  // namespace qasca

#endif  // QASCA_PLATFORM_APP_CONFIG_H_
