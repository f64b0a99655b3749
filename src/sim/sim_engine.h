// Resumable form of the event-driven co-simulation (sim/simulator.h).
//
// RunSimulation()'s monolithic loop is restructured as Init / Step / Finish
// so an external driver can interleave work between events — this is the
// event-sourcing seam the durability layer (src/recovery/) hangs off:
// every Step() optionally reports what it did as a plain-data StepRecord
// (worker arrival, or a request decision with its full two-phase
// reserve/confirm audit trail), and the whole mutable simulation state can
// be captured with SaveState() and later re-established with
// RestoreState() to continue the run with bit-identical results.
//
// Event ordering: the original implementation kept one priority queue over
// all events. The engine keeps the static instance events in a sorted
// array behind a cursor and only the dynamic re-arrival events in a heap;
// because Event::operator< is a strict total order (time, then unique
// sequence number, with every dynamic sequence greater than every static
// one), merging the two streams pops events in exactly the order the
// single queue did — the refactor is bit-exact by construction, and the
// cursor + heap are trivially serializable for checkpoints.

#ifndef COMX_SIM_SIM_ENGINE_H_
#define COMX_SIM_SIM_ENGINE_H_

#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/online_matcher.h"
#include "fault/fault_session.h"
#include "fault/faulty_platform_view.h"
#include "model/event.h"
#include "model/instance.h"
#include "obs/latency_histogram.h"
#include "obs/metrics_registry.h"
#include "pricing/acceptance_model.h"
#include "matching/batch_matcher.h"
#include "sim/platform_view.h"
#include "sim/simulator.h"
#include "sim/worker_pool.h"
#include "util/binio.h"
#include "util/rng.h"
#include "util/memory_meter.h"
#include "util/result.h"
#include "util/timer.h"

namespace comx {

/// One reserve attempt of the two-phase outer commit, in attempt order.
struct StepReserveEvent {
  PlatformId partner = -1;
  WorkerId worker = kInvalidId;
  bool reserved = false;
};

/// Plain-data account of what one Step() did — everything the write-ahead
/// log needs to journal the step and everything a trace rebuild needs to
/// reproduce the run's decision trace byte-for-byte.
struct StepRecord {
  enum class Kind : int8_t {
    kArrival = 0,
    kDecision = 1,
    /// Batch mode: a request joined its window's pending list (no decision
    /// yet; `request`/`platform`/`time`/`value` are set).
    kBatchEnqueue = 2,
    /// Batch mode: a window closed and its assignment problem was solved;
    /// per-platform outcome totals are in `batch_deltas`, `time` is the
    /// window close (= dispatch time of every decision in it).
    kBatchFlush = 3,
  };

  /// Per-platform outcome totals of one flushed window.
  struct BatchPlatformDelta {
    PlatformId platform = -1;
    int64_t requests = 0;
    int64_t inner = 0;
    int64_t outer = 0;
    int64_t rejected = 0;
    double revenue = 0.0;
  };

  int64_t step = -1;
  Kind kind = Kind::kArrival;

  // kArrival: worker `worker` became available at (x, y) at `time`;
  // `rearrival` distinguishes recycle re-entries from static arrivals.
  WorkerId worker = kInvalidId;
  double x = 0.0;
  double y = 0.0;
  Timestamp time = 0.0;
  bool rearrival = false;

  // kDecision: the request and what became of it. `worker` above is the
  // assigned worker (kInvalidId on reject).
  RequestId request = kInvalidId;
  PlatformId platform = -1;
  int8_t outcome = 0;  // Decision::Kind: 0 reject, 1 inner, 2 outer
  double value = 0.0;
  double payment = 0.0;
  double revenue = 0.0;
  double pickup_km = 0.0;
  DecisionStats stats;
  fault::RequestFaultInfo fault;
  /// Reserve attempts of the two-phase outer commit, in order (empty
  /// without a fault plan: the commit is then single-phase).
  std::vector<StepReserveEvent> reserves;

  /// kBatchFlush only: what each platform's window solve produced.
  std::vector<BatchPlatformDelta> batch_deltas;
};

/// Resumable simulation engine. Not movable: internal views borrow the
/// pool and fault session by reference.
class SimEngine {
 public:
  SimEngine() = default;
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Validates inputs, builds pool/views/acceptance, Reset()s the matchers
  /// with `seed + platform`. `instance`, `matchers`, and everything
  /// `config` points at must outlive the engine.
  Status Init(const Instance& instance,
              const std::vector<OnlineMatcher*>& matchers,
              const SimConfig& config, uint64_t seed);

  /// True when every event has been consumed (and, in batch mode, every
  /// pending window flushed).
  bool Done() const {
    return cursor_ >= static_events_.size() && dynamic_events_.empty() &&
           pending_count_ == 0;
  }

  /// Processes the next event. When `record` is non-null it is overwritten
  /// with the step's account. Errors mirror RunSimulation (Internal on a
  /// matcher constraint violation).
  Status Step(StepRecord* record);

  /// Finalizes metrics (fault stats, logical bytes, RSS, wall clock,
  /// latency snapshot) and the optional trace summary; returns the result.
  /// Call exactly once, after Done().
  SimResult Finish();

  /// Number of Step() calls so far.
  int64_t step_index() const { return step_index_; }

  /// Static instance events consumed so far (the cursor into the sorted
  /// arrival stream). Dynamic re-arrival events do not advance it — the
  /// serve layer steps a shard's engine until the cursor moves to process
  /// "exactly one submitted event plus every re-arrival due before it".
  size_t static_cursor() const { return cursor_; }

  /// Total static events of this engine's instance.
  size_t static_event_count() const { return static_events_.size(); }

  /// Assignments booked so far across all platforms.
  int64_t AssignmentsSoFar() const {
    return static_cast<int64_t>(result_.matching.assignments.size());
  }

  /// Per-platform revenue accumulated in platform order — the same
  /// summation order as SimMetrics::TotalRevenue() and the trace summary,
  /// so totals agree bit-for-bit.
  double TotalRevenueSoFar() const;

  /// Captures the engine's full mutable state (event cursor/heap, pool
  /// availability, metrics, matching, matcher and fault-session state).
  /// Requires measure_response_time to be off: the latency histogram is
  /// wall-clock noise, deliberately outside the durable state.
  Status SaveState(ByteWriter* out) const;

  /// Re-establishes a captured state. Must be called on an engine Init()ed
  /// with the identical (instance, matchers, config, seed).
  Status RestoreState(ByteReader* in);

  /// CRC32C digest of the decision-relevant mutable state (matcher RNG
  /// streams, fault session, revenue, counters). Journaled per decision so
  /// recovery detects divergence at the first wrong step, not at the end.
  uint64_t StateDigest() const;

  /// The live fault session (nullptr without a fault plan) — read-only,
  /// for the durability layer's breaker-transition records.
  const fault::FaultSession* fault_session() const {
    return fault_session_.has_value() ? &*fault_session_ : nullptr;
  }

 private:
  /// One virtual-time window awaiting its close, requests bucketed by
  /// platform in arrival order.
  struct PendingWindow {
    int64_t index = 0;
    Timestamp close = 0.0;
    std::vector<std::vector<RequestId>> per_platform;
  };

  void BuildViews();
  Status StepArrival(const Event& e, StepRecord* record);
  Status StepRequest(const Event& e, StepRecord* record);

  // Batch mode: is the front window due before the next event?
  bool BatchFlushDue() const;
  Status StepBatchEnqueue(const Event& e, StepRecord* record);
  Status StepBatchFlush(StepRecord* record);
  Status FlushPlatformWindow(PlatformId platform, Timestamp close,
                             const std::vector<RequestId>& ids,
                             StepRecord::BatchPlatformDelta* delta);
  Status ApplyBatchDecision(const Request& r, Timestamp close,
                            const Decision& decision,
                            StepRecord::BatchPlatformDelta* delta);

  // The one commit path of every decision, online or batch: counts the
  // outer offer, checks the runtime guards (worker id, occupancy,
  // inner/outer label, range, time, payment in (0, v]), books Eq. 1
  // revenue (Assignment, PlatformMetrics, counters), records the trace
  // event, and takes the worker out of the pool with its recycle
  // re-arrival scheduled from `dispatch_time` (the request's arrival
  // online, the window close in batch). `matcher` names the decider in
  // Internal errors (nullptr: the batch solver); `latency_ns` and `fault`
  // only feed the trace event. On success `*booked` is the assignment
  // (worker kInvalidId on a reject) and `*pickup_km` its pickup distance.
  Status CommitDecision(const Request& r, const Decision& decision,
                        Timestamp dispatch_time, const OnlineMatcher* matcher,
                        int64_t latency_ns,
                        const fault::RequestFaultInfo& fault,
                        Assignment* booked, double* pickup_km);

  const Instance* instance_ = nullptr;
  std::vector<OnlineMatcher*> matchers_;
  SimConfig config_;
  uint64_t seed_ = 0;
  const DistanceMetric* metric_ = nullptr;
  std::optional<AcceptanceModel> local_acceptance_;
  const AcceptanceModel* acceptance_ = nullptr;
  std::optional<WorkerPool> pool_;
  MemoryMeter pool_meter_;
  std::optional<fault::FaultSession> fault_session_;
  std::vector<PoolPlatformView> views_;
  std::vector<fault::FaultyPlatformView> faulty_views_;
  SimResult result_;

  bool collect_ = false;
  struct PlatformCounters {
    obs::Counter* requests;
    obs::Counter* inner;
    obs::Counter* outer;
    obs::Counter* rejects;
  };
  std::vector<PlatformCounters> counters_;
  obs::Gauge* pool_gauge_ = nullptr;
  obs::LatencyHistogram decision_latency_;

  int64_t available_workers_ = 0;
  int64_t decision_seq_ = 0;
  int64_t step_index_ = 0;

  std::vector<Event> static_events_;  // sorted by Event::operator<
  size_t cursor_ = 0;
  std::vector<Event> dynamic_events_;  // min-heap (std::push_heap order)
  int64_t static_event_count_ = 0;
  int64_t dynamic_sequence_ = 0;
  std::vector<Point> drop_off_;

  // Batch mode state: open windows (front = oldest), pending request
  // count across them, the window solver carrying warm-start duals, and
  // one RNG per platform seeded Rng(seed + p) — the same stream a
  // WindowGreedy matcher on platform p would own, which is what makes the
  // window=0 batch run bit-identical to the online WindowGreedy run.
  std::deque<PendingWindow> pending_windows_;
  int64_t pending_count_ = 0;
  int64_t batch_window_seq_ = 0;
  std::optional<BatchMatcher> batch_matcher_;
  std::vector<Rng> batch_rngs_;

  Stopwatch wall_;
  Stopwatch request_clock_;
};

}  // namespace comx

#endif  // COMX_SIM_SIM_ENGINE_H_
