#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "rfp/common/thread_pool.hpp"
#include "rfp/core/drift.hpp"
#include "rfp/core/grid_cache.hpp"

/// \file engine.hpp
/// Shared execution resources for high-throughput sensing: one ThreadPool
/// plus the geometry cache its solves share. An engine is the unit a
/// deployment shares across pipelines, streaming sensors, and CLI batch
/// jobs — construct it once, size it to the machine, and pass it wherever
/// rounds need to be solved. Scratch is per thread, never per engine:
/// every thread that solves — each pool worker and each caller outside the
/// pool — uses its own SolveWorkspace::for_this_thread(), so concurrent
/// callers (several reactors, say) never share scratch.
///
/// Determinism guarantee: everything executed through an engine
/// (RfPrism::sense_batch, the pool-fanned grid scan) is bit-identical to
/// the sequential path for any thread count. Per-round solves are
/// independent, scratch workspaces never leak state into results, and all
/// reductions are performed in input order on the calling thread.

namespace rfp {

class SensingEngine {
 public:
  /// `n_threads` = 0 picks the hardware concurrency (at least 1).
  explicit SensingEngine(std::size_t n_threads = 0);

  std::size_t n_threads() const { return pool_.size(); }
  ThreadPool& pool() { return pool_; }

  /// Enqueue an independent task on the engine's pool. The serving
  /// layer's unit of work: a task may itself call the engine-powered
  /// sense overloads — nested parallel_for runs inline on the worker, so
  /// results stay bit-identical to the sequential path. Tasks must not
  /// let exceptions escape (see ThreadPool::submit).
  void submit(std::function<void()> task) { pool_.submit(std::move(task)); }

  /// Engine-owned geometry cache: the Stage-A distance tables shared
  /// read-only by every solve routed through this engine. Engine-less
  /// paths use GridGeometryCache::shared() instead; both build the same
  /// (bit-identical) tables.
  GridGeometryCache& geometry_cache() { return geometry_cache_; }

  // ---- Deployment-level drift self-calibration (drift.hpp) -------------
  // The engine is the natural owner for serving: every request routed
  // through it (rfpd's workers, CLI batch jobs) shares one estimator.
  // Mutex-guarded because observe/corrections race across worker threads;
  // callers snapshot corrections by value before the solve.

  /// Install (or replace) the engine's drift estimator. Throws
  /// InvalidArgument on a zero antenna count or invalid config.
  void enable_drift(std::size_t n_antennas, DriftConfig config = {});

  bool drift_enabled() const;

  /// Value snapshot of the current corrections; inactive (all-zero) when
  /// drift is not enabled or the estimator has not warmed up.
  DriftCorrections drift_corrections() const;

  /// Feed a completed round back into the estimator. No-op when drift is
  /// not enabled. Rounds read from a reference transponder at a known
  /// pose pass it as `reference` for fully-observable residuals (see
  /// DriftEstimator::observe).
  void observe_drift(const SensingResult& result,
                     const DeploymentGeometry& geometry,
                     const ReferencePose* reference = nullptr);

  DriftStats drift_stats() const;
  std::vector<ReSurveyAlarm> drift_alarms() const;

  /// Access the estimator under the engine's lock (serialization, tests).
  /// `fn` must not re-enter the engine's drift API. No-op when drift is
  /// not enabled.
  void with_drift(const std::function<void(DriftEstimator&)>& fn);

 private:
  ThreadPool pool_;
  GridGeometryCache geometry_cache_;
  mutable std::mutex drift_mutex_;
  std::optional<DriftEstimator> drift_;
};

}  // namespace rfp
