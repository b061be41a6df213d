#pragma once

#include <cstddef>
#include <functional>
#include <utility>

#include "rfp/common/thread_pool.hpp"

/// \file engine.hpp
/// Shared execution resources for high-throughput sensing: one ThreadPool.
/// An engine is the unit a deployment shares across pipelines, streaming
/// sensors, and CLI batch jobs — construct it once, size it to the
/// machine, and pass it wherever rounds need to be solved. Scratch is per
/// thread, never per engine: every thread that solves — each pool worker
/// and each caller outside the pool — uses its own
/// SolveWorkspace::for_this_thread(), so concurrent callers (several
/// reactors, say) never share scratch. An engine holds no deployment
/// state: the drift estimate belongs to each deployment's RfPrism, and the
/// Stage-A distance tables to GridGeometryCache::shared(), so one engine
/// serves every tenant.
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

 private:
  ThreadPool pool_;
};

}  // namespace rfp
