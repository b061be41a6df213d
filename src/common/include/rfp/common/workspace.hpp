#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <typeindex>
#include <utility>
#include <vector>

/// \file workspace.hpp
/// Reusable scratch arena for the solve hot path. A SolveWorkspace owns
/// buffers that grow to the high-water mark of whatever solves run through
/// it and are then reused verbatim, so a warmed-up workspace makes the
/// refinement stack (LM iterations, normal equations, SoA round snapshot)
/// allocation-free. Workspaces are NOT thread-safe — the execution model
/// is one workspace per thread (see SensingEngine and for_this_thread()),
/// never one workspace shared across concurrent solves.
///
/// Contract for all borrowed storage: contents are unspecified on entry.
/// A caller must fully overwrite what it reads back, which is also what
/// keeps results independent of workspace history (bit-identical solves
/// whether the workspace is cold, warm, or previously used by a different
/// problem size).

namespace rfp {

/// Growable scratch arena: indexed double buffers plus one instance of
/// any caller-defined scratch type.
class SolveWorkspace {
 public:
  SolveWorkspace() = default;
  SolveWorkspace(const SolveWorkspace&) = delete;
  SolveWorkspace& operator=(const SolveWorkspace&) = delete;
  SolveWorkspace(SolveWorkspace&&) = default;
  SolveWorkspace& operator=(SolveWorkspace&&) = default;

  /// Borrow double buffer `slot`, resized to exactly `n` elements
  /// (values unspecified). References stay valid until the workspace is
  /// destroyed — later borrows of other slots never relocate this one.
  std::vector<double>& vec(std::size_t slot, std::size_t n);

  /// Borrow this workspace's single instance of scratch type `T`
  /// (default-constructed on first use). This is how layers above common
  /// keep their own typed buffers (LM matrices, the disentangler's SoA
  /// round snapshot) inside the same arena without common depending on
  /// them.
  template <typename T>
  T& scratch() {
    const std::type_index key(typeid(T));
    for (auto& slot : typed_) {
      if (slot.first == key) return *static_cast<T*>(slot.second.get());
    }
    typed_.emplace_back(key, std::shared_ptr<void>(std::make_shared<T>()));
    return *static_cast<T*>(typed_.back().second.get());
  }

  /// Number of distinct double slots ever borrowed (diagnostics).
  std::size_t slots() const { return vecs_.size(); }

  /// The calling thread's own workspace, created on first use and freed
  /// when the thread exits. Backs every library solve: the engine-free
  /// API, engine pool workers, and engine calls made from threads outside
  /// the pool. One per thread, so concurrent callers never share scratch.
  static SolveWorkspace& for_this_thread();

 private:
  std::deque<std::vector<double>> vecs_;  // deque: stable references
  std::vector<std::pair<std::type_index, std::shared_ptr<void>>> typed_;
};

}  // namespace rfp
