#include "rfp/common/workspace.hpp"

namespace rfp {

std::vector<double>& SolveWorkspace::vec(std::size_t slot, std::size_t n) {
  while (vecs_.size() <= slot) vecs_.emplace_back();
  std::vector<double>& buffer = vecs_[slot];
  // resize() never shrinks capacity, so steady-state reuse is free; the
  // value-initialization of grown elements is irrelevant (contents are
  // unspecified by contract).
  buffer.resize(n);
  return buffer;
}

SolveWorkspace& SolveWorkspace::for_this_thread() {
  static thread_local SolveWorkspace ws;
  return ws;
}

}  // namespace rfp
