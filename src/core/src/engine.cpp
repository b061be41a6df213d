#include "rfp/core/engine.hpp"

#include <thread>

namespace rfp {

namespace {

std::size_t resolve_threads(std::size_t n_threads) {
  if (n_threads > 0) return n_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

SensingEngine::SensingEngine(std::size_t n_threads)
    : pool_(resolve_threads(n_threads)) {}

}  // namespace rfp
