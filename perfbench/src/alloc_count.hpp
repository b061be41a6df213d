#pragma once

#include <cstdint>

/// Heap-allocation counting for the per-layer metrics. alloc_count.cpp
/// replaces the global operator new/delete family; every allocation made
/// on a thread bumps that thread's counter, so the allocations of one
/// layer call are the counter's difference across the call.
///
/// Sanitizer builds own the global allocation functions, so there the
/// interposer compiles out and the allocation metrics are reported as
/// unavailable (null), never as 0.

namespace perfbench {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(RFP_SANITIZE_BUILD)
inline constexpr bool kCountAllocs = false;
#else
inline constexpr bool kCountAllocs = true;
#endif

/// Allocations made so far on the calling thread.
std::uint64_t thread_allocs();

}  // namespace perfbench
