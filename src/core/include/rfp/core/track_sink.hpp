#pragma once

#include <span>

#include "rfp/core/streaming.hpp"

/// \file track_sink.hpp
/// Seam between the streaming layer and a trajectory consumer. rfp_core
/// cannot depend on rfp_track (the tracking engine consumes core types),
/// so StreamingSensor talks to an abstract sink: after each poll it hands
/// the sorted emissions over. The sink only consumes: with or without one
/// attached, the sensor's emissions are the same.

namespace rfp {

class TrackSink {
 public:
  virtual ~TrackSink() = default;

  /// Called once per poll with that poll's emissions, already sorted by
  /// (completed_at_s, tag_id), and the poll's monotonic "now". The sink
  /// is expected to fold the emissions in and then advance its own
  /// lifecycle clocks to `now_s`.
  virtual void observe_emissions(std::span<const StreamedResult> emissions,
                                 double now_s) = 0;
};

}  // namespace rfp
