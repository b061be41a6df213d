#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rfp/common/bytes.hpp"
#include "rfp/core/calibration.hpp"
#include "rfp/core/types.hpp"
#include "rfp/rfsim/reader.hpp"

/// \file binary_io.hpp
/// Binary (little-endian, fixed-width) serialization of the types that
/// cross the rfp::net wire: RoundTrace (request payload), SensingResult
/// (response payload), and — since wire protocol v2 — DeploymentGeometry
/// and CalibrationDB (session-setup payload, so a daemon can serve
/// deployments it never surveyed itself). This is the compact sibling of
/// the plain-text trace format in trace_io.hpp — doubles are carried as
/// their IEEE-754 bit patterns, so a value survives a round trip
/// bit-exactly and "byte-identical responses" is a meaningful contract
/// for the serving layer. The geometry/calibration encodings are also
/// *canonical* (one encoding per value, tags in sorted order), which lets
/// DeploymentRegistry key tenants on a digest of the encoded bytes.
///
/// Decoders are total functions: malformed input returns false, never
/// throws, and never allocates more than the input's own size (every
/// count is validated against the bytes remaining before any resize).

namespace rfp {

/// Append `round` to the writer. Throws InvalidArgument on a structurally
/// broken round (phase/RSSI length mismatch within a dwell) — encoding is
/// the trusted side, unlike decoding.
void append_round(ByteWriter& w, const RoundTrace& round);

/// Parse one round from the reader. Returns false (without consuming a
/// defined amount) on malformed input; does not require the reader to be
/// exhausted, so rounds can be embedded in larger payloads.
bool read_round(ByteReader& r, RoundTrace& out);

/// Append `result` to the writer (all fields, diagnostics included).
void append_result(ByteWriter& w, const SensingResult& result);

/// Parse one result from the reader; false on malformed input.
bool read_result(ByteReader& r, SensingResult& out);

/// Append `geometry` (positions, frames, working region, tag plane).
/// Throws InvalidArgument when the frame count does not match the
/// position count — a structurally broken deployment must not reach the
/// wire with the mismatch silently dropped.
void append_geometry(ByteWriter& w, const DeploymentGeometry& geometry);

/// Parse one geometry; false on malformed input (including a frame count
/// that disagrees with the position count). Structural validation only —
/// semantic checks (>= 3 antennas, a sane region) stay with RfPrism.
bool read_geometry(ByteReader& r, DeploymentGeometry& out);

/// Append `db` (reader equalization if present, then every tag in
/// CalibrationDB::tag_ids() order — sorted, so the encoding is canonical).
void append_calibration_db(ByteWriter& w, const CalibrationDB& db);

/// Parse one calibration database; false on malformed input (including
/// delta_k/delta_b length disagreement and duplicate tag ids).
bool read_calibration_db(ByteReader& r, CalibrationDB& out);

// Whole-buffer convenience wrappers. The decode side additionally
// rejects trailing bytes (a strict payload parse).
std::vector<std::uint8_t> encode_round(const RoundTrace& round);
bool decode_round(std::span<const std::uint8_t> data, RoundTrace& out);
std::vector<std::uint8_t> encode_result(const SensingResult& result);
bool decode_result(std::span<const std::uint8_t> data, SensingResult& out);

}  // namespace rfp
