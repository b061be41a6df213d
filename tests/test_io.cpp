#include <sstream>

#include <gtest/gtest.h>

#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/core/pipeline.hpp"
#include "rfp/io/calibration_io.hpp"
#include "rfp/io/geometry_io.hpp"
#include "rfp/io/trace_io.hpp"
#include "support/core_test_util.hpp"

namespace rfp {
namespace {

using testutil::noiseless_channel;
using testutil::noiseless_reader;

RoundTrace sample_round(std::uint64_t trial) {
  const Scene scene = make_scene_2d(201);
  const TagHardware tag = make_tag_hardware("t", 201);
  const TagState state{Vec3{0.9, 1.1, 0.0}, planar_polarization(0.4), "oil"};
  Rng rng(trial);
  ReaderConfig reader;  // default noisy config: exercises real values
  return collect_round(scene, reader, ChannelConfig::clean(), tag, state,
                       trial, rng);
}

void expect_rounds_equal(const RoundTrace& a, const RoundTrace& b) {
  ASSERT_EQ(a.n_antennas, b.n_antennas);
  ASSERT_DOUBLE_EQ(a.duration_s, b.duration_s);
  ASSERT_EQ(a.dwells.size(), b.dwells.size());
  for (std::size_t i = 0; i < a.dwells.size(); ++i) {
    const Dwell& da = a.dwells[i];
    const Dwell& db = b.dwells[i];
    ASSERT_EQ(da.antenna, db.antenna);
    ASSERT_EQ(da.channel, db.channel);
    ASSERT_DOUBLE_EQ(da.frequency_hz, db.frequency_hz);
    ASSERT_DOUBLE_EQ(da.start_time_s, db.start_time_s);
    ASSERT_EQ(da.phases.size(), db.phases.size());
    for (std::size_t r = 0; r < da.phases.size(); ++r) {
      ASSERT_DOUBLE_EQ(da.phases[r], db.phases[r]);
      ASSERT_DOUBLE_EQ(da.rssi_dbm[r], db.rssi_dbm[r]);
    }
  }
}

TEST(TraceIo, RoundTripsExactly) {
  const RoundTrace original = sample_round(11);
  std::stringstream ss;
  write_round(ss, original);
  const RoundTrace reloaded = read_round(ss);
  expect_rounds_equal(original, reloaded);
}

TEST(TraceIo, FileRoundTrip) {
  const RoundTrace original = sample_round(12);
  const std::string path = testing::TempDir() + "/rfp_trace_test.txt";
  save_round(path, original);
  const RoundTrace reloaded = load_round(path);
  expect_rounds_equal(original, reloaded);
}

TEST(TraceIo, ReplayedRoundSensesIdentically) {
  // The point of the format: a replayed round must produce bit-identical
  // sensing output.
  const Scene scene = make_scene_2d(201);
  RfPrismConfig config;
  config.geometry = testutil::exact_geometry(scene);
  const RfPrism prism(config);

  const RoundTrace original = sample_round(13);
  std::stringstream ss;
  write_round(ss, original);
  const RoundTrace reloaded = read_round(ss);

  const SensingResult a = prism.sense(original);
  const SensingResult b = prism.sense(reloaded);
  ASSERT_EQ(a.valid, b.valid);
  if (a.valid) {
    EXPECT_EQ(a.position, b.position);
    EXPECT_DOUBLE_EQ(a.alpha, b.alpha);
    EXPECT_DOUBLE_EQ(a.kt, b.kt);
  }
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream ss("not-a-trace v1\n");
  EXPECT_THROW(read_round(ss), Error);
}

TEST(TraceIo, RejectsBadVersion) {
  std::stringstream ss("rfprism-trace v9\nround 3 10 0\n");
  EXPECT_THROW(read_round(ss), Error);
}

TEST(TraceIo, RejectsTruncatedReads) {
  std::stringstream ss(
      "rfprism-trace v1\nround 1 10 1\ndwell 0 0 903e6 0.0 3\n1.0 -50\n");
  EXPECT_THROW(read_round(ss), Error);
}

TEST(TraceIo, RejectsAntennaOutOfRange) {
  std::stringstream ss(
      "rfprism-trace v1\nround 1 10 1\ndwell 5 0 903e6 0.0 1\n1.0 -50\n");
  EXPECT_THROW(read_round(ss), Error);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_round("/nonexistent/path/trace.txt"), Error);
}

std::vector<StreamRead> sample_read_log() {
  std::vector<StreamRead> reads;
  Rng rng(77);
  for (int i = 0; i < 40; ++i) {
    StreamRead read;
    read.tag_id = i % 2 == 0 ? "pallet-a" : "pallet-b";
    read.antenna = static_cast<std::size_t>(i % 4);
    read.channel = static_cast<std::size_t>(i % 16);
    read.frequency_hz = 902.75e6 + 0.5e6 * (i % 16);
    read.time_s = 0.05 * i;
    read.phase = rng.uniform(0.0, 2.0 * kPi);
    read.rssi_dbm = -55.0 + rng.gaussian(0.0, 3.0);
    reads.push_back(std::move(read));
  }
  return reads;
}

TEST(ReadLogIo, RoundTripsExactly) {
  const std::vector<StreamRead> original = sample_read_log();
  std::stringstream ss;
  write_read_log(ss, original);
  const std::vector<StreamRead> reloaded = read_read_log(ss);
  ASSERT_EQ(reloaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reloaded[i].tag_id, original[i].tag_id);
    EXPECT_EQ(reloaded[i].antenna, original[i].antenna);
    EXPECT_EQ(reloaded[i].channel, original[i].channel);
    ASSERT_DOUBLE_EQ(reloaded[i].frequency_hz, original[i].frequency_hz);
    ASSERT_DOUBLE_EQ(reloaded[i].time_s, original[i].time_s);
    ASSERT_DOUBLE_EQ(reloaded[i].phase, original[i].phase);
    ASSERT_DOUBLE_EQ(reloaded[i].rssi_dbm, original[i].rssi_dbm);
  }
}

TEST(ReadLogIo, FileRoundTrip) {
  const std::vector<StreamRead> original = sample_read_log();
  const std::string path = testing::TempDir() + "/rfp_readlog_test.txt";
  save_read_log(path, original);
  EXPECT_EQ(load_read_log(path).size(), original.size());
}

TEST(ReadLogIo, EmptyLogRoundTrips) {
  std::stringstream ss;
  write_read_log(ss, {});
  EXPECT_TRUE(read_read_log(ss).empty());
}

TEST(ReadLogIo, WhitespaceTagIdRejectedOnWrite) {
  // Whitespace in a tag id would shift every later column on reload.
  for (const char* bad : {"", "two words", "tab\tid", "nl\nid"}) {
    std::vector<StreamRead> reads(1);
    reads[0].tag_id = bad;
    std::stringstream ss;
    EXPECT_THROW(write_read_log(ss, reads), Error) << "tag '" << bad << "'";
  }
}

TEST(ReadLogIo, RejectsBadMagicAndVersion) {
  std::stringstream bad_magic("rfprism-trace v1\nreads 0\n");
  EXPECT_THROW(read_read_log(bad_magic), Error);
  std::stringstream bad_version("rfprism-readlog v9\nreads 0\n");
  EXPECT_THROW(read_read_log(bad_version), Error);
}

TEST(ReadLogIo, RejectsTruncation) {
  const std::vector<StreamRead> original = sample_read_log();
  std::stringstream ss;
  write_read_log(ss, original);
  const std::string text = ss.str();
  // Cut mid-way through the read lines: the parser must throw, not
  // silently return a short log.
  std::stringstream cut(text.substr(0, text.size() * 2 / 3));
  EXPECT_THROW(read_read_log(cut), Error);
}

TEST(CalibrationIo, EmptyDbRoundTrips) {
  CalibrationDB db;
  std::stringstream ss;
  write_calibrations(ss, db);
  const CalibrationDB reloaded = read_calibrations(ss);
  EXPECT_FALSE(reloaded.reader().has_value());
  EXPECT_EQ(reloaded.n_tags(), 0u);
}

TEST(CalibrationIo, FullDbRoundTrips) {
  CalibrationDB db;
  ReaderCalibration reader;
  reader.delta_k = {0.0, 1.5e-9, -2.25e-9};
  reader.delta_b = {0.0, 0.75, -1.125};
  db.set_reader(reader);

  TagCalibration tag;
  tag.kd = 3.5e-10;
  tag.bd = 2.7182818;
  tag.residual_curve = {0.01, -0.02, 0.035};
  db.set_tag("tag-7", tag);
  db.set_tag("tag-9", TagCalibration{});

  std::stringstream ss;
  write_calibrations(ss, db);
  const CalibrationDB reloaded = read_calibrations(ss);

  ASSERT_TRUE(reloaded.reader().has_value());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(reloaded.reader()->delta_k[i], reader.delta_k[i]);
    EXPECT_DOUBLE_EQ(reloaded.reader()->delta_b[i], reader.delta_b[i]);
  }
  ASSERT_EQ(reloaded.n_tags(), 2u);
  const TagCalibration* t7 = reloaded.find_tag("tag-7");
  ASSERT_NE(t7, nullptr);
  EXPECT_DOUBLE_EQ(t7->kd, tag.kd);
  EXPECT_DOUBLE_EQ(t7->bd, tag.bd);
  ASSERT_EQ(t7->residual_curve.size(), 3u);
  EXPECT_DOUBLE_EQ(t7->residual_curve[2], 0.035);
  ASSERT_NE(reloaded.find_tag("tag-9"), nullptr);
}

TEST(CalibrationIo, PipelineCalibrationsSurviveRoundTrip) {
  // End-to-end: calibrate a pipeline, persist, reload into a fresh
  // pipeline, and verify it senses identically.
  const Scene scene = make_scene_2d(202);
  RfPrismConfig config;
  config.geometry = testutil::exact_geometry(scene);
  RfPrism prism(config);
  const TagHardware tag = make_tag_hardware("t", 202);
  const ReferencePose reference{Vec3{1.0, 1.0, 0.0}, planar_polarization(0.0)};
  const TagState ref_state{reference.position, reference.polarization, "none"};
  Rng rng(1);
  prism.calibrate_reader(
      collect_round(scene, noiseless_reader(), noiseless_channel(),
                    make_tag_hardware("ref", 202), ref_state, 1, rng),
      reference);
  prism.calibrate_tag("t",
                      collect_round(scene, noiseless_reader(),
                                    noiseless_channel(), tag, ref_state, 2,
                                    rng),
                      reference);

  std::stringstream ss;
  write_calibrations(ss, prism.calibrations());
  RfPrism fresh(config);
  fresh.import_calibrations(read_calibrations(ss));

  const TagState state{Vec3{0.6, 1.4, 0.0}, planar_polarization(0.8), "glass"};
  Rng rng2(3);
  const RoundTrace round = collect_round(
      scene, noiseless_reader(), noiseless_channel(), tag, state, 3, rng2);
  const SensingResult a = prism.sense(round, "t");
  const SensingResult b = fresh.sense(round, "t");
  ASSERT_TRUE(a.valid && b.valid);
  EXPECT_EQ(a.position, b.position);
  EXPECT_DOUBLE_EQ(a.kt, b.kt);
  EXPECT_DOUBLE_EQ(a.bt, b.bt);
}

TEST(CalibrationIo, WhitespaceTagIdRejectedOnWrite) {
  CalibrationDB db;
  db.set_tag("bad id", TagCalibration{});
  std::stringstream ss;
  EXPECT_THROW(write_calibrations(ss, db), InvalidArgument);
}

TEST(CalibrationIo, RejectsBadHeader) {
  std::stringstream ss("wrong v1\n");
  EXPECT_THROW(read_calibrations(ss), Error);
}

TEST(CalibrationIo, RejectsTruncatedTags) {
  std::stringstream ss("rfprism-calibration v1\ntags 2\ntag a 0 0 0\n");
  EXPECT_THROW(read_calibrations(ss), Error);
}

TEST(GeometryIo, SurveyRoundTripsExactly) {
  const Scene scene = make_scene_2d(203);
  const DeploymentGeometry geometry = testutil::exact_geometry(scene);

  std::stringstream ss;
  write_geometry(ss, geometry);
  const DeploymentGeometry reloaded = read_geometry(ss);

  ASSERT_EQ(reloaded.n_antennas(), geometry.n_antennas());
  for (std::size_t a = 0; a < geometry.n_antennas(); ++a) {
    EXPECT_EQ(reloaded.antenna_positions[a], geometry.antenna_positions[a]);
    EXPECT_EQ(reloaded.antenna_frames[a].u, geometry.antenna_frames[a].u);
    EXPECT_EQ(reloaded.antenna_frames[a].v, geometry.antenna_frames[a].v);
    EXPECT_EQ(reloaded.antenna_frames[a].n, geometry.antenna_frames[a].n);
  }
  EXPECT_EQ(reloaded.working_region.lo, geometry.working_region.lo);
  EXPECT_EQ(reloaded.working_region.hi, geometry.working_region.hi);
  EXPECT_DOUBLE_EQ(reloaded.tag_plane_z, geometry.tag_plane_z);
}

TEST(GeometryIo, ReloadedSurveyBuildsAnIdenticalPipeline) {
  // The point of the format: a daemon serving a reloaded survey must
  // sense bit-identically to one built from the original.
  const Scene scene = make_scene_2d(204);
  RfPrismConfig config;
  config.geometry = testutil::exact_geometry(scene);

  std::stringstream ss;
  write_geometry(ss, config.geometry);
  RfPrismConfig reloaded_config = config;
  reloaded_config.geometry = read_geometry(ss);

  const RfPrism original(config);
  const RfPrism reloaded(reloaded_config);
  const TagHardware tag = make_tag_hardware("t", 204);
  const TagState state{Vec3{0.8, 1.1, 0.0}, planar_polarization(0.6), "oil"};
  Rng rng(4);
  const RoundTrace round = collect_round(
      scene, noiseless_reader(), noiseless_channel(), tag, state, 4, rng);
  const SensingResult a = original.sense(round);
  const SensingResult b = reloaded.sense(round);
  ASSERT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.position, b.position);
  EXPECT_DOUBLE_EQ(a.kt, b.kt);
}

TEST(GeometryIo, FileRoundTrip) {
  const Scene scene = make_scene_2d(205);
  const DeploymentGeometry geometry = testutil::exact_geometry(scene);
  const std::string path = testing::TempDir() + "/rfp_geom_test.txt";
  save_geometry(path, geometry);
  const DeploymentGeometry reloaded = load_geometry(path);
  ASSERT_EQ(reloaded.n_antennas(), geometry.n_antennas());
  EXPECT_EQ(reloaded.antenna_positions, geometry.antenna_positions);
}

TEST(GeometryIo, RejectsMalformedInput) {
  auto expect_rejected = [](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW(read_geometry(ss), Error) << text;
  };
  expect_rejected("not-a-geometry v1\n");
  expect_rejected("rfprism-geometry v9\nantennas 1\n");
  // Truncated antenna line.
  expect_rejected(
      "rfprism-geometry v1\nantennas 1\nantenna 0 0 1\n");
  // Non-finite position.
  expect_rejected(
      "rfprism-geometry v1\nantennas 1\n"
      "antenna nan 0 1 1 0 0 0 1 0 0 0 -1\n"
      "region 0 0 2 2\ntag-plane-z 0\n");
  // Missing region/tag-plane trailer.
  expect_rejected(
      "rfprism-geometry v1\nantennas 1\n"
      "antenna 0 0 1 1 0 0 0 1 0 0 0 -1\n");
}

TEST(GeometryIo, MissingFileThrows) {
  EXPECT_THROW(load_geometry("/nonexistent/path/site.geom"), Error);
}

}  // namespace
}  // namespace rfp
