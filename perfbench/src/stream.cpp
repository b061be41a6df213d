/// stream: two loopback streaming sessions, each replaying an interleaved
/// multi-tag reader stream through Client::push_stream on a fixed
/// wall-clock schedule (open loop, one push in flight per connection).
/// Every response is byte-checked against a local StreamingSensor fed the
/// same pushes.

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>

#include "loopback.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/core/streaming.hpp"
#include "rfp/net/wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rfp;

// Each connection keeps kInFlight tags' rounds in flight, staggered so one
// starts every round_duration / kInFlight; every tag id is read for one
// round only. A push carries one 1/kSlicesPerRound slice of stream time
// and is due every kPushPeriodS of wall time. With kInFlight ==
// kSlicesPerRound every push carries about one round's reads (3,600) and
// completes one round, so push latency has one mode: 180k reads/s and
// 50 rounds/s per connection.
constexpr std::size_t kInFlight = 16;
constexpr std::size_t kSlicesPerRound = 16;
constexpr double kPushPeriodS = 0.020;
constexpr std::size_t kCorpusPerConnection = 384;
// Pushes before the first rounds complete; sent and checked, not measured.
constexpr std::size_t kWarmupPushes = 20;
constexpr std::uint64_t kRequestBase = 3ull << 40;

struct Connection {
  std::size_t index = 0;
  std::vector<RoundTrace> corpus;
  std::vector<Truth> truths;
  double round_s = 0.0;  ///< stream time one round spans
  /// Per push: expected kStreamResults payload and rounds it emits.
  std::vector<std::vector<std::uint8_t>> expected;
  std::vector<std::size_t> emitted;
  std::size_t cursor = 0;  ///< next push to send

  double slice_s() const { return round_s / kSlicesPerRound; }

  /// The reads of push `j`, interleaved across tags by time; returns the
  /// stream time the push is evaluated at.
  double build_push(std::size_t j, std::vector<TagRead>& reads) const {
    reads.clear();
    const double spacing = round_s / kInFlight;
    const double lo = static_cast<double>(j) * slice_s();
    const double hi = lo + slice_s();
    const std::size_t k_first =
        lo > round_s ? static_cast<std::size_t>((lo - round_s) / spacing) : 0;
    const auto k_last = static_cast<std::size_t>(hi / spacing);
    for (std::size_t k = k_first; k <= k_last; ++k) {
      const double start = static_cast<double>(k) * spacing;
      const RoundTrace& round = corpus[k % corpus.size()];
      const std::string tag =
          "c" + std::to_string(index) + "-" + std::to_string(k);
      for (const Dwell& dwell : round.dwells) {
        const double t = start + dwell.start_time_s;
        if (t < lo || t >= hi) continue;
        for (std::size_t i = 0; i < dwell.phases.size(); ++i) {
          TagRead read;
          read.tag_id = tag;
          read.antenna = dwell.antenna;
          read.channel = dwell.channel;
          read.frequency_hz = dwell.frequency_hz;
          read.time_s = t + 1e-3 * static_cast<double>(i);
          read.phase = dwell.phases[i];
          read.rssi_dbm = i < dwell.rssi_dbm.size() ? dwell.rssi_dbm[i] : 0.0;
          reads.push_back(std::move(read));
        }
      }
    }
    std::stable_sort(reads.begin(), reads.end(),
                     [](const TagRead& a, const TagRead& b) {
                       return a.time_s < b.time_s;
                     });
    return hi;
  }

  /// The round index k of a stream tag id "c<connection>-<k>".
  static std::size_t round_of(const std::string& tag_id) {
    return std::stoull(tag_id.substr(tag_id.find('-') + 1));
  }
};

struct ConnectionOutcome {
  Segment seg;
  Tracer tracer;
  std::vector<double> late_ms;
  /// Due time of the first measured push and end of the last response.
  std::int64_t first_due_ns = 0;
  std::int64_t last_done_ns = 0;
  /// (response time, rounds emitted) of each measured push.
  std::vector<std::pair<std::int64_t, std::uint64_t>> done;
};

class StreamWorkload final : public Workload {
 public:
  StreamWorkload(const Options& options, double total_seconds)
      : sites_(make_loopback_sites(options.seed, options.corrupt)) {
    const RfPrism prism_a = calibrated_prism(sites_.a);
    const RfPrism prism_b = grafted_prism(prism_a, sites_.b);
    const Site* site[2] = {&sites_.a, &sites_.b};
    const RfPrism* prism[2] = {&prism_a, &prism_b};
    const std::size_t n_pushes =
        kWarmupPushes +
        static_cast<std::size_t>(std::ceil(total_seconds / kPushPeriodS)) + 1;
    Rng rng(mix_seed(options.seed, 0x57EA));
    for (std::size_t c = 0; c < 2; ++c) {
      Connection& conn = conns_[c];
      conn.index = c;
      for (std::size_t k = 0; k < kCorpusPerConnection; ++k) {
        Sample s = static_sample(*site[c]->bed, rng, k,
                                 mix_seed(options.seed, 0x57EA + c, k));
        conn.corpus.push_back(std::move(s.round));
        conn.truths.push_back(std::move(s.truth));
      }
      conn.round_s = conn.corpus.front().duration_s;

      // Stream tag ids carry no device calibration, so the material
      // identifier learns uncalibrated features.
      const MaterialIdentifier identifier = train_identifier(*site[c], "");
      StreamingSensor local(*prism[c], net::ServerConfig{}.stream);
      std::vector<TagRead> reads;
      for (std::size_t j = 0; j < n_pushes; ++j) {
        const double now = conn.build_push(j, reads);
        local.push(reads);
        const std::vector<StreamedResult> results = local.poll(now);
        for (const StreamedResult& r : results) {
          // Accuracy counts each corpus round once, so it does not depend
          // on how long the schedule runs.
          const std::size_t k = conn.round_of(r.tag_id);
          if (k < conn.corpus.size()) {
            tally_.add(r.result, conn.truths[k], identifier);
          }
        }
        conn.expected.push_back(net::encode_stream_results(results));
        conn.emitted.push_back(results.size());
      }
    }
    // The first measured push of connection 0.
    if (options.corrupt) conns_[0].expected[kWarmupPushes].back() ^= 0x01;
  }

  Segment setup(Tracer& tracer) override {
    teardown();
    Segment checks;
    // One reactor: at the seed, two reactors streaming at once both solve
    // on the engine's single caller-thread workspace (a data race that
    // corrupts results), so the sessions share one reactor thread.
    // Connection 1 pushes half a period after connection 0.
    loop_.emplace(sites_, /*reactors=*/1, tracer, checks);
    for (Connection& conn : conns_) conn.cursor = 0;
    return checks;
  }

  void teardown() override { loop_.reset(); }

  Segment run(double seconds, Tracer& tracer) override {
    auto measured =
        static_cast<std::size_t>(std::llround(seconds / kPushPeriodS));
    const std::size_t warmup = conns_[0].cursor == 0 ? kWarmupPushes : 0;
    // The schedule was sized for total_seconds; never run past its end.
    const std::size_t left = conns_[0].expected.size() - conns_[0].cursor;
    measured = std::min(measured, left > warmup ? left - warmup : 0);
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kPushPeriodS));
    const auto t0 = Clock::now() + std::chrono::milliseconds(5);
    ConnectionOutcome outcomes[2];
    std::thread threads[2];
    for (std::size_t c = 0; c < 2; ++c) {
      outcomes[c].tracer.enabled = tracer.enabled;
      if (tracer.enabled) outcomes[c].tracer.spans.reserve(1 << 14);
      const auto start = t0 + (period / 2) * static_cast<int>(c);
      threads[c] = std::thread([&, c, start] {
        push_loop(conns_[c], loop_->client(c), start, period, warmup,
                  measured, outcomes[c]);
      });
    }
    for (std::thread& t : threads) t.join();

    Segment seg;
    const std::int64_t first_due =
        std::min(outcomes[0].first_due_ns, outcomes[1].first_due_ns);
    const std::int64_t last_done =
        std::max(outcomes[0].last_done_ns, outcomes[1].last_done_ns);
    seg.elapsed_s = 1e-9 * static_cast<double>(last_done - first_due);
    late_ms_.clear();
    for (ConnectionOutcome& out : outcomes) {
      seg.attempted += out.seg.attempted;
      seg.failed += out.seg.failed;
      seg.completed += out.seg.completed;
      seg.latency_ms.insert(seg.latency_ms.end(), out.seg.latency_ms.begin(),
                            out.seg.latency_ms.end());
      late_ms_.insert(late_ms_.end(), out.late_ms.begin(), out.late_ms.end());
      for (const auto& [t, n] : out.done) {
        seg.completions.push_back({1e-9 * static_cast<double>(t - first_due), n});
      }
      merge_spans(tracer.spans, out.tracer.spans);
    }
    return seg;
  }

  void probe_layers(Tracer& tracer, LayerValues& values) override {
    values["loadgen.late_p99_ms"] = percentile_of(late_ms_, 99.0);

    // Connection 0's schedule replayed into a local sensor, timing the
    // sensor's push and poll and the codec's decode of each push.
    const Connection& conn = conns_[0];
    StreamingSensor local(loop_->prism(), net::ServerConfig{}.stream);
    std::vector<TagRead> reads, decoded;
    std::vector<double> push_us, poll_ms, decode_us;
    for (std::size_t j = 0; j < conn.expected.size(); ++j) {
      const std::uint64_t request = kRequestBase + (1ull << 32) + j;
      const double now = conn.build_push(j, reads);
      const double kreads = 1e-3 * static_cast<double>(reads.size());
      const std::vector<std::uint8_t> payload =
          net::encode_stream_push(now, reads);
      double decoded_now = 0.0;
      std::int64_t t0 = now_ns();
      {
        SpanScope span(tracer, "wire.decode_stream_push", request);
        (void)net::decode_stream_push(payload, decoded_now, decoded);
      }
      std::int64_t t1 = now_ns();
      {
        SpanScope span(tracer, "streaming.push", request);
        local.push(reads);
      }
      std::int64_t t2 = now_ns();
      std::size_t emitted = 0;
      {
        SpanScope span(tracer, "streaming.poll", request);
        emitted = local.poll(now).size();
      }
      std::int64_t t3 = now_ns();
      if (j < kWarmupPushes || kreads == 0.0) continue;
      decode_us.push_back(1e-3 * static_cast<double>(t1 - t0) / kreads);
      push_us.push_back(1e-3 * static_cast<double>(t2 - t1) / kreads);
      if (emitted > 0) {
        poll_ms.push_back(1e-6 * static_cast<double>(t3 - t2) /
                          static_cast<double>(emitted));
      }
    }
    const StreamingStats& stats = local.stats();
    values["wire.decode_stream_push_us_per_kread"] = median_of(decode_us);
    values["streaming.push_us_per_kread"] = median_of(push_us);
    values["streaming.poll_ms_per_round"] = median_of(poll_ms);
    values["streaming.reads_dropped"] = static_cast<double>(
        stats.duplicates_dropped + stats.stale_dropped +
        stats.pool_cap_evictions);
  }

  void report_accuracy(Report& report) const override { tally_.report(report); }

 private:
  void push_loop(Connection& conn, net::Client& client,
                 Clock::time_point start, Clock::duration period,
                 std::size_t warmup, std::size_t measured,
                 ConnectionOutcome& out) {
    Tracer& tr = out.tracer;
    std::vector<TagRead> reads;
    for (std::size_t r = 0; r < warmup + measured; ++r) {
      const std::size_t j = conn.cursor++;
      const bool timed = r >= warmup;
      const double now = conn.build_push(j, reads);
      const Clock::time_point due = start + period * static_cast<int>(r);
      std::this_thread::sleep_until(due);
      const std::int64_t due_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              due.time_since_epoch())
              .count();
      const std::int64_t sent_ns = now_ns();
      if (r == warmup) out.first_due_ns = due_ns;
      const std::uint64_t request =
          kRequestBase + (static_cast<std::uint64_t>(conn.index) << 32) + j;
      ++out.seg.attempted;
      std::vector<std::uint8_t> response;
      std::int64_t call_span = -1;
      try {
        call_span = tr.begin("client.push", request);
        response = client.push_stream_raw(reads, now);
        tr.end(call_span);
      } catch (const net::RemoteError& e) {
        // An error frame: the connection is intact, carry on.
        tr.end(call_span);
        ++out.seg.failed;
        report_mismatch(std::string("stream push answered with an error: ") +
                        e.what());
        continue;
      } catch (const std::exception& e) {
        const std::size_t lost = warmup + measured - r;
        out.seg.attempted += lost - 1;
        out.seg.failed += lost;
        report_mismatch(std::string("stream client failed: ") + e.what());
        return;
      }
      const std::int64_t done_ns = now_ns();
      if (timed) out.last_done_ns = done_ns;
      const std::int64_t push_span =
          tr.record("stream.push", request, due_ns, done_ns);
      if (call_span >= 0) tr.spans[call_span].parent = push_span;
      if (response != conn.expected[j]) {
        ++out.seg.failed;
        report_mismatch("stream push " + std::to_string(j) +
                        " response differs on connection " +
                        std::to_string(conn.index));
        continue;
      }
      if (!timed) continue;
      out.seg.completed += conn.emitted[j];
      out.done.push_back({done_ns, conn.emitted[j]});
      out.seg.latency_ms.push_back(1e-6 *
                                   static_cast<double>(done_ns - due_ns));
      out.late_ms.push_back(1e-6 * static_cast<double>(sent_ns - due_ns));
    }
  }

  LoopbackSites sites_;
  Connection conns_[2];
  AccuracyTally tally_;
  std::optional<Loopback> loop_;
  std::vector<double> late_ms_;
};

}  // namespace

std::unique_ptr<Workload> make_stream(const Options& options,
                                      double total_seconds) {
  return std::make_unique<StreamWorkload>(options, total_seconds);
}

}  // namespace perfbench
