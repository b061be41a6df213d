/// serve: the served sense, the ROADMAP's unit. Two client connections
/// against a loopback server, each a closed loop of pipelined windows of
/// 8 send_sense requests; every response is byte-checked against the
/// locally computed response of the tenant's pipeline.

#include <algorithm>
#include <latch>
#include <optional>
#include <thread>

#include "loopback.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/net/wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rfp;

constexpr std::size_t kWindow = 8;
constexpr std::size_t kCorpusPerTenant = 576;  // a multiple of kWindow
constexpr std::uint64_t kRequestBase = 2ull << 40;

struct Tenant {
  const Site* site = nullptr;
  std::vector<RoundTrace> rounds;
  std::vector<std::vector<std::uint8_t>> expected;  ///< response payloads
};

/// One served window as the traced run saw it.
struct Window {
  std::size_t tenant = 0;
  std::size_t index = 0;  ///< which kWindow-round slice of the corpus
  double ms = 0.0;
  double wait_ms = 0.0;  ///< time blocked in read_frame
};

struct ClientOutcome {
  Segment seg;
  Tracer tracer;
  std::vector<Window> windows;
};

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const Options& options)
      : sites_(make_loopback_sites(options.seed, options.corrupt)) {
    const RfPrism prism_a = calibrated_prism(sites_.a);
    const RfPrism prism_b = grafted_prism(prism_a, sites_.b);
    const Site* site[2] = {&sites_.a, &sites_.b};
    const RfPrism* prism[2] = {&prism_a, &prism_b};
    Rng rng(mix_seed(options.seed, 0x5E7E));
    for (std::size_t t = 0; t < 2; ++t) {
      Tenant& tenant = tenants_[t];
      tenant.site = site[t];
      const MaterialIdentifier identifier =
          train_identifier(*site[t], site[t]->bed->tag_id());
      for (std::size_t k = 0; k < kCorpusPerTenant; ++k) {
        Sample s = static_sample(*site[t]->bed, rng, k,
                                 mix_seed(options.seed, 0x5E7E + t, k));
        const SensingResult r =
            prism[t]->sense(s.round, site[t]->bed->tag_id());
        tally_.add(r, s.truth, identifier);
        tenant.expected.push_back(net::encode_sense_response(r));
        tenant.rounds.push_back(std::move(s.round));
      }
    }
    // The first window of connection 0 is the first one served.
    if (options.corrupt) tenants_[0].expected[0].back() ^= 0x01;
  }

  Segment setup(Tracer& tracer) override {
    teardown();
    Segment checks;
    loop_.emplace(sites_, /*reactors=*/2, tracer, checks);
    return checks;
  }

  void teardown() override { loop_.reset(); }

  Segment run(double seconds, Tracer& tracer) override {
    const net::ServerStats before = loop_->server().stats();
    ClientOutcome outcomes[2];
    const auto t0 = Clock::now();
    const std::int64_t start_ns = now_ns();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::thread threads[2];
    for (std::size_t c = 0; c < 2; ++c) {
      outcomes[c].tracer.enabled = tracer.enabled;
      if (tracer.enabled) outcomes[c].tracer.spans.reserve(1 << 16);
      threads[c] = std::thread(
          [&, c] { client_loop(c, start_ns, deadline, outcomes[c]); });
    }
    for (std::thread& t : threads) t.join();

    Segment seg;
    seg.elapsed_s = seconds_since(t0);
    windows_.clear();
    for (ClientOutcome& out : outcomes) {
      seg.attempted += out.seg.attempted;
      seg.failed += out.seg.failed;
      seg.completed += out.seg.completed;
      seg.latency_ms.insert(seg.latency_ms.end(), out.seg.latency_ms.begin(),
                            out.seg.latency_ms.end());
      seg.completions.insert(seg.completions.end(),
                             out.seg.completions.begin(),
                             out.seg.completions.end());
      merge_spans(tracer.spans, out.tracer.spans);
      windows_.insert(windows_.end(), out.windows.begin(), out.windows.end());
    }
    const net::ServerStats after = loop_->server().stats();
    const double responses =
        static_cast<double>(after.requests_completed - before.requests_completed);
    stats_delta_["server.writev_calls_per_response"] =
        responses > 0.0
            ? static_cast<double>(after.writev_calls - before.writev_calls) /
                  responses
            : kUnavailable;
    stats_delta_["server.backpressure_pauses"] = static_cast<double>(
        after.backpressure_pauses - before.backpressure_pauses);
    stats_delta_["server.pool_misses"] =
        static_cast<double>(after.pool_misses - before.pool_misses);
    return seg;
  }

  void probe_layers(Tracer& tracer, LayerValues& values) override {
    for (const auto& [name, value] : stats_delta_) values[name] = value;

    // The same windows solved in process, under the served run's
    // concurrency: two threads, one per tenant, each submitting its
    // window's rounds as one engine task per round (as the server does)
    // on the shared engine while the server idles. The served window
    // minus that is what serving added, without the other tenant's
    // solves counted as serving.
    const RfPrism prism_b = grafted_prism(loop_->prism(), sites_.b);
    const RfPrism* prism[2] = {&loop_->prism(), &prism_b};
    const std::size_t n_windows = kCorpusPerTenant / kWindow;
    // reps[t][w]: tenant t's window w, once per repetition.
    std::vector<std::vector<double>> reps[2];
    for (auto& tenant_reps : reps) tenant_reps.resize(n_windows);
    for (int rep = 0; rep < 3; ++rep) {
      std::thread threads[2];
      for (std::size_t t = 0; t < 2; ++t) {
        threads[t] = std::thread([&, t] {
          for (std::size_t w = 0; w < n_windows; ++w) {
            const std::int64_t t0 = now_ns();
            solve_window(*prism[t], tenants_[t], w * kWindow);
            reps[t][w].push_back(1e-6 * static_cast<double>(now_ns() - t0));
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
    }
    std::vector<double> overhead, wait;
    for (const Window& w : windows_) {
      overhead.push_back(w.ms - median_of(reps[w.tenant][w.index]));
      wait.push_back(w.wait_ms);
    }
    values["server.window_overhead_ms_p50"] = median_of(overhead);
    // Per window: the first read blocks for the whole solve, the rest
    // find their frames already buffered.
    values["client.wait_ms_p50"] = median_of(wait);

    // Codec calls on tenant A's corpus.
    std::vector<double> request_bytes;
    std::string tag_scratch;
    RoundTrace round_scratch;
    const Tenant& tenant = tenants_[0];
    const std::string& tag = tenant.site->bed->tag_id();
    for (std::size_t i = 0; i < tenant.rounds.size(); ++i) {
      const std::uint64_t request = kRequestBase + (2ull << 32) + i;
      std::vector<std::uint8_t> payload;
      {
        SpanScope span(tracer, "wire.encode_sense_request", request);
        payload = net::encode_sense_request(tag, tenant.rounds[i]);
      }
      request_bytes.push_back(static_cast<double>(payload.size()));
      {
        SpanScope span(tracer, "wire.decode_sense_request", request);
        (void)net::decode_sense_request(payload, tag_scratch, round_scratch);
      }
      SensingResult result;
      (void)net::decode_sense_response(tenant.expected[i], result);
      SpanScope span(tracer, "wire.encode_sense_response", request);
      (void)net::encode_sense_response(result);
    }
    values["wire.request_bytes"] = median_of(request_bytes);
  }

  void report_accuracy(Report& report) const override { tally_.report(report); }

 private:
  /// Solves rounds [first, first + kWindow) of `tenant`, one engine task
  /// per round, and returns when all are done.
  void solve_window(const RfPrism& prism, const Tenant& tenant,
                    std::size_t first) {
    std::latch done(static_cast<std::ptrdiff_t>(kWindow));
    const std::string& tag = tenant.site->bed->tag_id();
    SensingEngine& engine = loop_->engine();
    for (std::size_t d = 0; d < kWindow; ++d) {
      engine.submit([&, d] {
        try {
          (void)prism.sense(tenant.rounds[first + d], engine, tag);
        } catch (const std::exception&) {
          // Timing only; the served responses are checked elsewhere.
        }
        done.count_down();
      });
    }
    done.wait();
  }

  void client_loop(std::size_t c, std::int64_t start_ns,
                   Clock::time_point deadline, ClientOutcome& out) {
    const Tenant& tenant = tenants_[c];
    const std::string& tag = tenant.site->bed->tag_id();
    net::Client& client = loop_->client(c);
    Tracer& tr = out.tracer;
    const std::size_t n_windows = tenant.rounds.size() / kWindow;
    std::uint64_t next_request = kRequestBase + (c << 32);
    for (std::size_t w = 0; Clock::now() < deadline; ++w) {
      const std::size_t index = w % n_windows;
      const std::size_t first = index * kWindow;
      const std::int64_t window_span = tr.begin("serve.window", next_request);
      const std::int64_t w0 = now_ns();
      std::int64_t sent_at[kWindow];
      std::int64_t request_span[kWindow];
      std::size_t answered = 0;
      std::int64_t wait_ns = 0;
      try {
        for (std::size_t d = 0; d < kWindow; ++d) {
          const std::uint64_t request = next_request + d;
          sent_at[d] = now_ns();
          request_span[d] = tr.begin("serve.request", request, window_span);
          SpanScope span(tr, "client.send", request, request_span[d]);
          client.send_sense(tenant.rounds[first + d], tag);
        }
        for (; answered < kWindow; ++answered) {
          const std::size_t d = answered;
          net::Frame frame;
          const std::int64_t wait_start = now_ns();
          {
            SpanScope span(tr, "client.wait", next_request + d,
                           request_span[d]);
            frame = client.read_frame();
          }
          tr.end(request_span[d]);
          const std::int64_t done = now_ns();
          wait_ns += done - wait_start;
          ++out.seg.attempted;
          if (frame.type == net::FrameType::kSenseResponse &&
              frame.payload == tenant.expected[first + d]) {
            ++out.seg.completed;
            out.seg.latency_ms.push_back(1e-6 *
                                         static_cast<double>(done - sent_at[d]));
            out.seg.completions.push_back({1e-9 * (done - start_ns), 1});
          } else {
            ++out.seg.failed;
            report_mismatch("served response for round " +
                            std::to_string(first + d) + " on connection " +
                            std::to_string(c));
          }
        }
      } catch (const std::exception& e) {
        // The connection is no longer usable: the rest of the window is
        // lost and the client stops.
        out.seg.attempted += kWindow - answered;
        out.seg.failed += kWindow - answered;
        report_mismatch(std::string("serve client failed: ") + e.what());
        return;
      }
      tr.end(window_span);
      next_request += kWindow;
      if (tr.enabled) {
        out.windows.push_back({c, index,
                               1e-6 * static_cast<double>(now_ns() - w0),
                               1e-6 * static_cast<double>(wait_ns)});
      }
    }
  }

  LoopbackSites sites_;
  Tenant tenants_[2];
  AccuracyTally tally_;
  std::optional<Loopback> loop_;
  std::vector<Window> windows_;
  LayerValues stats_delta_;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const Options& options) {
  return std::make_unique<ServeWorkload>(options);
}

}  // namespace perfbench
