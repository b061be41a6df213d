#include "loopback.hpp"

#include "rfp/common/rng.hpp"
#include "rfp/net/wire.hpp"

namespace perfbench {

using namespace rfp;

LoopbackSites make_loopback_sites(std::uint64_t seed, bool corrupt) {
  LoopbackSites sites;
  TestbedConfig config;
  config.seed = 42;
  sites.a = make_site(config);
  config.seed = 7;
  sites.b = make_site(config);
  const RfPrism prism_a = calibrated_prism(sites.a);
  sites.b_calibrations = calibrated_prism(sites.b).calibrations();
  const RfPrism prism_b = grafted_prism(prism_a, sites.b);

  Rng rng(mix_seed(seed, 0xC01D));
  const Site* site[2] = {&sites.a, &sites.b};
  const RfPrism* prism[2] = {&prism_a, &prism_b};
  for (std::size_t c = 0; c < 2; ++c) {
    sites.cold_round[c] =
        static_sample(*site[c]->bed, rng, c, mix_seed(seed, 0xC01D, c)).round;
    sites.cold_expected[c] = net::encode_sense_response(
        prism[c]->sense(sites.cold_round[c], site[c]->bed->tag_id()));
  }
  if (corrupt) sites.cold_expected[0].back() ^= 0x01;
  return sites;
}

Loopback::Loopback(const LoopbackSites& sites, std::size_t reactors,
                   Tracer& tracer, Segment& checks) {
  prism_ = std::make_unique<RfPrism>(calibrated_prism(sites.a));
  engine_ = std::make_unique<SensingEngine>(0);
  net::ServerConfig server_config;
  server_config.reactors = reactors;
  server_ = std::make_unique<net::Server>(*prism_, *engine_, server_config);
  server_->start();

  net::ClientConfig client_config;
  client_config.port = server_->port();
  client_config.io_timeout_s = 30.0;
  client_config.request_attempts = 1;  // a retry would hide a fault
  for (std::size_t c = 0; c < 2; ++c) clients_[c].emplace(client_config);
  {
    static std::uint64_t setups = 0;  // one request id per set-up
    SpanScope span(tracer, "registry.setup_session", setups++);
    clients_[1]->setup_session(sites.b.bed->prism().config().geometry,
                               sites.b_calibrations);
  }

  // Cold sense per connection: builds each tenant's geometry cache.
  const Site* site[2] = {&sites.a, &sites.b};
  for (std::size_t c = 0; c < 2; ++c) {
    ++checks.attempted;
    try {
      if (clients_[c]->sense_raw(sites.cold_round[c],
                                 site[c]->bed->tag_id()) ==
          sites.cold_expected[c]) {
        ++checks.completed;
        continue;
      }
      report_mismatch("cold sense response differs on connection " +
                      std::to_string(c));
    } catch (const std::exception& e) {
      report_mismatch(std::string("cold sense failed: ") + e.what());
    }
    ++checks.failed;
  }
}

Loopback::~Loopback() {
  for (auto& client : clients_) client.reset();
  if (server_) server_->stop();
}

}  // namespace perfbench
