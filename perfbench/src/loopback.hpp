#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "harness.hpp"
#include "rfp/core/engine.hpp"
#include "rfp/net/client.hpp"
#include "rfp/net/server.hpp"

/// The loopback serving system shared by the serve and stream workloads:
/// one rfp::net::Server (engine sized to the machine) in this process and
/// two client connections. Connection 0 is bound to the server's default
/// deployment (site A); connection 1 ships site B with setup_session and
/// is bound to that tenant.

namespace perfbench {

/// Inputs every loopback set-up needs, built untimed.
struct LoopbackSites {
  Site a;  ///< the server's own deployment
  Site b;  ///< shipped over setup_session
  rfp::CalibrationDB b_calibrations;
  /// One round per connection for the cold sense, with its expected
  /// response payload.
  rfp::RoundTrace cold_round[2];
  std::vector<std::uint8_t> cold_expected[2];
};

/// Builds sites A (seed 42) and B (seed 7), both the default 3-antenna
/// planar rig, and the cold-sense references (connection 0's corrupted
/// when `corrupt` is set, for the self-test).
LoopbackSites make_loopback_sites(std::uint64_t seed, bool corrupt);

class Loopback {
 public:
  /// Timed set-up: calibrate the server's pipeline, start the engine and
  /// the server, connect both clients, open the session, and run one
  /// checked cold sense per connection.
  Loopback(const LoopbackSites& sites, std::size_t reactors, Tracer& tracer,
           Segment& checks);
  ~Loopback();
  Loopback(const Loopback&) = delete;
  Loopback& operator=(const Loopback&) = delete;

  const rfp::RfPrism& prism() const { return *prism_; }
  rfp::SensingEngine& engine() { return *engine_; }
  rfp::net::Server& server() { return *server_; }
  rfp::net::Client& client(std::size_t i) { return *clients_[i]; }

 private:
  std::unique_ptr<rfp::RfPrism> prism_;
  std::unique_ptr<rfp::SensingEngine> engine_;
  std::unique_ptr<rfp::net::Server> server_;
  std::optional<rfp::net::Client> clients_[2];
};

}  // namespace perfbench
