/// DeploymentRegistry: digest identity, tenant sharing, solver-settings
/// grafting, FIFO eviction of unpinned tenants, capacity exhaustion, and
/// the stats snapshot ordering operators rely on.

#include "rfp/core/deployment_registry.hpp"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/error.hpp"
#include "rfp/exp/testbed.hpp"

namespace rfp {
namespace {

/// Distinct 2D deployments come from distinct testbed seeds (survey noise
/// moves every antenna), so each bed ships a unique geometry+calibration.
const Testbed& bed_for_seed(std::uint64_t seed, std::size_t antennas = 0) {
  static std::vector<std::unique_ptr<Testbed>> beds;
  static std::vector<std::pair<std::uint64_t, std::size_t>> keys;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] == std::make_pair(seed, antennas)) return *beds[i];
  }
  TestbedConfig config;
  config.seed = seed;
  config.n_antennas = antennas;
  beds.push_back(std::make_unique<Testbed>(config));
  keys.emplace_back(seed, antennas);
  return *beds.back();
}

TEST(DeploymentRegistry, DigestIsDeterministicAndDiscriminates) {
  const Testbed& a = bed_for_seed(42);
  const Testbed& b = bed_for_seed(7);
  const auto digest_a = DeploymentRegistry::digest_of(
      a.prism().config().geometry, a.prism().calibrations());
  EXPECT_EQ(digest_a,
            DeploymentRegistry::digest_of(a.prism().config().geometry,
                                          a.prism().calibrations()));
  EXPECT_NE(digest_a,
            DeploymentRegistry::digest_of(b.prism().config().geometry,
                                          b.prism().calibrations()));
  // Calibration alone must also discriminate (same geometry, different
  // calibration database = a re-surveyed site).
  EXPECT_NE(digest_a,
            DeploymentRegistry::digest_of(a.prism().config().geometry,
                                          b.prism().calibrations()));
}

TEST(DeploymentRegistry, ByteEqualDeploymentsShareOneTenant) {
  const Testbed& a = bed_for_seed(42);
  const Testbed& b = bed_for_seed(7);
  DeploymentRegistry registry(8);
  registry.set_default(a.prism());

  const auto first = registry.acquire(b.prism().config().geometry,
                                      b.prism().calibrations());
  const auto second = registry.acquire(b.prism().config().geometry,
                                       b.prism().calibrations());
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(registry.size(), 2u);  // default + one session deployment
  EXPECT_FALSE(first->is_default());
  EXPECT_EQ(first->digest(),
            DeploymentRegistry::digest_of(b.prism().config().geometry,
                                          b.prism().calibrations()));
}

TEST(DeploymentRegistry, DefaultDeploymentResolvesToDefaultTenant) {
  // A session shipping the byte-equal default deployment lands on the
  // default tenant — no duplicate resident, same drift state.
  const Testbed& a = bed_for_seed(42);
  DeploymentRegistry registry(8);
  const auto def = registry.set_default(a.prism());
  const auto acquired = registry.acquire(a.prism().config().geometry,
                                         a.prism().calibrations());
  EXPECT_EQ(acquired.get(), def.get());
  EXPECT_TRUE(acquired->is_default());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(&acquired->prism(), &a.prism());  // borrowed, not copied
}

TEST(DeploymentRegistry, GraftKeepsServerSolverSettings) {
  // The shipped deployment replaces geometry + calibrations only; solver
  // modes stay the server's (a client cannot pick expensive modes).
  const Testbed& a = bed_for_seed(42);
  const Testbed& b = bed_for_seed(7);

  RfPrismConfig base = a.prism().config();
  base.disentangle.orientation_scan_steps = 360;
  base.disentangle.warm_start.enable = false;
  const RfPrism variant_prism = a.make_pipeline_variant(std::move(base));

  DeploymentRegistry registry(8);
  registry.set_default(variant_prism);
  const auto tenant = registry.acquire(b.prism().config().geometry,
                                       b.prism().calibrations());
  EXPECT_EQ(tenant->prism().config().disentangle.orientation_scan_steps,
            360u);
  EXPECT_FALSE(tenant->prism().config().disentangle.warm_start.enable);
  EXPECT_EQ(tenant->prism().config().geometry.n_antennas(),
            b.prism().config().geometry.n_antennas());
  EXPECT_EQ(tenant->prism().calibrations().n_tags(),
            b.prism().calibrations().n_tags());
}

TEST(DeploymentRegistry, EvictsOldestUnpinnedTenantAtCapacity) {
  const Testbed& base = bed_for_seed(42);
  const Testbed& b = bed_for_seed(7);
  const Testbed& c = bed_for_seed(9);
  const Testbed& d = bed_for_seed(11);
  DeploymentRegistry registry(3);  // default + two session slots
  registry.set_default(base.prism());

  auto tb = registry.acquire(b.prism().config().geometry,
                             b.prism().calibrations());
  auto tc = registry.acquire(c.prism().config().geometry,
                             c.prism().calibrations());
  ASSERT_EQ(registry.size(), 3u);

  const std::uint64_t digest_b = tb->digest();
  tb.reset();  // b is now unpinned (registry holds the only reference)

  // At capacity: acquiring d evicts b (the oldest unpinned), never c.
  auto td = registry.acquire(d.prism().config().geometry,
                             d.prism().calibrations());
  EXPECT_EQ(registry.size(), 3u);
  EXPECT_EQ(registry.evictions(), 1u);
  bool b_resident = false;
  for (const TenantStats& t : registry.stats()) {
    if (t.digest == digest_b) b_resident = true;
  }
  EXPECT_FALSE(b_resident);

  // Re-acquiring b builds a fresh tenant (state was dropped on eviction):
  // unpin d so there is an eviction candidate again.
  td.reset();
  auto tb2 = registry.acquire(b.prism().config().geometry,
                              b.prism().calibrations());
  EXPECT_EQ(tb2->digest(), digest_b);
  EXPECT_EQ(registry.evictions(), 2u);  // d gave way (c is still pinned)
}

TEST(DeploymentRegistry, ThrowsWhenEveryTenantIsPinned) {
  const Testbed& base = bed_for_seed(42);
  const Testbed& b = bed_for_seed(7);
  const Testbed& c = bed_for_seed(9);
  DeploymentRegistry registry(2);
  registry.set_default(base.prism());
  auto tb = registry.acquire(b.prism().config().geometry,
                             b.prism().calibrations());  // held: pinned
  EXPECT_THROW(registry.acquire(c.prism().config().geometry,
                                c.prism().calibrations()),
               Error);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.evictions(), 0u);

  // Releasing the pin frees the slot.
  tb.reset();
  EXPECT_NO_THROW(registry.acquire(c.prism().config().geometry,
                                   c.prism().calibrations()));
}

TEST(DeploymentRegistry, CalibrationAntennaMismatchIsInvalidArgument) {
  const Testbed& three = bed_for_seed(42);      // 3-antenna default rig
  const Testbed& four = bed_for_seed(42, 4);    // 4-antenna variant
  ASSERT_NE(three.prism().config().geometry.n_antennas(),
            four.prism().config().geometry.n_antennas());
  DeploymentRegistry registry(8);
  registry.set_default(three.prism());
  EXPECT_THROW(registry.acquire(four.prism().config().geometry,
                                three.prism().calibrations()),
               InvalidArgument);
}

TEST(DeploymentRegistry, PerTenantDriftIsIndependent) {
  const Testbed& a = bed_for_seed(42);
  const Testbed& b = bed_for_seed(7);
  DeploymentRegistry registry(8);
  const auto def = registry.set_default(a.prism());
  const auto tenant = registry.acquire(b.prism().config().geometry,
                                       b.prism().calibrations(),
                                       /*enable_drift=*/true);
  EXPECT_FALSE(def->drift_enabled());
  EXPECT_TRUE(tenant->drift_enabled());
  EXPECT_FALSE(tenant->drift_corrections().active);  // not warmed up

  // A later session of the same deployment must not reset drift state.
  const auto again = registry.acquire(b.prism().config().geometry,
                                      b.prism().calibrations(),
                                      /*enable_drift=*/false);
  EXPECT_EQ(again.get(), tenant.get());
  EXPECT_TRUE(again->drift_enabled());
}

TEST(DeploymentRegistry, StatsSnapshotPutsDefaultFirst) {
  const Testbed& a = bed_for_seed(42);
  const Testbed& b = bed_for_seed(7);
  const Testbed& c = bed_for_seed(9);
  DeploymentRegistry registry(8);
  registry.set_default(a.prism());
  auto tb = registry.acquire(b.prism().config().geometry,
                             b.prism().calibrations());
  auto tc = registry.acquire(c.prism().config().geometry,
                             c.prism().calibrations());
  tb->count_session_opened();
  tb->count_request(false);
  tb->count_request(true);
  tb->count_stream(10, 2);

  const std::vector<TenantStats> stats = registry.stats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_TRUE(stats[0].is_default);
  EXPECT_LT(stats[1].digest, stats[2].digest);  // ascending after default
  for (const TenantStats& t : stats) {
    if (t.digest != tb->digest()) continue;
    EXPECT_EQ(t.sessions_opened, 1u);
    EXPECT_EQ(t.requests_completed, 1u);
    EXPECT_EQ(t.requests_failed, 1u);
    EXPECT_EQ(t.stream_reads, 10u);
    EXPECT_EQ(t.stream_emissions, 2u);
  }
}

}  // namespace
}  // namespace rfp
