#pragma once

#include <optional>
#include <string>
#include <vector>

/// \file material.hpp
/// Material model for tag loading. Paper Fig. 6 / Eq. 5: attaching a tag to
/// a target detunes the tag antenna's impedance, shifting the
/// device-dependent phase theta_device(f) = kt * f + bt, with (kt, bt)
/// characteristic of the material. On top of the linear law, each material
/// leaves a small deterministic frequency-selective signature (the residual
/// the paper's per-channel feature theta_material(f) in Eq. 9 captures).

namespace rfp {

/// Electromagnetic loading profile of one target material.
struct Material {
  std::string name;

  /// Slope of the device phase vs frequency [rad/Hz] added by the loading.
  double kt = 0.0;

  /// Intercept of the device phase [rad] added by the loading.
  double bt = 0.0;

  /// Amplitude of the deterministic frequency-selective signature [rad].
  double ripple_amplitude = 0.0;

  /// Optional name of another material whose signature shape this one
  /// mostly shares (e.g. milk reuses water's: similar permittivity ->
  /// similar frequency response — the source of the paper's water/milk
  /// confusion, Fig. 11). When set, the signature is 75% the keyed shape
  /// plus a 25% own component.
  std::string signature_like = {};

  /// Extra backscatter power loss [dB] (absorption by the target).
  double attenuation_db = 0.0;

  /// Conductive targets (metal, water-based liquids) reflect strongly and
  /// raise the noise floor around the tag (paper §VI-C observes higher
  /// errors for metal and conductive liquids).
  bool conductive = false;

  /// Deterministic signature value at frequency f [rad]: a fixed sum of
  /// slow sinusoids seeded from the material name, scaled by
  /// ripple_amplitude. Smooth in f, zero-mean across the band.
  double signature(double frequency_hz) const;
};

/// Database of materials known to the simulator.
class MaterialDB {
 public:
  /// The 8 evaluation materials of the paper (wood, plastic, glass, metal,
  /// water, milk, oil, alcohol) plus "none" (bare tag).
  static MaterialDB standard();

  /// Empty database.
  MaterialDB() = default;

  /// Add or replace a material (keyed by name).
  void add(Material m);

  /// Lookup by name; throws NotFound if absent.
  const Material& get(const std::string& name) const;

  /// Lookup by name; nullopt if absent.
  std::optional<Material> find(const std::string& name) const;

  bool contains(const std::string& name) const;

  /// All material names in insertion order.
  std::vector<std::string> names() const;

  std::size_t size() const { return materials_.size(); }

 private:
  std::vector<Material> materials_;
};

}  // namespace rfp
