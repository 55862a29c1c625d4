#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "asu/params.hpp"

namespace lmas::asu {

/// One interconnect tier of a hierarchical machine: the latency a message
/// pays to traverse it, the raw bandwidth of one link at this tier, and an
/// oversubscription factor (the ratio of attached demand to uplink
/// capacity — 4.0 means four racks' worth of traffic contends for one
/// rack's worth of spine bandwidth, charged as a 4x longer occupancy of
/// the shared uplink).
struct TierSpec {
  double latency = 0;          ///< seconds per message through this tier
  double bandwidth = 0;        ///< bytes/second of one link at this tier
  double oversubscription = 1.0;  ///< effective capacity divisor (>= 1 typical)

  /// Occupancy charged on a link of this tier for `bytes`. With
  /// oversubscription 1.0 this multiplies by exactly 1.0, so a flat
  /// topology reproduces MachineParams::link_seconds bit-for-bit.
  [[nodiscard]] double seconds(std::size_t bytes) const noexcept {
    return double(bytes) * oversubscription / bandwidth;
  }
};

/// Hierarchical machine description: the flat MachineParams plus the
/// interconnect shape above the (host, ASU) leaf links. Nodes are block-
/// partitioned into `racks` leaf groups; a transfer inside one rack pays
/// the rack tier only (exactly the paper's flat full-bisection model when
/// racks == 1), a cross-rack transfer additionally traverses the
/// oversubscribed spine — both directions' rack uplinks plus the spine's
/// latency. Per-node speed multipliers replace the single global host/ASU
/// speed ratio (per-node c): empty vectors mean a homogeneous machine and
/// multiply node speeds by exactly 1.0.
///
/// `TopologySpec::flat(params)` is the compatibility adapter: every
/// pre-topology entry point (Cluster/Network from bare MachineParams)
/// routes through it, and its behavior is byte-identical to the flat
/// model it replaces — same resources, same charges, same latencies, no
/// extra RNG draws — so the pinned golden digests stand.
struct TopologySpec {
  MachineParams machine;

  /// Leaf groups. Hosts and ASUs are independently block-partitioned into
  /// this many racks (rack_of_host / rack_of_asu); 1 = flat.
  unsigned racks = 1;

  /// Leaf tier: the dedicated (host, ASU) links inside a rack. flat()
  /// seeds it from machine.link_{latency,bandwidth}.
  TierSpec rack;

  /// Cross-rack tier: each rack owns one shared spine uplink of
  /// `spine.bandwidth / spine.oversubscription` effective capacity.
  /// Unused (and never instantiated as resources) when racks == 1.
  TierSpec spine;

  /// Per-node speed multipliers scaling the base node speed (hosts: 1.0;
  /// ASUs: (1 - background) / c). Empty = homogeneous (all 1.0).
  std::vector<double> host_speed;
  std::vector<double> asu_speed;

  [[nodiscard]] static TopologySpec flat(const MachineParams& params) {
    TopologySpec t;
    t.machine = params;
    t.racks = 1;
    t.rack = TierSpec{.latency = params.link_latency,
                      .bandwidth = params.link_bandwidth,
                      .oversubscription = 1.0};
    t.spine = TierSpec{.latency = 0, .bandwidth = 0, .oversubscription = 1.0};
    return t;
  }

  [[nodiscard]] bool hierarchical() const noexcept { return racks > 1; }

  /// Block partition of hosts (resp. ASUs) over racks: contiguous,
  /// balanced to within one node. Safe for any racks >= 1, including
  /// racks > node count (some racks simply hold no nodes of that kind).
  [[nodiscard]] unsigned rack_of_host(unsigned h) const noexcept {
    return rack_of(h, machine.num_hosts);
  }
  [[nodiscard]] unsigned rack_of_asu(unsigned a) const noexcept {
    return rack_of(a, machine.num_asus);
  }

  [[nodiscard]] double host_multiplier(unsigned h) const {
    return host_speed.empty() ? 1.0 : host_speed.at(h);
  }
  [[nodiscard]] double asu_multiplier(unsigned a) const {
    return asu_speed.empty() ? 1.0 : asu_speed.at(a);
  }

  /// Propagation latency of the full path between two racks: every
  /// transfer pays the rack tier; a cross-rack one adds the spine hop.
  [[nodiscard]] double path_latency(unsigned rack_a,
                                    unsigned rack_b) const noexcept {
    return rack_a == rack_b ? rack.latency : rack.latency + spine.latency;
  }

  /// Throw std::invalid_argument on an unusable shape. Cluster/Network
  /// call this at construction so a bad spec fails loudly, not as NaN
  /// charges mid-run.
  void validate() const {
    if (racks == 0) throw std::invalid_argument("TopologySpec: racks == 0");
    check_tier("rack", rack);
    if (hierarchical()) check_tier("spine", spine);
    check_speeds("host_speed", host_speed, machine.num_hosts);
    check_speeds("asu_speed", asu_speed, machine.num_asus);
  }

 private:
  [[nodiscard]] unsigned rack_of(unsigned i, unsigned count) const noexcept {
    if (count == 0) return 0;
    const auto r = unsigned(std::size_t(i) * racks / count);
    return r < racks ? r : racks - 1;
  }

  static void check_tier(const char* name, const TierSpec& t) {
    if (!(t.bandwidth > 0) || !(t.latency >= 0) || !(t.oversubscription > 0)) {
      throw std::invalid_argument(
          std::string("TopologySpec: tier '") + name +
          "' needs bandwidth > 0, latency >= 0, oversubscription > 0");
    }
  }
  static void check_speeds(const char* name, const std::vector<double>& v,
                           unsigned count) {
    if (!v.empty() && v.size() != count) {
      throw std::invalid_argument(std::string("TopologySpec: ") + name +
                                  " size must be 0 or the node count");
    }
    for (double s : v) {
      if (!(s > 0)) {
        throw std::invalid_argument(std::string("TopologySpec: ") + name +
                                    " entries must be > 0");
      }
    }
  }
};

}  // namespace lmas::asu
