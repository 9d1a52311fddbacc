// One simulated node: mobility + radio + MAC + tree protocol + application.
#pragma once

#include <memory>

#include "mac/mac_protocol.hpp"
#include "mobility/mobility.hpp"
#include "net/multicast_app.hpp"
#include "phy/radio.hpp"

namespace rmacsim {

enum class Protocol : std::uint8_t { kRmac, kBmmm, kDcf, kBmw, kMx, kLamm };

[[nodiscard]] const char* to_string(Protocol p) noexcept;

struct Node {
  NodeId id{kInvalidNode};
  std::unique_ptr<MobilityModel> mobility;
  std::unique_ptr<Radio> radio;
  std::unique_ptr<MacProtocol> mac;
  std::unique_ptr<BlessTree> tree;
  std::unique_ptr<MulticastApp> app;
};

}  // namespace rmacsim
