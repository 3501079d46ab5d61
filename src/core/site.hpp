// A test site: one bank within the stack, named the way the paper's
// methodology iterates (channel, pseudo channel, bank).
#pragma once

#include <string>

#include "hbm/address.hpp"

namespace rh::core {

struct Site {
  std::uint32_t channel = 0;
  std::uint32_t pseudo_channel = 0;
  std::uint32_t bank = 0;

  friend bool operator==(const Site&, const Site&) = default;

  [[nodiscard]] hbm::BankAddress bank_address() const {
    return hbm::BankAddress{channel, pseudo_channel, bank};
  }

  [[nodiscard]] std::string to_string() const {
    return "ch" + std::to_string(channel) + ".pc" + std::to_string(pseudo_channel) + ".b" +
           std::to_string(bank);
  }
};

}  // namespace rh::core
