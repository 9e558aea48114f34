// Byte-level test helpers shared by every binary-format suite (SCWCWIRE
// frames, SCWCBNDL bundles, SCWC_RF1 forests, .scb datasets, .npz):
//
//   fnv1a64                  a fingerprint that pins a format's exact bytes
//   fuzz_every_flip          every single-byte flip under four XOR masks
//   expect_every_truncation_throws
//                            every strict prefix
//
// The decoding contract each format promises: any corrupted input either
// decodes cleanly (the flip hit a don't-care byte, e.g. inside a double)
// or throws a typed scwc::Error. Any other exception — bad_alloc from an
// uncapped length, out_of_range from unchecked indexing — escapes the
// harness and fails the calling test.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace scwc::bytes_test {

/// FNV-1a, 64-bit: the fingerprint every recorded-layout test pins.
inline std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Low bit, high bit, every bit, and a mixed pattern.
inline constexpr std::array<unsigned char, 4> kFlipMasks = {0x01, 0x80, 0xff,
                                                            0xa5};

struct FlipTally {
  std::size_t attempts = 0;
  std::size_t rejected = 0;  ///< typed scwc::Error
};

/// Runs `decode(std::string)` on every single-byte flip of `bytes` under
/// every mask in kFlipMasks and counts the typed rejections.
template <typename Decode>
FlipTally fuzz_every_flip(const std::string& bytes, Decode&& decode) {
  FlipTally tally;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const unsigned char mask : kFlipMasks) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      ++tally.attempts;
      try {
        (void)decode(mutated);
      } catch (const Error&) {
        ++tally.rejected;
      }
    }
  }
  return tally;
}

/// Every strict prefix of `bytes` must throw scwc::Error from `decode`.
template <typename Decode>
void expect_every_truncation_throws(const std::string& bytes,
                                    Decode&& decode,
                                    std::string_view label = "") {
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    EXPECT_THROW((void)decode(bytes.substr(0, keep)), Error)
        << label << " truncated to " << keep << " of " << bytes.size()
        << " bytes";
  }
}

}  // namespace scwc::bytes_test
