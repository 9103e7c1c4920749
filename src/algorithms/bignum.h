// Unsigned big-integer arithmetic for the modular-exponentiation kernel
// (RSA-style workloads — the algorithm-agile crypto co-processors the paper
// builds on, refs [1][2], were motivated by exactly this).
//
// Little-endian 64-bit limbs, word-level throughout:
//  - `mod` is Knuth's Algorithm D (TAOCP vol. 2, 4.3.1): normalize so the
//    divisor's top bit is set, estimate each quotient word from the top two
//    dividend words, correct the estimate, multiply-subtract, add back on
//    the rare overshoot.
//  - `mod_exp` splits on the modulus's parity.  An odd modulus (every
//    RSA-shaped input, and everything `make_input` produces) runs
//    square-and-multiply in Montgomery form: CIOS multiplication on
//    fixed-width limb arrays sized to the modulus, all scratch allocated
//    once per call, R^2 mod m taken with one `mod`.  An even modulus has no
//    Montgomery inverse and falls to square-and-multiply over `mul` + `mod`.
// The pre-word-level bit-serial `mod` / `mod_exp` live on in
// tests/bignum_oracle.h as the slow differential-test oracle.  Simulated
// timing never depends on this code: the kernel's fabric and host costs are
// analytic (algorithms/kernels.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytebuffer.h"

namespace aad::algorithms {

class BigUint {
 public:
  BigUint() = default;
  explicit BigUint(std::uint64_t value);
  /// Little-endian byte import/export.
  static BigUint from_bytes(ByteSpan data);
  Bytes to_bytes(std::size_t width_bytes) const;

  bool is_zero() const noexcept { return limbs_.empty(); }
  std::size_t bit_length() const noexcept;
  bool bit(std::size_t index) const noexcept;

  static int compare(const BigUint& a, const BigUint& b) noexcept;
  bool operator==(const BigUint& other) const noexcept {
    return limbs_ == other.limbs_;
  }

  static BigUint add(const BigUint& a, const BigUint& b);
  /// a - b; requires a >= b.
  static BigUint sub(const BigUint& a, const BigUint& b);
  static BigUint mul(const BigUint& a, const BigUint& b);
  /// a mod m (Knuth Algorithm D); m must be nonzero.
  static BigUint mod(const BigUint& a, const BigUint& m);
  BigUint shifted_left(std::size_t bits) const;

  /// base^exponent mod modulus, fully reduced; modulus > 1.  Montgomery
  /// for an odd modulus, `mul` + `mod` for an even one.
  static BigUint mod_exp(const BigUint& base, const BigUint& exponent,
                         const BigUint& modulus);

 private:
  void trim();
  std::vector<std::uint64_t> limbs_;  // little-endian, no trailing zeros
};

/// Behavioral-kernel byte contract: input = base || exponent || modulus,
/// each `width` = input.size()/3 bytes little-endian; output = result,
/// `width` bytes.  Throws unless the size divides evenly and modulus > 1.
Bytes modexp_bytes(ByteSpan input);

}  // namespace aad::algorithms
