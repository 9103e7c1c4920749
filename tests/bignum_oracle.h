// The slow differential-test oracle for BigUint: the bit-serial `mod` and
// square-and-multiply `mod_exp` that the modexp golden model used before it
// went word-level (Knuth D + Montgomery).  Binary long division subtracts
// one aligned shift of the modulus per bit — small and obviously correct,
// so tests diff the fast code against it.  Kept verbatim apart from being
// free functions over BigUint's public interface.
#pragma once

#include "algorithms/bignum.h"
#include "common/error.h"

namespace aad::algorithms::oracle {

inline BigUint mod(const BigUint& a, const BigUint& m) {
  AAD_REQUIRE(!m.is_zero(), "modulus must be nonzero");
  if (BigUint::compare(a, m) < 0) return a;
  // Binary long division: subtract the largest aligned shift of m.
  BigUint rem = a;
  const std::size_t shift_max = a.bit_length() - m.bit_length();
  for (std::size_t s = shift_max + 1; s-- > 0;) {
    const BigUint shifted = m.shifted_left(s);
    if (BigUint::compare(rem, shifted) >= 0)
      rem = BigUint::sub(rem, shifted);
  }
  return rem;
}

inline BigUint mod_exp(const BigUint& base, const BigUint& exponent,
                       const BigUint& modulus) {
  AAD_REQUIRE(BigUint::compare(modulus, BigUint{1}) > 0,
              "modulus must exceed 1");
  BigUint result{1};
  BigUint acc = mod(base, modulus);
  const std::size_t bits = exponent.bit_length();
  for (std::size_t i = 0; i < bits; ++i) {
    if (exponent.bit(i)) result = mod(BigUint::mul(result, acc), modulus);
    acc = mod(BigUint::mul(acc, acc), modulus);
  }
  return result;
}

}  // namespace aad::algorithms::oracle
