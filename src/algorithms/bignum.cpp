#include "algorithms/bignum.h"

#include <algorithm>
#include <bit>
#include <span>

#include "common/error.h"

namespace aad::algorithms {
namespace {

using Limb = std::uint64_t;
__extension__ typedef unsigned __int128 Wide;  // a double-limb product

constexpr unsigned kLimbBits = 64;

Limb lo(Wide w) { return static_cast<Limb>(w); }
Limb hi(Wide w) { return static_cast<Limb>(w >> kLimbBits); }

/// out = in << s for 0 <= s < 64; returns the bits shifted out of the top.
Limb shift_left(std::span<const Limb> in, unsigned s, Limb* out) {
  if (s == 0) {
    std::copy(in.begin(), in.end(), out);
    return 0;
  }
  Limb carry = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = (in[i] << s) | carry;
    carry = in[i] >> (kLimbBits - s);
  }
  return carry;
}

/// r = u mod v by Knuth's Algorithm D.  v.back() != 0, u.size() >= v.size(),
/// r has v.size() limbs.
void knuth_remainder(std::span<const Limb> u, std::span<const Limb> v,
                     std::span<Limb> r) {
  const std::size_t n = v.size();
  const std::size_t m = u.size();
  if (n == 1) {  // short division, one limb at a time
    Limb rem = 0;
    for (std::size_t i = m; i-- > 0;)
      rem = static_cast<Limb>(((Wide{rem} << kLimbBits) | u[i]) % v[0]);
    r[0] = rem;
    return;
  }
  // D1: normalize so the divisor's top bit is set; the dividend gains a limb.
  const auto s = static_cast<unsigned>(std::countl_zero(v[n - 1]));
  std::vector<Limb> vn(n), un(m + 1);
  shift_left(v, s, vn.data());
  un[m] = shift_left(u, s, un.data());

  for (std::size_t j = m - n + 1; j-- > 0;) {
    // D3: estimate the quotient word from the window's top two limbs, then
    // correct it against the divisor's second limb (at most twice).
    const Wide top = (Wide{un[j + n]} << kLimbBits) | un[j + n - 1];
    Wide qhat = top / vn[n - 1];
    Wide rhat = top % vn[n - 1];
    while (hi(qhat) != 0 ||
           qhat * vn[n - 2] > ((rhat << kLimbBits) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (hi(rhat) != 0) break;
    }
    // D4: un[j .. j+n] -= qhat * vn.
    Limb carry = 0;
    Limb borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Wide p = qhat * vn[i] + carry;
      carry = hi(p);
      const Limb d = un[i + j] - lo(p);
      const Limb under = un[i + j] < lo(p);
      un[i + j] = d - borrow;
      borrow = under | (d < borrow);
    }
    const Limb d = un[j + n] - carry;
    const Limb under = un[j + n] < carry;
    un[j + n] = d - borrow;
    if (under | (d < borrow)) {
      // D6: qhat was one too large (rare); add the divisor back.
      carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const Wide sum = Wide{un[i + j]} + vn[i] + carry;
        un[i + j] = lo(sum);
        carry = hi(sum);
      }
      un[j + n] += carry;
    }
  }
  // D8: the remainder is un[0 .. n), shifted back down by s.
  for (std::size_t i = 0; i < n; ++i)
    r[i] = s == 0 ? un[i]
                  : (un[i] >> s) | (un[i + 1] << (kLimbBits - s));
}

/// -m0^-1 mod 2^64 for odd m0.  m0 is its own inverse mod 8; each Newton
/// step x *= 2 - m0*x doubles the correct low bits (3 -> 96 in five).
Limb neg_inverse(Limb m0) {
  Limb x = m0;
  for (int i = 0; i < 5; ++i) x *= 2 - m0 * x;
  return 0 - x;
}

/// out = a * b / R mod m with R = 2^(64n), fully reduced, for a, b < m and
/// odd m.  CIOS, its multiply and reduce loops fused: each outer step adds
/// a * b[i] and the multiple q * m that clears the low limb, then drops that
/// limb.  t is n + 1 limbs of scratch; out may alias a or b.
void mont_mul(const Limb* a, const Limb* b, const Limb* m, Limb m_inv,
              std::size_t n, Limb* t, Limb* out) {
  std::fill(t, t + n + 1, Limb{0});
  for (std::size_t i = 0; i < n; ++i) {
    Wide prod = Wide{a[0]} * b[i] + t[0];
    Limb prod_carry = hi(prod);
    const Limb q = lo(prod) * m_inv;
    Wide red = Wide{q} * m[0] + lo(prod);
    Limb red_carry = hi(red);
    for (std::size_t j = 1; j < n; ++j) {
      prod = Wide{a[j]} * b[i] + t[j] + prod_carry;
      prod_carry = hi(prod);
      red = Wide{q} * m[j] + lo(prod) + red_carry;
      red_carry = hi(red);
      t[j - 1] = lo(red);
    }
    const Wide top = Wide{t[n]} + prod_carry + red_carry;
    t[n - 1] = lo(top);
    t[n] = hi(top);
  }
  // t < 2m here: one conditional subtraction reduces it fully.
  Limb borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const Limb d = t[j] - m[j];
    const Limb under = t[j] < m[j];
    out[j] = d - borrow;
    borrow = under | (d < borrow);
  }
  if (borrow > t[n]) std::copy(t, t + n, out);  // t < m: keep it
}

}  // namespace

BigUint::BigUint(std::uint64_t value) {
  if (value != 0) limbs_.push_back(value);
}

void BigUint::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint BigUint::from_bytes(ByteSpan data) {
  BigUint out;
  out.limbs_.resize((data.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < data.size(); ++i)
    out.limbs_[i / 8] |= static_cast<Limb>(data[i]) << (8 * (i % 8));
  out.trim();
  return out;
}

Bytes BigUint::to_bytes(std::size_t width_bytes) const {
  Bytes out(width_bytes, 0);
  for (std::size_t i = 0; i < width_bytes && i / 8 < limbs_.size(); ++i)
    out[i] = static_cast<Byte>(limbs_[i / 8] >> (8 * (i % 8)));
  return out;
}

std::size_t BigUint::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  return limbs_.size() * kLimbBits -
         static_cast<std::size_t>(std::countl_zero(limbs_.back()));
}

bool BigUint::bit(std::size_t index) const noexcept {
  const std::size_t limb = index / kLimbBits;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (index % kLimbBits)) & 1u;
}

int BigUint::compare(const BigUint& a, const BigUint& b) noexcept {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUint BigUint::add(const BigUint& a, const BigUint& b) {
  BigUint out;
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  Limb carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Wide sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = lo(sum);
    carry = hi(sum);
  }
  out.limbs_[n] = carry;
  out.trim();
  return out;
}

BigUint BigUint::sub(const BigUint& a, const BigUint& b) {
  AAD_REQUIRE(compare(a, b) >= 0, "BigUint::sub would underflow");
  BigUint out;
  out.limbs_.resize(a.limbs_.size(), 0);
  Limb borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    const Limb rhs = i < b.limbs_.size() ? b.limbs_[i] : 0;
    const Limb d = a.limbs_[i] - rhs;
    const Limb under = a.limbs_[i] < rhs;
    out.limbs_[i] = d - borrow;
    borrow = under | (d < borrow);
  }
  out.trim();
  return out;
}

BigUint BigUint::mul(const BigUint& a, const BigUint& b) {
  if (a.is_zero() || b.is_zero()) return BigUint{};
  BigUint out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    Limb carry = 0;
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      const Wide cur =
          Wide{a.limbs_[i]} * b.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = lo(cur);
      carry = hi(cur);
    }
    out.limbs_[i + b.limbs_.size()] = carry;
  }
  out.trim();
  return out;
}

BigUint BigUint::shifted_left(std::size_t bits) const {
  if (is_zero()) return BigUint{};
  const std::size_t limb_shift = bits / kLimbBits;
  const unsigned bit_shift = bits % kLimbBits;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= limbs_[i] << bit_shift;
    if (bit_shift != 0)
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (kLimbBits - bit_shift);
  }
  out.trim();
  return out;
}

BigUint BigUint::mod(const BigUint& a, const BigUint& m) {
  AAD_REQUIRE(!m.is_zero(), "modulus must be nonzero");
  if (compare(a, m) < 0) return a;
  BigUint rem;
  rem.limbs_.resize(m.limbs_.size());
  knuth_remainder(a.limbs_, m.limbs_, rem.limbs_);
  rem.trim();
  return rem;
}

BigUint BigUint::mod_exp(const BigUint& base, const BigUint& exponent,
                         const BigUint& modulus) {
  AAD_REQUIRE(compare(modulus, BigUint{1}) > 0, "modulus must exceed 1");
  if (!modulus.bit(0)) {
    // An even modulus has no Montgomery inverse: square-and-multiply.
    BigUint result{1};
    BigUint acc = mod(base, modulus);
    const std::size_t bits = exponent.bit_length();
    for (std::size_t i = 0; i < bits; ++i) {
      if (exponent.bit(i)) result = mod(mul(result, acc), modulus);
      acc = mod(mul(acc, acc), modulus);
    }
    return result;
  }

  // Montgomery form of x is x*R mod m, R = 2^(64n); multiplying by R^2 in
  // Montgomery form enters it, multiplying by 1 leaves it.
  const std::size_t n = modulus.limbs_.size();
  const Limb* m = modulus.limbs_.data();
  const Limb m_inv = neg_inverse(m[0]);
  const BigUint r2 = mod(BigUint{1}.shifted_left(2 * kLimbBits * n), modulus);
  const BigUint reduced = mod(base, modulus);

  // All scratch for the exponent loop: R^2, base, accumulator, one, and the
  // n + 1 limbs mont_mul works in.
  std::vector<Limb> scratch(5 * n + 1, 0);
  Limb* r2_m = scratch.data();
  Limb* base_m = r2_m + n;
  Limb* acc = base_m + n;
  Limb* one = acc + n;
  Limb* t = one + n;
  std::copy(r2.limbs_.begin(), r2.limbs_.end(), r2_m);
  std::copy(reduced.limbs_.begin(), reduced.limbs_.end(), base_m);
  one[0] = 1;

  mont_mul(base_m, r2_m, m, m_inv, n, t, base_m);
  mont_mul(one, r2_m, m, m_inv, n, t, acc);
  for (std::size_t i = exponent.bit_length(); i-- > 0;) {
    mont_mul(acc, acc, m, m_inv, n, t, acc);
    if (exponent.bit(i)) mont_mul(acc, base_m, m, m_inv, n, t, acc);
  }
  mont_mul(acc, one, m, m_inv, n, t, acc);

  BigUint result;
  result.limbs_.assign(acc, acc + n);
  result.trim();
  return result;
}

Bytes modexp_bytes(ByteSpan input) {
  AAD_REQUIRE(input.size() % 3 == 0 && input.size() > 0,
              "modexp payload must be base||exponent||modulus");
  const std::size_t width = input.size() / 3;
  const BigUint base = BigUint::from_bytes(input.subspan(0, width));
  const BigUint exponent = BigUint::from_bytes(input.subspan(width, width));
  const BigUint modulus = BigUint::from_bytes(input.subspan(2 * width, width));
  AAD_REQUIRE(BigUint::compare(modulus, BigUint{1}) > 0,
              "modexp modulus must exceed 1");
  return BigUint::mod_exp(base, exponent, modulus).to_bytes(width);
}

}  // namespace aad::algorithms
