// Canonical byte-Huffman codec.
//
// Header: u32 raw_size, then 256 code lengths (one byte each), then the
// MSB-first bit stream.  Codes are canonical (assigned in (length, symbol)
// order) so the decoder rebuilds the codebook from lengths alone.
#include <algorithm>
#include <array>
#include <queue>

#include "compress/bitio.h"
#include "compress/detail.h"

namespace aad::compress::detail {
namespace {

constexpr std::size_t kSymbols = 256;
constexpr unsigned kMaxLen = 58;  // worst case for 2^32 input symbols

struct Codebook {
  std::array<std::uint8_t, kSymbols> lengths{};
  std::array<std::uint64_t, kSymbols> codes{};
};

std::array<std::uint8_t, kSymbols> compute_lengths(
    const std::array<std::uint64_t, kSymbols>& freq) {
  std::array<std::uint8_t, kSymbols> lengths{};
  struct Tree {
    std::uint64_t weight;
    std::vector<std::uint16_t> members;  // leaf symbols in this subtree
  };
  auto cmp = [](const Tree& a, const Tree& b) { return a.weight > b.weight; };
  std::priority_queue<Tree, std::vector<Tree>, decltype(cmp)> heap(cmp);
  for (std::uint16_t s = 0; s < kSymbols; ++s)
    if (freq[s] > 0) heap.push(Tree{freq[s], {s}});
  if (heap.empty()) return lengths;
  if (heap.size() == 1) {
    lengths[heap.top().members[0]] = 1;
    return lengths;
  }
  // Merging subtrees and bumping member depths avoids explicit tree nodes.
  while (heap.size() > 1) {
    Tree a = heap.top();
    heap.pop();
    Tree b = heap.top();
    heap.pop();
    for (std::uint16_t s : a.members) ++lengths[s];
    for (std::uint16_t s : b.members) ++lengths[s];
    a.weight += b.weight;
    a.members.insert(a.members.end(), b.members.begin(), b.members.end());
    heap.push(std::move(a));
  }
  return lengths;
}

Codebook build_codebook(const std::array<std::uint8_t, kSymbols>& lengths) {
  Codebook book;
  book.lengths = lengths;
  // Canonical assignment: sort by (length, symbol).
  std::array<std::uint16_t, kSymbols> order;
  for (std::uint16_t s = 0; s < kSymbols; ++s) order[s] = s;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint16_t a, std::uint16_t b) {
                     return lengths[a] < lengths[b];
                   });
  std::uint64_t code = 0;
  unsigned prev_len = 0;
  for (std::uint16_t s : order) {
    const unsigned len = lengths[s];
    if (len == 0) continue;
    code <<= (len - prev_len);
    book.codes[s] = code;
    ++code;
    prev_len = len;
  }
  return book;
}

/// Canonical decoding tables: per length, the first code and the symbol list.
struct DecodeTables {
  std::array<std::uint64_t, kMaxLen + 1> first_code{};
  std::array<std::uint32_t, kMaxLen + 1> count{};
  std::array<std::uint32_t, kMaxLen + 1> symbol_base{};
  std::vector<std::uint16_t> symbols;  // in (length, symbol) order
  unsigned max_len = 0;
};

DecodeTables build_decode_tables(
    const std::array<std::uint8_t, kSymbols>& lengths) {
  DecodeTables t;
  for (std::size_t s = 0; s < kSymbols; ++s) {
    if (lengths[s] == 0) continue;
    if (lengths[s] > kMaxLen)
      AAD_FAIL(ErrorCode::kCorruptData, "Huffman code length out of range");
    ++t.count[lengths[s]];
    t.max_len = std::max<unsigned>(t.max_len, lengths[s]);
  }
  std::uint64_t code = 0;
  std::uint32_t base = 0;
  for (unsigned len = 1; len <= t.max_len; ++len) {
    code <<= 1;
    t.first_code[len] = code;
    t.symbol_base[len] = base;
    code += t.count[len];
    base += t.count[len];
  }
  t.symbols.reserve(base);
  for (unsigned len = 1; len <= t.max_len; ++len)
    for (std::uint16_t s = 0; s < kSymbols; ++s)
      if (lengths[s] == len) t.symbols.push_back(s);
  return t;
}

class HuffmanCodec final : public Codec {
 public:
  CodecId id() const noexcept override { return CodecId::kHuffman; }

  Bytes compress(ByteSpan raw) const override {
    std::array<std::uint64_t, kSymbols> freq{};
    for (Byte b : raw) ++freq[b];
    const auto lengths = compute_lengths(freq);
    const Codebook book = build_codebook(lengths);

    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(raw.size()));
    for (std::uint8_t len : lengths) w.u8(len);
    BitWriter bits;
    for (Byte b : raw) bits.put_bits(book.codes[b], book.lengths[b]);
    w.bytes(bits.finish());
    return std::move(w).take();
  }

  void decompress_into(ByteSpan compressed,
                       std::span<Byte> out) const override {
    ByteReader r = read_header(compressed, out.size());
    std::array<std::uint8_t, kSymbols> lengths{};
    for (auto& len : lengths) len = r.u8();
    const DecodeTables tables = build_decode_tables(lengths);
    if (!out.empty() && tables.max_len == 0)
      AAD_FAIL(ErrorCode::kCorruptData, "empty Huffman codebook");
    BitReader bits(compressed.subspan(r.offset()));
    for (Byte& symbol : out) {
      std::uint64_t code = 0;
      for (unsigned len = 1;; ++len) {
        if (len > tables.max_len)
          AAD_FAIL(ErrorCode::kCorruptData, "invalid Huffman code");
        code = (code << 1) | (bits.get_bit() ? 1u : 0u);
        const std::uint64_t offset = code - tables.first_code[len];
        if (code >= tables.first_code[len] && offset < tables.count[len]) {
          symbol = static_cast<Byte>(
              tables.symbols[tables.symbol_base[len] +
                             static_cast<std::uint32_t>(offset)]);
          break;
        }
      }
    }
  }
};

}  // namespace

std::unique_ptr<Codec> make_huffman() {
  return std::make_unique<HuffmanCodec>();
}

}  // namespace aad::compress::detail
