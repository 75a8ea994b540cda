#include "common/bytes.h"

#include "common/byte_pool.h"

namespace hpcbb {
namespace {

// Copies bytes [from, from + n) of `pieces` laid back to back to `dst`.
void copy_out(std::span<const ByteSlice> pieces, std::uint64_t from,
              std::uint8_t* dst, std::uint64_t n) noexcept {
  for (const ByteSlice& piece : pieces) {
    if (n == 0) break;
    if (from >= piece.length) {
      from -= piece.length;
      continue;
    }
    const std::uint64_t take = std::min(piece.length - from, n);
    std::memcpy(dst, piece.span().data() + from, take);
    dst += take;
    n -= take;
    from = 0;
  }
}

}  // namespace

Bytes gather(std::span<const ByteSlice> pieces, std::uint64_t from,
             std::uint64_t length) {
  const std::uint64_t total = total_length(pieces);
  const std::uint64_t n = from >= total ? 0 : std::min(length, total - from);
  if (n >= kSplitBytes) {
    Bytes out = take_buffer(n);
    auto part = [&](std::size_t, SplitRange range) noexcept {
      copy_out(pieces, from + range.begin, out.data() + range.begin,
               range.size());
    };
    if (!split_run(n, part)) copy_out(pieces, from, out.data(), n);
    return out;
  }
  Bytes out;
  out.reserve(n);
  for (const ByteSlice& piece : pieces) {
    if (out.size() == n) break;
    if (from >= piece.length) {
      from -= piece.length;
      continue;
    }
    const auto part = piece.span().subspan(from);
    const std::uint64_t take =
        std::min<std::uint64_t>(part.size(), n - out.size());
    out.insert(out.end(), part.begin(),
               part.begin() + static_cast<std::ptrdiff_t>(take));
    from = 0;
  }
  return out;
}

}  // namespace hpcbb
