#include "cache/replacement.hh"

#include <bit>

#include "cache/block_state.hh"
#include "common/log.hh"
#include "common/serialize.hh"

namespace zerodev
{

const char *
toString(LlcLineKind k)
{
    switch (k) {
      case LlcLineKind::Invalid: return "Invalid";
      case LlcLineKind::Data: return "Data";
      case LlcLineKind::SpilledDe: return "SpilledDE";
      case LlcLineKind::FusedDe: return "FusedDE";
    }
    return "?";
}

NruState::NruState(std::size_t sets, std::uint32_t ways)
    : ways_(ways), full_(ways >= 64 ? ~0ull : (1ull << ways) - 1),
      bits_(sets * ways), words_((bits_ + 63) / 64 + 1, 0)
{
    if (ways == 0 || ways > 64)
        fatal("NRU state needs 1 to 64 ways, not %u", ways);
}

// A set's bits start at bit b = set * ways of word b / 64, shift b % 64,
// and run into the next word when shift + ways > 64. The upper half is
// shifted in two steps, so a shift of 0 gives 0 instead of the undefined
// shift by 64.

std::uint64_t
NruState::refs(std::size_t set) const
{
    const std::size_t b = set * ways_;
    const std::uint64_t *w = words_.data() + b / 64;
    const unsigned shift = b % 64;
    return ((w[0] >> shift) | ((w[1] << 1) << (63 - shift))) & full_;
}

void
NruState::setRefs(std::size_t set, std::uint64_t m)
{
    const std::size_t b = set * ways_;
    std::uint64_t *w = words_.data() + b / 64;
    const unsigned shift = b % 64;
    w[0] = (w[0] & ~(full_ << shift)) | (m << shift);
    w[1] = (w[1] & ~((full_ >> 1) >> (63 - shift))) |
           ((m >> 1) >> (63 - shift));
}

void
NruState::touch(std::size_t set, std::uint32_t way)
{
    const std::uint64_t bit = 1ull << way;
    const std::uint64_t m = refs(set) | bit;
    // Every bit set: clear all except the just-touched way.
    setRefs(set, m == full_ ? bit : m);
}

std::uint32_t
NruState::victim(std::size_t set) const
{
    const std::uint64_t clear = ~refs(set) & full_;
    if (clear == 0)
        panic("NRU set has every reference bit set");
    return static_cast<std::uint32_t>(std::countr_zero(clear));
}

std::uint32_t
NruState::victimIn(std::size_t set, std::uint32_t first,
                   std::uint32_t count) const
{
    const std::uint64_t range = (~0ull >> (64 - count)) << first;
    const std::uint64_t clear = ~refs(set) & range;
    return clear != 0 ? static_cast<std::uint32_t>(std::countr_zero(clear))
                      : first;
}

void
NruState::reset(std::size_t set, std::uint32_t way)
{
    setRefs(set, refs(set) & ~(1ull << way));
}

void
NruState::save(SerialOut &out) const
{
    out.u64(bits_);
    // Packed 64 bits per word, as stored; the trailing word is
    // zero-padded.
    for (std::size_t i = 0; i < (bits_ + 63) / 64; ++i)
        out.u64(words_[i]);
}

void
NruState::restore(SerialIn &in)
{
    if (!in.check(in.u64() == bits_, "NRU geometry mismatch"))
        return;
    const std::size_t n = (bits_ + 63) / 64;
    for (std::size_t i = 0; i < n; ++i)
        words_[i] = in.u64();
    // Bits past the last set are not state: drop them, so that a later
    // save() writes the trailing word zero-padded.
    if (bits_ % 64 != 0)
        words_[n - 1] &= ~0ull >> (64 - bits_ % 64);
}

} // namespace zerodev
