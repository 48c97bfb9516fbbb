/**
 * @file
 * Endian-safe binary serialization primitives for simulator snapshots.
 *
 * SerialOut appends little-endian fixed-width fields to a growable byte
 * buffer; SerialIn reads them back with a sticky fail flag instead of
 * exceptions (the same error idiom as TraceReader): after the first
 * malformed read every subsequent read returns 0 and `ok()` is false,
 * so decoders can be written straight-line and checked once at the end.
 *
 * The encoding is deliberately dumb — no varints, no alignment, no
 * field tags — because snapshots are versioned as a whole (see
 * sim/snapshot.hh): any layout change bumps the container version
 * rather than negotiating per-field.
 */

#ifndef ZERODEV_COMMON_SERIALIZE_HH
#define ZERODEV_COMMON_SERIALIZE_HH

#include <bitset>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace zerodev
{

/** CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of @p n bytes. */
std::uint32_t crc32(const std::uint8_t *data, std::size_t n);

/** Little-endian append-only encoder. */
class SerialOut
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { put(v); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void b(bool v) { u8(v ? 1 : 0); }

    /** IEEE-754 bit pattern; doubles in snapshots are always exact
     *  copies, never re-derived, so bit-casting round-trips. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    /** Length-prefixed (u32) byte string. */
    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    /** Append raw bytes with no length prefix (container assembly). */
    void
    raw(const std::uint8_t *data, std::size_t n)
    {
        buf_.insert(buf_.end(), data, data + n);
    }

    /** Bitset as ceil(N/64) little-endian u64 words. */
    template <std::size_t N>
    void
    bits(const std::bitset<N> &bs)
    {
        if constexpr (N <= 64) {
            u64(bs.to_ullong());
        } else {
            const std::bitset<N> low(~0ull);
            for (std::size_t w = 0; w < (N + 63) / 64; ++w)
                u64(((bs >> (w * 64)) & low).to_ullong());
        }
    }

    const std::vector<std::uint8_t> &data() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

  private:
    /** Append @p v as sizeof(T) little-endian bytes in one insert (the
     *  shift loop compiles to a single store on little-endian hosts). */
    template <typename T>
    void
    put(T v)
    {
        std::uint8_t bytes[sizeof(T)];
        for (std::size_t i = 0; i < sizeof(T); ++i)
            bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
        buf_.insert(buf_.end(), bytes, bytes + sizeof(T));
    }

    std::vector<std::uint8_t> buf_;
};

/** Little-endian decoder with a sticky fail flag. */
class SerialIn
{
  public:
    SerialIn(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit SerialIn(const std::vector<std::uint8_t> &buf)
        : SerialIn(buf.data(), buf.size())
    {
    }

    std::uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return data_[pos_++];
    }

    std::uint16_t u16() { return get<std::uint16_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }

    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    bool b() { return u8() != 0; }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (!need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    /** @p n raw bytes (no length prefix) as a span into the input;
     *  null, with the fail flag set, when fewer than @p n remain. */
    const std::uint8_t *
    raw(std::size_t n)
    {
        if (!need(n))
            return nullptr;
        const std::uint8_t *p = data_ + pos_;
        pos_ += n;
        return p;
    }

    template <std::size_t N>
    std::bitset<N>
    bits()
    {
        if constexpr (N <= 64) {
            return std::bitset<N>(u64());
        } else {
            std::bitset<N> bs;
            for (std::size_t w = 0; w < (N + 63) / 64; ++w)
                bs |= std::bitset<N>(u64()) << (w * 64);
            return bs;
        }
    }

    /** Record a decoding failure; the first message wins. */
    void
    fail(const std::string &msg)
    {
        if (ok_) {
            ok_ = false;
            error_ = msg;
        }
    }

    /** Fail unless @p cond holds; returns @p cond for inline guards. */
    bool
    check(bool cond, const char *what)
    {
        if (!cond)
            fail(what);
        return cond;
    }

    bool ok() const { return ok_; }
    const std::string &error() const { return error_; }
    std::size_t pos() const { return pos_; }
    std::size_t remaining() const { return size_ - pos_; }

    /** True iff every byte has been consumed and no read failed. */
    bool exhausted() const { return ok_ && pos_ == size_; }

  private:
    /** sizeof(T) little-endian bytes (one load on little-endian
     *  hosts); 0 once the input is exhausted or failed. */
    template <typename T>
    T
    get()
    {
        if (!need(sizeof(T)))
            return 0;
        T v = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v |= static_cast<T>(T(data_[pos_ + i]) << (8 * i));
        pos_ += sizeof(T);
        return v;
    }

    bool
    need(std::size_t n)
    {
        if (!ok_)
            return false;
        if (size_ - pos_ < n) {
            fail("snapshot truncated");
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
};

} // namespace zerodev

#endif // ZERODEV_COMMON_SERIALIZE_HH
