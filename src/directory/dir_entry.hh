/**
 * @file
 * The coherence-tracking payload of a sparse directory entry: merged M/E
 * vs S state, owner id, and a full-map sharer vector (the paper maintains
 * the full-map representation throughout, Section III-D).
 */

#ifndef ZERODEV_DIRECTORY_DIR_ENTRY_HH
#define ZERODEV_DIRECTORY_DIR_ENTRY_HH

#include "common/bitops.hh"
#include "common/log.hh"
#include "common/serialize.hh"
#include "common/types.hh"

namespace zerodev
{

/** Coherence payload tracked for one block. */
struct DirEntry
{
    DirState state = DirState::Invalid;
    SharerSet sharers;

    /** Core owning the block when state is Owned (M/E). */
    CoreId
    owner() const
    {
        if (state != DirState::Owned)
            panic("owner() on a %s entry", toString(state));
        const CoreId c = firstSetBit(sharers);
        if (c == kMaxCores)
            panic("Owned entry with empty sharer vector");
        return c;
    }

    /** Number of cores currently tracked. */
    std::uint32_t count() const
    {
        return static_cast<std::uint32_t>(sharers.count());
    }

    bool isSharer(CoreId c) const { return sharers.test(c); }

    /** Track @p c as the exclusive owner. */
    void
    makeOwned(CoreId c)
    {
        state = DirState::Owned;
        sharers.reset();
        sharers.set(c);
    }

    /** Track @p c as one of possibly many sharers. */
    void
    addSharer(CoreId c)
    {
        state = DirState::Shared;
        sharers.set(c);
    }

    /** Stop tracking @p c; frees the entry when it was the last core. */
    void
    removeSharer(CoreId c)
    {
        sharers.reset(c);
        if (sharers.none())
            state = DirState::Invalid;
    }

    /** Lowest-numbered tracked core (used to elect a sharer to forward
     *  to, Section III-C3). */
    CoreId
    anySharer() const
    {
        const CoreId c = firstSetBit(sharers);
        return c == kMaxCores ? kInvalidCore : c;
    }

    bool live() const { return state != DirState::Invalid; }

    void
    clear()
    {
        state = DirState::Invalid;
        sharers.reset();
    }
};

/** Socket-level directory states (Section III-D): the unused fourth state
 *  of the two state bits encodes "home memory block is corrupted". */
enum class SocketDirState : std::uint8_t
{
    Invalid,
    Owned,     //!< exactly one socket caches the block (M/E)
    Shared,    //!< one or more sockets cache the block in S
    Corrupted, //!< home memory block houses evicted directory entries
};

const char *toString(SocketDirState s);

/** Socket-level directory payload. */
struct SocketDirEntry
{
    SocketDirState state = SocketDirState::Invalid;
    SocketSet sharers;

    bool live() const { return state != SocketDirState::Invalid; }
    bool isSharer(SocketId s) const { return sharers.test(s); }

    std::uint32_t count() const
    {
        return static_cast<std::uint32_t>(sharers.count());
    }

    SocketId
    anySharerExcept(SocketId not_this) const
    {
        for (SocketId s = 0; s < kMaxSockets; ++s) {
            if (sharers.test(s) && s != not_this)
                return s;
        }
        return static_cast<SocketId>(~0u);
    }

    void
    clear()
    {
        state = SocketDirState::Invalid;
        sharers.reset();
    }
};

/** Snapshot codecs shared by every structure that embeds an entry. */
inline void
saveEntry(SerialOut &out, const DirEntry &e)
{
    out.u8(static_cast<std::uint8_t>(e.state));
    out.bits(e.sharers);
}

inline DirEntry
loadEntry(SerialIn &in)
{
    DirEntry e;
    e.state = static_cast<DirState>(in.u8());
    e.sharers = in.bits<kMaxCores>();
    in.check(e.state <= DirState::Shared, "bad DirEntry state");
    return e;
}

inline void
saveEntry(SerialOut &out, const SocketDirEntry &e)
{
    out.u8(static_cast<std::uint8_t>(e.state));
    out.bits(e.sharers);
}

inline SocketDirEntry
loadSocketEntry(SerialIn &in)
{
    SocketDirEntry e;
    e.state = static_cast<SocketDirState>(in.u8());
    e.sharers = in.bits<kMaxSockets>();
    in.check(e.state <= SocketDirState::Corrupted,
             "bad SocketDirEntry state");
    return e;
}

} // namespace zerodev

#endif // ZERODEV_DIRECTORY_DIR_ENTRY_HH
