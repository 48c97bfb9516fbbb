/**
 * @file
 * The `zerodev-snapshot-v3` container: a versioned, CRC-checked file of
 * named binary sections, used to checkpoint and resume simulations.
 *
 * Layout (everything little-endian):
 *
 *     8 bytes   magic "ZDEVSNAP"
 *     u32       container version (3)
 *     u32       section count
 *     per section:
 *         str   name (u32 length + bytes)
 *         u64   payload size
 *         ...   payload bytes
 *     u32       CRC-32 (IEEE) of everything after the magic
 *
 * Section payloads are opaque to the container. The "system" section
 * holds CmpSystem::saveState() output and opens with the config
 * fingerprint, so restoring into a differently-configured system is
 * rejected before any state is touched. The "runner" section (written
 * by mid-run checkpoints, sim/runner.cc) carries the issue-engine state
 * needed for bit-identical resume: per-core ready/progress state and the
 * workload generators' RNG streams. Consumers that only need the system
 * image (e.g. `trace_tool replay --restore`) ignore sections they do not
 * recognise — and future writers may add sections without a version
 * bump; any change to *existing* payload layouts requires one.
 */

#ifndef ZERODEV_SIM_SNAPSHOT_HH
#define ZERODEV_SIM_SNAPSHOT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hh"

namespace zerodev
{

class CmpSystem;

/** Container version this build reads and writes. */
constexpr std::uint32_t kSnapshotVersion = 3;

/** The 8 magic bytes opening every snapshot file. */
extern const std::uint8_t kSnapshotMagic[8];

/** An in-memory snapshot: an ordered list of named byte sections. */
class Snapshot
{
  public:
    /** Encoder for the section named @p name, created on first use.
     *  Repeated calls return the same encoder (append semantics). */
    SerialOut &section(const std::string &name);

    /** Bytes of section @p name; null when absent. */
    const std::vector<std::uint8_t> *find(const std::string &name) const;

    bool has(const std::string &name) const { return find(name); }

    /** Serialize the container (magic + version + sections + CRC). */
    std::vector<std::uint8_t> encode() const;

    /** Parse @p size bytes at @p data, replacing current contents.
     *  Returns false and sets @p err on malformed input (bad magic,
     *  truncation, CRC mismatch, unsupported version). */
    bool decode(const std::uint8_t *data, std::size_t size,
                std::string *err);

    bool writeFile(const std::string &path, std::string *err) const;
    bool readFile(const std::string &path, std::string *err);

  private:
    std::vector<std::pair<std::string, SerialOut>> sections_;
};

/** Restore @p sys from the "system" section of @p snap. Returns false
 *  and sets @p err on a missing section, fingerprint mismatch, or a
 *  malformed payload. On failure the system state is unspecified and
 *  the caller should discard it. */
bool restoreSystemSection(const Snapshot &snap, CmpSystem &sys,
                          std::string *err);

} // namespace zerodev

#endif // ZERODEV_SIM_SNAPSHOT_HH
