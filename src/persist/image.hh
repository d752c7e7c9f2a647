/**
 * @file
 * The serialized form of a debug session: everything needed to rebuild
 * the session's machinery from the program image and deterministically
 * replay it back to the exact position it was persisted at.
 *
 * Per the paper's replay model, a session IS its nondeterministic
 * inputs: the workload identity, the spec set (watchpoints,
 * breakpoints, mute sets, initial-state pokes — which shape the
 * instrumented µop stream), the ReplayLog (seed, time-stamped
 * interventions including DISE production-table mutations, and the
 * discovered event timeline), plus the position to seek to. Checkpoint
 * pages are deliberately NOT serialized: the chain's positions are
 * deterministic functions of the travel history, so resurrection
 * re-takes bit-identical checkpoints during the seek replay and the
 * recorded (time, appInsts) pairs become an integrity check instead of
 * megabytes of page data — the compact-trace tradeoff.
 *
 * The binary encoding is versioned (magic + format version), bounded
 * (every count is validated against the remaining payload before
 * allocation), and checksummed (FNV-1a 64 over everything before the
 * trailing checksum), so a torn or bit-flipped file is detected and
 * quarantined rather than parsed.
 */

#ifndef DISE_PERSIST_IMAGE_HH
#define DISE_PERSIST_IMAGE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "debug/backend.hh"
#include "debug/debugger.hh"
#include "debug/watch.hh"
#include "replay/replay_log.hh"

namespace dise::persist {

/** Position of one checkpoint of the chain (no page data). */
struct CheckpointMeta
{
    uint64_t time = 0;
    uint64_t appInsts = 0;

    bool operator==(const CheckpointMeta &) const = default;
};

/** Integrity anchor for one enabled debug tool (src/tools/): the
 *  FNV-1a digest of its serialized state at persist time. Tool state
 *  itself is NOT serialized — the seek replay re-derives it from the
 *  ToolEnable interventions and the deterministic µop stream, and the
 *  digest proves the re-derivation is bit-identical. */
struct ToolDigest
{
    std::string name;
    uint64_t digest = 0;

    bool operator==(const ToolDigest &) const = default;
};

/** One serializable session. */
struct SessionImage
{
    uint64_t id = 0;
    std::string workload;
    BackendKind backend = BackendKind::Dise;
    /** The session had attached (machinery installed, target loaded). */
    bool attached = false;
    /** The session had a time-travel timeline (ran at least one
     *  checkpointed verb). */
    bool hasTravel = false;

    // Spec set (shapes the instrumented stream; install order matters).
    std::vector<WatchSpec> watches;
    std::vector<BreakSpec> breaks;
    std::vector<int32_t> mutedWatches;
    std::vector<int32_t> mutedBreaks;
    /** Session indices of the specs the attached machinery installed,
     *  ascending. A spec removed after attach is muted but stays
     *  installed, so this is not the complement of the mute sets. */
    std::vector<int32_t> installedWatches;
    std::vector<int32_t> installedBreaks;

    /** Initial-state pokes (applied between load and prime). */
    struct Poke
    {
        bool isReg = false;
        uint32_t reg = 0;
        Addr addr = 0;
        uint32_t size = 8;
        uint64_t value = 0;
    };
    std::vector<Poke> pokes;

    // Replay log.
    uint64_t seed = 0;
    std::string programName;
    std::vector<Intervention> interventions;
    std::vector<EventMark> marks;

    // Position + integrity anchors.
    uint64_t time = 0;
    uint64_t appInsts = 0;
    /** stateDigest of the live session at persist time. */
    uint64_t digest = 0;
    std::vector<CheckpointMeta> checkpoints;
    /** Per-tool state digests (enable order). */
    std::vector<ToolDigest> toolDigests;
};

/** Typed decode failures (mapped to store quarantine reasons). */
enum class ImageErr : uint8_t {
    None,
    Truncated,   ///< ran out of bytes mid-field
    BadMagic,
    BadVersion,  ///< format version this build cannot read
    BadChecksum, ///< bit flip / torn tail
    Malformed,   ///< structurally invalid (bad enum, oversized count)
};

const char *imageErrName(ImageErr err);

/** v2 added tool-enable/disable interventions and tool digests; v3
 *  the installed spec sets. */
constexpr uint32_t kImageVersion = 3;

/** FNV-1a 64 (the persistence layer's integrity hash). */
uint64_t fnv64(const uint8_t *data, size_t n);

std::vector<uint8_t> encodeImage(const SessionImage &img);
ImageErr decodeImage(const uint8_t *data, size_t n, SessionImage &out,
                     std::string *detail = nullptr);

inline ImageErr
decodeImage(const std::vector<uint8_t> &bytes, SessionImage &out,
            std::string *detail = nullptr)
{
    return decodeImage(bytes.data(), bytes.size(), out, detail);
}

} // namespace dise::persist

#endif // DISE_PERSIST_IMAGE_HH
