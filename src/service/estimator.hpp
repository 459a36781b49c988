/**
 * @file
 * The awd daemon's estimation engine: calibrated model registry plus
 * the request -> power/energy evaluation path.
 *
 * One Estimator owns an AccelWattchCalibrator per served card (volta /
 * pascal / turing). Calibration is lazy and cached inside the
 * calibrator; warmup() pre-runs the default variant for every card so
 * the first client request does not absorb a whole calibration
 * campaign. Calibrator access is serialized per card (its lazy caches
 * are not thread-safe); model *evaluation* is const and runs fully
 * parallel across workers.
 *
 * Activity sourcing: a kernel-descriptor request runs the software
 * performance simulator (SASS trace-driven for the sass/hw/hybrid
 * variants, PTX emulation for ptx) with the job's cancellation flag in
 * SimOptions — the daemon has no live silicon, so the HW/HYBRID
 * variants pair their calibrated energies with simulated activity. An
 * activity-blob request skips simulation and evaluates the model
 * directly on the posted trace.
 *
 * The memo is content-addressed (requestContentKey) and two-level.
 * L1 is the in-process table, bounded by entry count and optionally by
 * total bytes (FIFO eviction either way): it serves repeat requests
 * inline from the reactor (`degraded: "cached"`) before admission, so
 * under overload a request whose answer is memoized is never shed.
 * L2 (optional, setSharedMemoDir) is a cross-process FileEntryStore:
 * ok-responses are written through on compute and promoted into L1 on
 * hit, so a fleet of daemons sharing one directory converges to one
 * cache and a freshly started daemon answers warm keys without ever
 * invoking the simulator. Error responses are stored too, with a
 * short TTL (negative cache), so the fleet does not hammer a key that
 * deterministically fails. The directory must be private to daemons
 * with identical card/variant configuration — a key that errors on
 * one daemon must error on all of them.
 */
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/calibration.hpp"
#include "core/result_cache.hpp"
#include "service/request_queue.hpp"

namespace aw::service {

/** Bound on memoized responses (FIFO-evicted beyond this). */
constexpr size_t kMemoCapacity = 4096;

/** Lifetime of a shared-memo *negative* entry (an estimate that
 *  failed): long enough to absorb a retry storm, short enough that a
 *  transient cause does not poison the key forever. */
constexpr double kSharedMemoNegativeTtlSec = 5.0;

class Estimator
{
  public:
    /** Outcome of a shared-memo (L2) probe. */
    enum class SharedMemo : uint8_t
    {
        Miss,       ///< disabled, absent, torn, or stale negative
        Hit,        ///< ok-response recovered (promote + serve)
        NegativeHit ///< fresh recorded failure (serve the error)
    };

    /** @param cards card names to serve; unknown names are fatal()
     *  (configuration error, not client input). */
    explicit Estimator(const std::vector<std::string> &cards);
    ~Estimator();

    const std::vector<std::string> &cards() const { return cardNames_; }
    bool hasCard(const std::string &name) const;

    /** Pre-calibrate the default (SASS SIM) variant of every card so
     *  the first request is served at steady-state latency. */
    void warmup();

    /**
     * Evaluate one admitted job. Never throws and never fatal()s on
     * client-controlled input: every failure becomes a structured
     * error / deadline response.
     */
    EstimateResponse run(const Job &job);

    /** L1 memo lookup by content key; true on hit (a *copy* is
     *  returned — callers patch per-request fields like id). */
    bool memoLookup(const std::string &key, EstimateResponse &out);

    /** Memoize a served ok-response under its content key: into L1,
     *  and through to the shared L2 store when one is configured. */
    void memoStore(const std::string &key, const EstimateResponse &resp);

    /** L1-only insert — used to promote an L2 hit without immediately
     *  writing the same bytes back to disk. */
    void memoStoreLocal(const std::string &key,
                        const EstimateResponse &resp);

    /** Bound L1 by total approximate bytes on top of the entry-count
     *  cap; 0 (the default) keeps the entry-count bound only. */
    void setMemoByteLimit(size_t bytes);

    /** Attach the cross-process L2 store rooted at `dir` (empty
     *  detaches). Call before serving traffic — after the byte/TTL
     *  bounds below, so the attach-time sweep sees them. */
    void setSharedMemoDir(const std::string &dir);
    bool sharedEnabled() const { return shared_ != nullptr; }

    /** Bound the shared L2 directory by total entry bytes; 0 (the
     *  default) keeps it unbounded. Enforced by a sweep at attach time
     *  and opportunistically on store, oldest entries first. */
    void setSharedMemoBytes(long bytes);

    /** Age out shared L2 entries older than `sec` seconds at each
     *  sweep; 0 (the default) disables the age criterion. */
    void setSharedMemoTtlSec(double sec);

    /** L1 introspection (the stats endpoint's estimator section). */
    size_t memoEntries() const;
    size_t memoBytesUsed() const;

    /** Entries this daemon's sweeps evicted from the shared L2, by
     *  cause (stale = past the TTL, bytes = over the byte bound). */
    long sharedEvictedStale() const
    {
        return sharedEvictedStale_.load(std::memory_order_relaxed);
    }
    long sharedEvictedBytes() const
    {
        return sharedEvictedBytes_.load(std::memory_order_relaxed);
    }
    long sharedSweeps() const
    {
        return sharedSweeps_.load(std::memory_order_relaxed);
    }

    /** Probe L2 for `key`. On Hit, `out` is the canonical recorded
     *  ok-response; on NegativeHit, the recorded error. */
    SharedMemo sharedLookup(const std::string &key, EstimateResponse &out);

    /** Record a failed estimate in L2 (negative cache). ok-responses
     *  flow through memoStore instead. */
    void sharedStoreNegative(const std::string &key,
                             const EstimateResponse &resp);

    /** L2 entry path for `key` (tests: crash-mid-write tearing). */
    std::string sharedPathFor(const std::string &key) const;

  private:
    struct Card
    {
        std::string name;
        const SiliconOracle *oracle = nullptr;
        std::unique_ptr<AccelWattchCalibrator> cal;
        std::mutex mu; ///< guards the calibrator's lazy caches
    };

    Card *findCard(const std::string &name);
    void sharedStore(const std::string &key, const EstimateResponse &resp);
    /** Run one bounded sweep of the shared directory (no-op unless a
     *  store is attached and a byte or TTL bound is set). */
    void sweepShared();

    std::vector<std::string> cardNames_;
    std::vector<std::unique_ptr<Card>> cards_;

    mutable std::mutex memoMu_; ///< const introspection accessors lock it
    std::unordered_map<std::string, EstimateResponse> memo_;
    /** Insertion order with each entry's approximate footprint (the
     *  byte bound must know what an eviction frees). */
    std::deque<std::pair<std::string, size_t>> memoOrder_;
    size_t memoBytes_ = 0;
    size_t memoByteLimit_ = 0;

    std::unique_ptr<FileEntryStore> shared_;
    long sharedMemoBytes_ = 0;     ///< L2 byte bound (0 = unbounded)
    double sharedMemoTtlSec_ = 0;  ///< L2 entry TTL (0 = no age bound)
    std::atomic<long> sharedStores_{0}; ///< paces opportunistic sweeps
    std::atomic<long> sharedEvictedStale_{0};
    std::atomic<long> sharedEvictedBytes_{0};
    std::atomic<long> sharedSweeps_{0};
};

} // namespace aw::service
