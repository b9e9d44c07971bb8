// Pluggable tenant placement.
//
// When a tenant arrives, the cluster asks a PlacementEngine which machine
// it should land on. Four engines ship:
//
//   random        uniform over machines with a free BE core (seeded —
//                 deterministic — baseline for "does placement matter?")
//   least-loaded  fewest running BE tenants, ties to the lowest index
//   mrc           MRC-aware best-fit: scores every candidate machine by
//                 the EFU it would have *after* the tenant lands —
//                 HP keeps its ways_needed partition, the BEs split the
//                 remainder in proportion to their MRC footprints, each
//                 app's IPC is read off its ipc-vs-ways curve, and the
//                 whole machine is discounted when predicted bandwidth
//                 demand oversubscribes the memory link. Picks the
//                 highest post-placement EFU (Com-CAS-style footprint
//                 packing driven by the sampled-MRC app directory).
//   mrc-p2c       power-of-d-choices over the same scorer: draws d = 5
//                 candidates uniformly from the open set via the engine's
//                 seeded RNG and scores only those — the documented
//                 O(d) approximation for very large fleets, deterministic
//                 for a (seed, call sequence) pair like `random`.
//
// Every engine has two entry points with identical decisions, identical
// tie-breaks and identical RNG consumption:
//
//   place_indexed(app, index,    the production path: O(log N) / cached
//                 exclude)       resolution over the persistent
//                                fleet::PlacementIndex — `exclude` closes
//                                one machine (migration sources never
//                                receive their own evictee);
//   place(app, views)            the reference full scan over a
//                                materialised MachineView vector, kept so
//                                tests and BM_FleetPlacementFullScan can
//                                prove the indexed path equal to it.
//
// The pair is byte-equivalent by construction: both paths share one
// predict() implementation (a pure function of machine state and app), one
// first-strictly-better tie-break walking machines in index order, and —
// for the seeded engines — the same below(open_count) draw sequence. The
// index only changes how many times predict() runs, never its operands.
//
// Engines are called from the control plane's single decision thread, one
// decision at a time (DESIGN.md §5j explains why it stays serial); they
// may keep internal state (RNGs, reusable scoring scratch) and stay
// deterministic for a (seed, call sequence) pair.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fleet/directory.hpp"
#include "fleet/placement_index.hpp"
#include "metrics/metrics.hpp"
#include "util/rng.hpp"

namespace dicer::fleet {

/// One machine's placement-relevant state as the reference full scan sees
/// it (the index keeps the same facts incrementally).
struct MachineView {
  unsigned index = 0;
  const sim::AppProfile* hp = nullptr;
  std::vector<const sim::AppProfile*> tenants;  ///< running BEs, core order
  unsigned free_cores = 0;                      ///< open BE slots
};

/// Materialise the index as MachineViews (the reference scan's input in
/// tests and BM_FleetPlacementFullScan).
std::vector<MachineView> index_views(const PlacementIndex& index);

class PlacementEngine {
 public:
  virtual ~PlacementEngine() = default;
  virtual std::string name() const = 0;
  /// Reference full scan: the machine index `app` should land on, or
  /// nullopt to reject. Only views with free_cores > 0 are eligible.
  virtual std::optional<unsigned> place(
      const sim::AppProfile& app, const std::vector<MachineView>& views) = 0;
  /// The production decision off the persistent index, skipping `exclude`
  /// (as if its free_cores were 0). Must match place() on equivalent views
  /// bit for bit — decisions, tie-breaks and RNG consumption.
  virtual std::optional<unsigned> place_indexed(
      const sim::AppProfile& app, PlacementIndex& index,
      std::optional<unsigned> exclude = std::nullopt) = 0;
};

class RandomPlacement final : public PlacementEngine {
 public:
  explicit RandomPlacement(std::uint64_t seed) : rng_(seed) {}
  std::string name() const override { return "random"; }
  std::optional<unsigned> place(const sim::AppProfile& app,
                                const std::vector<MachineView>& views) override;
  std::optional<unsigned> place_indexed(
      const sim::AppProfile& app, PlacementIndex& index,
      std::optional<unsigned> exclude) override;

 private:
  util::Xoshiro256 rng_;
  std::vector<unsigned> open_scratch_;  ///< full-scan candidate list
};

class LeastLoadedPlacement final : public PlacementEngine {
 public:
  std::string name() const override { return "least-loaded"; }
  std::optional<unsigned> place(const sim::AppProfile& app,
                                const std::vector<MachineView>& views) override;
  std::optional<unsigned> place_indexed(
      const sim::AppProfile& app, PlacementIndex& index,
      std::optional<unsigned> exclude) override;
};

/// Shared MRC scoring core: the predict() model plus the reusable scratch
/// both MRC engines (best-fit and p2c) drive, on views or on the index.
/// The scratch is `mutable`: engines are driven from one decision thread.
class MrcScoringBase {
 protected:
  explicit MrcScoringBase(const AppDirectory& directory) : dir_(&directory) {}

  /// Predicted machine EFU for `hp_sig`'s machine with the given BE set.
  double predict(const AppSignal& hp_sig,
                 const std::vector<const AppSignal*>& bes) const;
  /// Marginal EFU of `app_sig` joining `view` — predict(after) minus
  /// predict(before), both computed fresh (the reference full scan).
  double delta_for_view(const MachineView& view,
                        const AppSignal& app_sig) const;
  /// The same marginal EFU off the index's dirty-score caches: reuses the
  /// cached "before" and per-app delta when the machine is clean, computes
  /// and stores them when dirty. Bit-identical to delta_for_view by
  /// predict()'s purity.
  double delta_indexed(PlacementIndex& index, unsigned machine,
                       const AppSignal& app_sig) const;

  const AppDirectory* dir_;
  /// Reusable scoring buffers (allocation-free after warm-up).
  mutable std::vector<const AppSignal*> bes_scratch_;
  mutable std::vector<metrics::IpcPair> pairs_scratch_;
};

class MrcBestFitPlacement final : public PlacementEngine,
                                  private MrcScoringBase {
 public:
  /// `directory` must outlive the engine.
  explicit MrcBestFitPlacement(const AppDirectory& directory)
      : MrcScoringBase(directory) {}
  std::string name() const override { return "mrc"; }
  std::optional<unsigned> place(const sim::AppProfile& app,
                                const std::vector<MachineView>& views) override;
  std::optional<unsigned> place_indexed(
      const sim::AppProfile& app, PlacementIndex& index,
      std::optional<unsigned> exclude) override;
  /// Predicted machine EFU if `app` joined `view` (exposed for tests;
  /// place() maximises the *delta* of this against the machine as-is).
  double score(const sim::AppProfile& app, const MachineView& view) const;
};

/// Power-of-d-choices over the MRC scorer: d seeded uniform draws from the
/// open set (with replacement; repeats are scored once), best marginal EFU
/// wins with the same first-strictly-better tie-break — in draw order —
/// as `mrc` uses in index order. Decision quality degrades gracefully with
/// d while the per-arrival cost drops from O(N) to O(d); the classic
/// balls-into-bins result is that d = 2 already collapses the max-load
/// tail, and d = 5 tracks full best-fit closely on fleet EFU. The fan-out
/// is configurable (FleetConfig::p2c_choices / fleet_sim --p2c-d); d = 1
/// degenerates to seeded-random placement, large d approaches full
/// best-fit at d scores per decision.
class MrcP2cPlacement final : public PlacementEngine, private MrcScoringBase {
 public:
  /// The shipped default fan-out.
  static constexpr unsigned kChoices = 5;

  /// Throws std::invalid_argument when choices == 0 (a zero-draw engine
  /// could never place anything).
  MrcP2cPlacement(const AppDirectory& directory, std::uint64_t seed,
                  unsigned choices = kChoices);
  std::string name() const override { return "mrc-p2c"; }
  std::optional<unsigned> place(const sim::AppProfile& app,
                                const std::vector<MachineView>& views) override;
  std::optional<unsigned> place_indexed(
      const sim::AppProfile& app, PlacementIndex& index,
      std::optional<unsigned> exclude) override;

 private:
  /// Score the drawn candidate machines (draw order, repeats skipped) and
  /// return the first-strictly-better argmax of `delta_of`.
  template <typename DeltaFn>
  std::optional<unsigned> pick(const std::vector<unsigned>& draws,
                               DeltaFn&& delta_of);

  util::Xoshiro256 rng_;
  unsigned choices_;
  std::vector<unsigned> open_scratch_;   ///< full-scan candidate list
  std::vector<unsigned> draw_scratch_;   ///< sampled machine indices
};

/// Engine by name: "random", "least-loaded", "mrc" or "mrc-p2c". `seed`
/// feeds the seeded engines; `directory` the MRC ones; `p2c_choices` is
/// mrc-p2c's fan-out d (ignored by the other engines). Throws
/// std::invalid_argument for unknown names, or p2c_choices == 0 when the
/// engine is mrc-p2c.
std::unique_ptr<PlacementEngine> make_placement(
    const std::string& name, const AppDirectory& directory,
    std::uint64_t seed, unsigned p2c_choices = MrcP2cPlacement::kChoices);
std::vector<std::string> known_placements();

}  // namespace dicer::fleet
