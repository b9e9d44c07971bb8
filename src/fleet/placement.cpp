#include "fleet/placement.hpp"

#include <algorithm>
#include <stdexcept>

namespace dicer::fleet {

std::vector<MachineView> index_views(const PlacementIndex& index) {
  std::vector<MachineView> out(index.size());
  for (unsigned m = 0; m < index.size(); ++m) {
    MachineView& v = out[m];
    v.index = m;
    v.hp = index.hp(m);
    for (unsigned c = 1; c <= index.be_slots(); ++c) {
      if (const auto* t = index.tenant(m, c)) v.tenants.push_back(t);
    }
    v.free_cores = index.free_cores(m);
  }
  return out;
}

std::optional<unsigned> RandomPlacement::place(
    const sim::AppProfile& /*app*/, const std::vector<MachineView>& views) {
  open_scratch_.clear();
  for (const auto& v : views) {
    if (v.free_cores > 0) open_scratch_.push_back(v.index);
  }
  if (open_scratch_.empty()) return std::nullopt;
  return open_scratch_[rng_.below(open_scratch_.size())];
}

std::optional<unsigned> RandomPlacement::place_indexed(
    const sim::AppProfile& /*app*/, PlacementIndex& index,
    std::optional<unsigned> exclude) {
  // One below(open_count) draw resolved through the order-statistics tree:
  // the k-th open machine in index order is exactly open_scratch_[k] of the
  // full scan, and skipping an open excluded machine shifts ranks past it
  // by one — same candidate set, same single RNG draw.
  const bool excl_open =
      exclude && *exclude < index.size() && index.is_open(*exclude);
  const std::uint64_t count = index.open_count() - (excl_open ? 1 : 0);
  if (count == 0) return std::nullopt;
  std::uint64_t k = rng_.below(count);
  if (excl_open && k >= index.open_rank(*exclude)) ++k;
  return index.nth_open(k);
}

std::optional<unsigned> LeastLoadedPlacement::place(
    const sim::AppProfile& /*app*/, const std::vector<MachineView>& views) {
  std::optional<unsigned> best;
  std::size_t best_load = 0;
  for (const auto& v : views) {
    if (v.free_cores == 0) continue;
    if (!best || v.tenants.size() < best_load) {
      best = v.index;
      best_load = v.tenants.size();
    }
  }
  return best;
}

std::optional<unsigned> LeastLoadedPlacement::place_indexed(
    const sim::AppProfile& /*app*/, PlacementIndex& index,
    std::optional<unsigned> exclude) {
  // Under uniform per-machine capacity, fewest tenants == most free cores,
  // and the full scan's first-strictly-better tie-break == lowest index —
  // the head of the highest non-empty free-core bucket.
  return index.least_loaded(exclude);
}

double MrcScoringBase::predict(
    const AppSignal& hp_sig, const std::vector<const AppSignal*>& bes) const {
  const auto& machine = dir_->machine();
  const auto total_ways = machine.llc.ways;

  // The HP holds the partition it needs to stay near solo IPC (DICER's
  // steady state); everything else is the BE pool.
  const unsigned hp_ways =
      std::clamp(hp_sig.ways_needed, 1u, total_ways - 1u);
  const double be_ways = static_cast<double>(total_ways - hp_ways);

  // The BE pool splits in proportion to MRC footprint: a streaming app
  // with no reuse mass takes (and gains from) almost nothing, a deep-knee
  // app claims most of the pool. Footprint-less mixes fall back to an
  // even split.
  double footprint_sum = 0.0;
  for (const auto* s : bes) footprint_sum += s->footprint_bytes;

  pairs_scratch_.clear();
  double demand = hp_sig.bw_by_ways[hp_ways - 1];
  pairs_scratch_.push_back({hp_sig.ipc_alone, hp_sig.ipc_at_ways(hp_ways)});
  for (const auto* s : bes) {
    const double share =
        footprint_sum > 0.0
            ? be_ways * (s->footprint_bytes / footprint_sum)
            : be_ways / static_cast<double>(bes.size());
    const double w = std::clamp(share, 1.0, be_ways);
    pairs_scratch_.push_back({s->ipc_alone, s->ipc_at_ways(w)});
    demand += s->bw_by_ways[static_cast<std::size_t>(w) - 1];
  }

  // Oversubscribing the memory link slows everyone proportionally —
  // a crude but monotone stand-in for the saturating-link model.
  const double capacity = machine.link.capacity_bytes_per_sec;
  const double link_factor =
      demand > capacity && demand > 0.0 ? capacity / demand : 1.0;
  for (auto& p : pairs_scratch_) p.colocated *= link_factor;

  return metrics::effective_utilisation(pairs_scratch_);
}

double MrcScoringBase::delta_for_view(const MachineView& view,
                                      const AppSignal& app_sig) const {
  const AppSignal& hp_sig = dir_->signal(view.hp->name);
  bes_scratch_.clear();
  for (const auto* t : view.tenants) {
    bes_scratch_.push_back(&dir_->signal(t->name));
  }
  const double before = predict(hp_sig, bes_scratch_);
  bes_scratch_.push_back(&app_sig);
  return predict(hp_sig, bes_scratch_) - before;
}

double MrcScoringBase::delta_indexed(PlacementIndex& index, unsigned machine,
                                     const AppSignal& app_sig) const {
  // Dirty-score protocol: a clean (machine, app) pair is a cached double
  // — bit-identical to recomputation because predict() is pure. A dirty
  // machine recomputes at most one "before" (shared by every app scored
  // against this tenant set) plus one "after" per distinct arriving app.
  if (index.has_delta(machine, app_sig.id)) {
    return index.delta(machine, app_sig.id);
  }
  const AppSignal& hp_sig = index.hp_signal(machine);
  index.tenant_signals(machine, bes_scratch_);
  double before;
  if (index.has_before(machine)) {
    before = index.before(machine);
  } else {
    before = predict(hp_sig, bes_scratch_);
    index.set_before(machine, before);
  }
  bes_scratch_.push_back(&app_sig);
  const double delta = predict(hp_sig, bes_scratch_) - before;
  index.set_delta(machine, app_sig.id, delta);
  return delta;
}

double MrcBestFitPlacement::score(const sim::AppProfile& app,
                                  const MachineView& view) const {
  bes_scratch_.clear();
  for (const auto* t : view.tenants) {
    bes_scratch_.push_back(&dir_->signal(t->name));
  }
  bes_scratch_.push_back(&dir_->signal(app.name));
  return predict(dir_->signal(view.hp->name), bes_scratch_);
}

std::optional<unsigned> MrcBestFitPlacement::place(
    const sim::AppProfile& app, const std::vector<MachineView>& views) {
  // Greedy on the *marginal* EFU: the fleet metric is the mean of
  // per-machine EFUs and placing on machine m changes only m's term, so
  // the fleet-optimal greedy picks the machine whose predicted EFU drops
  // least (or rises most) when the tenant joins. Maximising the absolute
  // post-placement score instead would chase machines that score well
  // regardless of the tenant.
  const AppSignal& app_sig = dir_->signal(app.name);
  std::optional<unsigned> best;
  double best_delta = 0.0;
  for (const MachineView& v : views) {
    if (v.free_cores == 0) continue;
    const double delta = delta_for_view(v, app_sig);
    if (!best || delta > best_delta) {
      best = v.index;
      best_delta = delta;
    }
  }
  return best;
}

std::optional<unsigned> MrcBestFitPlacement::place_indexed(
    const sim::AppProfile& app, PlacementIndex& index,
    std::optional<unsigned> exclude) {
  // The same first-strictly-better scan in index order; clean machines
  // answer from the dirty-score caches instead of re-running predict().
  const AppSignal& app_sig = dir_->signal(app.name);
  std::optional<unsigned> best;
  double best_delta = 0.0;
  const std::size_t n = index.size();  // read once, not reloaded per call
  for (unsigned m = 0; m < n; ++m) {
    if (index.free_cores(m) == 0 || (exclude && *exclude == m)) continue;
    const double delta = delta_indexed(index, m, app_sig);
    if (!best || delta > best_delta) {
      best = m;
      best_delta = delta;
    }
  }
  return best;
}

MrcP2cPlacement::MrcP2cPlacement(const AppDirectory& directory,
                                 std::uint64_t seed, unsigned choices)
    : MrcScoringBase(directory), rng_(seed), choices_(choices) {
  if (choices == 0) {
    throw std::invalid_argument(
        "MrcP2cPlacement: need at least one choice (d >= 1)");
  }
}

template <typename DeltaFn>
std::optional<unsigned> MrcP2cPlacement::pick(
    const std::vector<unsigned>& draws, DeltaFn&& delta_of) {
  std::optional<unsigned> best;
  double best_delta = 0.0;
  for (std::size_t j = 0; j < draws.size(); ++j) {
    const unsigned m = draws[j];
    bool repeat = false;
    for (std::size_t i = 0; i < j; ++i) {
      if (draws[i] == m) {
        repeat = true;
        break;
      }
    }
    if (repeat) continue;
    const double delta = delta_of(m);
    if (!best || delta > best_delta) {
      best = m;
      best_delta = delta;
    }
  }
  return best;
}

std::optional<unsigned> MrcP2cPlacement::place(
    const sim::AppProfile& app, const std::vector<MachineView>& views) {
  const AppSignal& app_sig = dir_->signal(app.name);
  open_scratch_.clear();
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (views[i].free_cores > 0) {
      open_scratch_.push_back(static_cast<unsigned>(i));
    }
  }
  if (open_scratch_.empty()) return std::nullopt;
  draw_scratch_.clear();
  for (unsigned j = 0; j < choices_; ++j) {
    draw_scratch_.push_back(
        views[open_scratch_[rng_.below(open_scratch_.size())]].index);
  }
  // Candidates scored in draw order; with views in index order this is the
  // same draw -> machine mapping (and RNG consumption) as the indexed path.
  return pick(draw_scratch_, [&](unsigned m) {
    for (const auto& v : views) {
      if (v.index == m) return delta_for_view(v, app_sig);
    }
    throw std::logic_error("MrcP2cPlacement: drawn machine left the views");
  });
}

std::optional<unsigned> MrcP2cPlacement::place_indexed(
    const sim::AppProfile& app, PlacementIndex& index,
    std::optional<unsigned> exclude) {
  const AppSignal& app_sig = dir_->signal(app.name);
  const bool excl_open =
      exclude && *exclude < index.size() && index.is_open(*exclude);
  const std::uint64_t count = index.open_count() - (excl_open ? 1 : 0);
  if (count == 0) return std::nullopt;
  draw_scratch_.clear();
  for (unsigned j = 0; j < choices_; ++j) {
    std::uint64_t k = rng_.below(count);
    if (excl_open && k >= index.open_rank(*exclude)) ++k;
    draw_scratch_.push_back(index.nth_open(k));
  }
  return pick(draw_scratch_, [&](unsigned m) {
    return delta_indexed(index, m, app_sig);
  });
}

std::unique_ptr<PlacementEngine> make_placement(const std::string& name,
                                                const AppDirectory& directory,
                                                std::uint64_t seed,
                                                unsigned p2c_choices) {
  if (name == "random") return std::make_unique<RandomPlacement>(seed);
  if (name == "least-loaded") return std::make_unique<LeastLoadedPlacement>();
  if (name == "mrc") return std::make_unique<MrcBestFitPlacement>(directory);
  if (name == "mrc-p2c") {
    return std::make_unique<MrcP2cPlacement>(directory, seed, p2c_choices);
  }
  throw std::invalid_argument("make_placement: unknown engine '" + name +
                              "' (try random, least-loaded, mrc, mrc-p2c)");
}

std::vector<std::string> known_placements() {
  return {"random", "least-loaded", "mrc", "mrc-p2c"};
}

}  // namespace dicer::fleet
