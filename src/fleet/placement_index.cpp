#include "fleet/placement_index.hpp"

#include <stdexcept>

namespace dicer::fleet {

// --- OpenBits -------------------------------------------------------------

void PlacementIndex::OpenBits::push_back(bool open) {
  if (tree_.empty()) tree_.push_back(0);  // 1-based sentinel
  // Appending index j (1-based): tree_[j] covers (j - lowbit(j), j], all of
  // which is already summable from existing entries plus the new bit.
  const std::size_t j = tree_.size();
  const std::size_t lowbit = j & (~j + 1);
  const std::uint64_t v = open ? 1 : 0;
  tree_.push_back(v + prefix(j - 1) - prefix(j - lowbit));
  bits_.push_back(open);
  total_ += v;
}

void PlacementIndex::OpenBits::set(std::size_t i, bool open) {
  if (bits_[i] == open) return;
  // +1 or -1, the latter as its modulo-2^64 wrap.
  const std::uint64_t d = open ? 1 : ~std::uint64_t{0};
  bits_[i] = open;
  total_ += d;
  for (std::size_t j = i + 1; j < tree_.size(); j += j & (~j + 1)) {
    tree_[j] += d;
  }
}

std::uint64_t PlacementIndex::OpenBits::prefix(std::size_t n) const {
  std::uint64_t sum = 0;
  for (std::size_t j = n; j > 0; j -= j & (~j + 1)) sum += tree_[j];
  return sum;
}

std::size_t PlacementIndex::OpenBits::select(std::uint64_t k) const {
  if (k >= total_) {
    throw std::out_of_range("PlacementIndex: open-machine rank past end");
  }
  // Binary-lifting descent: find the largest prefix holding <= k set bits;
  // the answer is the next index.
  std::size_t pos = 0;
  std::size_t step = 1;
  const std::size_t n = bits_.size();
  while ((step << 1) <= n) step <<= 1;
  std::uint64_t remaining = k + 1;
  for (; step > 0; step >>= 1) {
    const std::size_t next = pos + step;
    if (next <= n && tree_[next] < remaining) {
      pos = next;
      remaining -= tree_[next];
    }
  }
  return pos;  // prefix(pos) == k, bits_[pos] is the k-th open machine
}

// --- PlacementIndex -------------------------------------------------------

PlacementIndex::PlacementIndex(const AppDirectory& dir, unsigned be_slots)
    : dir_(&dir), be_slots_(be_slots), by_free_(be_slots + 1) {
  if (be_slots == 0) {
    throw std::invalid_argument("PlacementIndex: need at least one BE slot");
  }
}

unsigned PlacementIndex::add_machine(const sim::AppProfile* hp) {
  const auto index = static_cast<unsigned>(slots_.size());
  Slot slot;
  slot.hp = hp;
  slot.hp_sig = &dir_->signal(hp->name);
  slot.sig_by_core.assign(be_slots_ + 1, nullptr);
  slot.app_by_core.assign(be_slots_ + 1, nullptr);
  slot.free_cores = be_slots_;
  slots_.push_back(std::move(slot));
  open_.push_back(true);
  by_free_[be_slots_].insert(index);
  return index;
}

const PlacementIndex::Slot& PlacementIndex::at(unsigned machine) const {
  if (machine >= slots_.size()) {
    throw std::out_of_range("PlacementIndex: machine index out of range");
  }
  return slots_[machine];
}

PlacementIndex::Slot& PlacementIndex::at(unsigned machine) {
  if (machine >= slots_.size()) {
    throw std::out_of_range("PlacementIndex: machine index out of range");
  }
  return slots_[machine];
}

void PlacementIndex::rebucket(unsigned machine, unsigned from, unsigned to) {
  if (from > 0) by_free_[from].erase(machine);
  if (to > 0) by_free_[to].insert(machine);
  if ((from > 0) != (to > 0)) open_.set(machine, to > 0);
}

void PlacementIndex::admit(unsigned machine, unsigned core,
                           const sim::AppProfile* app) {
  Slot& slot = at(machine);
  if (core == 0 || core > be_slots_ || slot.sig_by_core[core] != nullptr) {
    throw std::logic_error("PlacementIndex: admit to an invalid/busy core");
  }
  slot.sig_by_core[core] = &dir_->signal(app->name);
  slot.app_by_core[core] = app;
  rebucket(machine, slot.free_cores, slot.free_cores - 1);
  --slot.free_cores;
  ++slot.version;
  ++mutations_;
}

void PlacementIndex::detach(unsigned machine, unsigned core) {
  Slot& slot = at(machine);
  if (core == 0 || core > be_slots_ || slot.sig_by_core[core] == nullptr) {
    throw std::logic_error("PlacementIndex: detach from an invalid/free core");
  }
  slot.sig_by_core[core] = nullptr;
  slot.app_by_core[core] = nullptr;
  rebucket(machine, slot.free_cores, slot.free_cores + 1);
  ++slot.free_cores;
  ++slot.version;
  ++mutations_;
}

const sim::AppProfile* PlacementIndex::hp(unsigned machine) const {
  return at(machine).hp;
}

const AppSignal& PlacementIndex::hp_signal(unsigned machine) const {
  return *at(machine).hp_sig;
}

unsigned PlacementIndex::free_cores(unsigned machine) const {
  return at(machine).free_cores;
}

const sim::AppProfile* PlacementIndex::tenant(unsigned machine,
                                              unsigned core) const {
  const Slot& slot = at(machine);
  if (core == 0 || core > be_slots_) {
    throw std::out_of_range("PlacementIndex: core out of range");
  }
  return slot.app_by_core[core];
}

void PlacementIndex::tenant_signals(
    unsigned machine, std::vector<const AppSignal*>& out) const {
  const Slot& slot = at(machine);
  out.clear();
  for (unsigned c = 1; c <= be_slots_; ++c) {
    if (slot.sig_by_core[c]) out.push_back(slot.sig_by_core[c]);
  }
}

std::uint64_t PlacementIndex::open_count() const noexcept {
  return open_.total();
}

unsigned PlacementIndex::nth_open(std::uint64_t k) const {
  return static_cast<unsigned>(open_.select(k));
}

std::uint64_t PlacementIndex::open_rank(unsigned machine) const {
  return open_.prefix(machine);
}

std::optional<unsigned> PlacementIndex::least_loaded(
    std::optional<unsigned> exclude) const {
  for (unsigned f = be_slots_; f >= 1; --f) {
    for (const unsigned m : by_free_[f]) {
      if (exclude && *exclude == m) continue;
      return m;
    }
  }
  return std::nullopt;
}

std::uint64_t PlacementIndex::version(unsigned machine) const {
  return at(machine).version;
}

bool PlacementIndex::has_before(unsigned machine) const {
  const Slot& slot = at(machine);
  return slot.before_version == slot.version;
}

double PlacementIndex::before(unsigned machine) const {
  return at(machine).before;
}

void PlacementIndex::set_before(unsigned machine, double score) {
  Slot& slot = at(machine);
  slot.before = score;
  slot.before_version = slot.version;
}

bool PlacementIndex::has_delta(unsigned machine, std::size_t app_id) const {
  const Slot& slot = at(machine);
  return app_id < slot.delta_version.size() &&
         slot.delta_version[app_id] == slot.version;
}

double PlacementIndex::delta(unsigned machine, std::size_t app_id) const {
  return at(machine).delta[app_id];
}

void PlacementIndex::set_delta(unsigned machine, std::size_t app_id,
                               double delta) {
  Slot& slot = at(machine);
  if (slot.delta.empty()) {
    slot.delta.assign(dir_->size(), 0.0);
    slot.delta_version.assign(dir_->size(), 0);
  }
  slot.delta[app_id] = delta;
  slot.delta_version[app_id] = slot.version;
}

}  // namespace dicer::fleet
