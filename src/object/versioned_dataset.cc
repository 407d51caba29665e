#include "object/versioned_dataset.h"

#include <chrono>

#include "common/check.h"

namespace osd {

// ---------------------------------------------------------------- PinTable

void VersionedDataset::PinTable::Pin(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu);
  ++pins[epoch];
  ++total;
}

void VersionedDataset::PinTable::Unpin(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu);
  auto it = pins.find(epoch);
  OSD_CHECK(it != pins.end() && it->second > 0);
  if (--it->second == 0) pins.erase(it);
  --total;
}

// ---------------------------------------------------------------- Snapshot

VersionedDataset::Snapshot::Snapshot(std::shared_ptr<const State> state,
                                     std::shared_ptr<PinTable> pins)
    : state_(std::move(state)), pins_(std::move(pins)) {
  if (state_ != nullptr && pins_ != nullptr) pins_->Pin(state_->epoch);
}

VersionedDataset::Snapshot::Snapshot(const Snapshot& other)
    : state_(other.state_), pins_(other.pins_) {
  if (state_ != nullptr && pins_ != nullptr) pins_->Pin(state_->epoch);
}

VersionedDataset::Snapshot& VersionedDataset::Snapshot::operator=(
    const Snapshot& other) {
  if (this != &other) {
    Unpin();
    state_ = other.state_;
    pins_ = other.pins_;
    if (state_ != nullptr && pins_ != nullptr) pins_->Pin(state_->epoch);
  }
  return *this;
}

VersionedDataset::Snapshot::Snapshot(Snapshot&& other) noexcept
    : state_(std::move(other.state_)), pins_(std::move(other.pins_)) {
  other.state_.reset();
  other.pins_.reset();
}

VersionedDataset::Snapshot& VersionedDataset::Snapshot::operator=(
    Snapshot&& other) noexcept {
  if (this != &other) {
    Unpin();
    state_ = std::move(other.state_);
    pins_ = std::move(other.pins_);
    other.state_.reset();
    other.pins_.reset();
  }
  return *this;
}

VersionedDataset::Snapshot::~Snapshot() { Unpin(); }

VersionedDataset::Snapshot VersionedDataset::Snapshot::Borrow(
    const Dataset& dataset) {
  // Aliasing constructor over an empty owner: a non-owning pointer with no
  // control block, so the state never frees the caller's dataset.
  return Snapshot(MakeState(std::shared_ptr<const Dataset>(
                                std::shared_ptr<const Dataset>(), &dataset),
                            /*epoch=*/0, /*log_pos=*/0),
                  /*pins=*/nullptr);
}

void VersionedDataset::Snapshot::Unpin() {
  if (state_ != nullptr && pins_ != nullptr) pins_->Unpin(state_->epoch);
  state_.reset();
  pins_.reset();
}

uint64_t VersionedDataset::Snapshot::epoch() const {
  return state_ == nullptr ? 0 : state_->epoch;
}

int VersionedDataset::Snapshot::dim() const {
  if (state_ == nullptr) return 0;
  if (state_->base->dim() != 0) return state_->base->dim();
  return state_->delta.empty() ? 0 : state_->delta.front()->dim();
}

int VersionedDataset::Snapshot::base_size() const {
  return state_ == nullptr ? 0 : state_->base->size();
}

int VersionedDataset::Snapshot::size() const {
  return state_ == nullptr
             ? 0
             : state_->base->size() + static_cast<int>(state_->delta.size());
}

int VersionedDataset::Snapshot::live_size() const {
  return state_ == nullptr
             ? 0
             : state_->base->size() - state_->tombstone_count +
                   static_cast<int>(state_->delta.size());
}

const UncertainObject& VersionedDataset::Snapshot::object(int i) const {
  OSD_DCHECK(state_ != nullptr && i >= 0 && i < size());
  const int nbase = state_->base->size();
  if (i < nbase) return state_->base->object(i);
  return *state_->delta[static_cast<size_t>(i - nbase)];
}

bool VersionedDataset::Snapshot::deleted(int i) const {
  OSD_DCHECK(state_ != nullptr && i >= 0 && i < size());
  return i < state_->base->size() && state_->tombstone[i] != 0;
}

const RTree& VersionedDataset::Snapshot::global_tree() const {
  OSD_DCHECK(state_ != nullptr);
  return state_->base->global_tree();
}

int VersionedDataset::Snapshot::IndexOf(int ext_id) const {
  if (state_ == nullptr) return -1;
  auto dit = state_->delta_ids.find(ext_id);
  if (dit != state_->delta_ids.end()) {
    return state_->base->size() + dit->second;
  }
  auto bit = state_->base_ids->find(ext_id);
  if (bit != state_->base_ids->end() && state_->tombstone[bit->second] == 0) {
    return bit->second;
  }
  return -1;
}

// --------------------------------------------------------- VersionedDataset

std::shared_ptr<VersionedDataset::State> VersionedDataset::MakeState(
    std::shared_ptr<const Dataset> base, uint64_t epoch, size_t log_pos) {
  auto s = std::make_shared<State>();
  s->epoch = epoch;
  s->log_pos = log_pos;
  auto ids = std::make_shared<std::unordered_map<int, int>>();
  ids->reserve(base->size());
  for (int i = 0; i < base->size(); ++i) {
    ids->emplace(base->object(i).id(), i);  // first occurrence wins
  }
  s->tombstone.assign(base->size(), 0);
  s->base_ids = std::move(ids);
  s->base = std::move(base);
  return s;
}

VersionedDataset::VersionedDataset(Dataset base, memory::MemoryBudget* budget)
    : budget_(budget), pins_(std::make_shared<PinTable>()) {
  current_ = MakeState(std::make_shared<const Dataset>(std::move(base)),
                       /*epoch=*/0, /*log_pos=*/0);
  dim_ = current_->base->dim();
}

VersionedDataset::~VersionedDataset() { StopFoldThread(); }

VersionedDataset::Snapshot VersionedDataset::Acquire() const {
  std::shared_ptr<const State> s;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    s = current_;
  }
  return Snapshot(std::move(s), pins_);
}

long VersionedDataset::ApproxObjectBytes(const UncertainObject& obj) {
  const long m = obj.num_instances();
  const long d = obj.dim();
  // Row-major coords + probs + padded SoA block, plus a fixed overhead for
  // the object shell and its lazy-tree slot. Logical bytes, like every
  // other budget charge.
  return (m * d + m + d * static_cast<long>(obj.soa_stride())) * 8 + 256;
}

bool VersionedDataset::ValidateOp(const State& s, const Mutation& op,
                                  int op_index, int dim, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = "op #" + std::to_string(op_index) + ": " + msg;
    }
    return false;
  };
  if (op.id < 0) {
    return fail("negative object id " + std::to_string(op.id));
  }
  const bool in_delta = s.delta_ids.count(op.id) != 0;
  bool live = in_delta;
  if (!live) {
    auto bit = s.base_ids->find(op.id);
    live = bit != s.base_ids->end() && s.tombstone[bit->second] == 0;
  }
  if (op.kind == Mutation::Kind::kDelete) {
    if (!live) {
      return fail("delete of unknown or deleted object id " +
                  std::to_string(op.id));
    }
    return true;
  }
  // Insert / update carry a payload.
  if (op.object == nullptr) {
    return fail(std::string(op.kind == Mutation::Kind::kInsert ? "insert"
                                                               : "update") +
                " with no object payload");
  }
  if (op.object->id() != op.id) {
    return fail("payload id " + std::to_string(op.object->id()) +
                " does not match op id " + std::to_string(op.id));
  }
  if (dim > 0 && op.object->dim() != dim) {
    return fail("object dimension " + std::to_string(op.object->dim()) +
                " does not match store dimension " + std::to_string(dim));
  }
  if (op.kind == Mutation::Kind::kInsert && live) {
    return fail("insert of already-live object id " + std::to_string(op.id));
  }
  if (op.kind == Mutation::Kind::kUpdate && !live) {
    return fail("update of unknown or deleted object id " +
                std::to_string(op.id));
  }
  return true;
}

void VersionedDataset::ApplyOne(State* s, const Mutation& op) {
  switch (op.kind) {
    case Mutation::Kind::kInsert: {
      s->delta.push_back(op.object);
      s->delta_ids[op.id] = static_cast<int>(s->delta.size()) - 1;
      return;
    }
    case Mutation::Kind::kDelete: {
      auto dit = s->delta_ids.find(op.id);
      if (dit != s->delta_ids.end()) {
        const int idx = dit->second;
        s->delta.erase(s->delta.begin() + idx);
        s->delta_ids.erase(dit);
        for (auto& [id, pos] : s->delta_ids) {
          if (pos > idx) --pos;
        }
      } else {
        const int idx = s->base_ids->at(op.id);
        s->tombstone[idx] = 1;
        ++s->tombstone_count;
      }
      return;
    }
    case Mutation::Kind::kUpdate: {
      auto dit = s->delta_ids.find(op.id);
      if (dit != s->delta_ids.end()) {
        s->delta[dit->second] = op.object;
      } else {
        const int idx = s->base_ids->at(op.id);
        s->tombstone[idx] = 1;
        ++s->tombstone_count;
        s->delta.push_back(op.object);
        s->delta_ids[op.id] = static_cast<int>(s->delta.size()) - 1;
      }
      return;
    }
  }
}

bool VersionedDataset::Apply(std::vector<Mutation> ops, std::string* error,
                             uint64_t* epoch_out, uint64_t* seq_out) {
  if (ops.empty()) {
    if (error != nullptr) *error = "empty mutation batch";
    return false;
  }
  uint64_t published = 0;
  uint64_t seq = 0;
  bool force_fold = false;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    // Copy-on-write successor: shared_ptr copies for base/base_ids/delta
    // objects, value copies for the small index structures.
    State work = *current_;
    work.epoch = current_->epoch + 1;
    int dim = dim_;
    for (size_t i = 0; i < ops.size(); ++i) {
      Mutation& op = ops[i];
      // Validate against the *evolving* state so one batch may insert an
      // object and then update it; failure anywhere discards `work`
      // unpublished (and runs the budget-release deleters of any payloads
      // it already holds).
      if (!ValidateOp(work, op, static_cast<int>(i), dim, error)) {
        return false;
      }
      // A delete's payload is documented as ignored, and ValidateOp
      // deliberately skips payload checks for deletes — so drop any stray
      // payload HERE, before the charge/dim logic below can bill the
      // budget for it or fix an empty store's dimension from an
      // unvalidated object. (The wire parser rejects delete+instances;
      // this closes the same hole for the public Apply API.)
      if (op.kind == Mutation::Kind::kDelete) op.object = nullptr;
      if (op.object != nullptr) {
        if (dim == 0) dim = op.object->dim();
        const long bytes = ApproxObjectBytes(*op.object);
        if (budget_ != nullptr) {
          if (!budget_->TryCharge(bytes)) {
            if (error != nullptr) {
              *error = "op #" + std::to_string(i) +
                       ": memory budget refused " + std::to_string(bytes) +
                       " bytes (engine over its mutation cap; retry later)";
            }
            return false;
          }
          // Deleter-owning wrapper: the charge is returned when the last
          // state/snapshot referencing this delta object retires.
          memory::MemoryBudget* budget = budget_;
          std::shared_ptr<const UncertainObject> inner = std::move(op.object);
          op.object = std::shared_ptr<const UncertainObject>(
              inner.get(),
              [inner, budget, bytes](const UncertainObject*) mutable {
                inner.reset();
                budget->Release(bytes);
              });
        }
      }
      ApplyOne(&work, op);
    }
    // Durability barrier: the fully validated, budget-charged batch goes
    // to the sink (which fsyncs) *before* anything is published. A sink
    // refusal discards `work` exactly like a validation failure — the
    // budget deleters of charged payloads run when `ops` destructs — so a
    // batch is either durable and published or neither.
    if (sink_ != nullptr) {
      seq = last_seq_ + 1;
      if (!sink_->Append(seq, ops, error)) return false;
      last_seq_ = seq;
    }
    for (Mutation& op : ops) log_.push_back(std::move(op));
    work.log_pos = log_.size();
    dim_ = dim;
    mutations_ += ops.size();
    published = work.epoch;
    current_ = std::make_shared<const State>(std::move(work));
    force_fold = fold_backstop_ > 0 &&
                 log_.size() >= static_cast<size_t>(fold_backstop_);
  }
  if (epoch_out != nullptr) *epoch_out = published;
  if (seq_out != nullptr) *seq_out = seq;
  {
    std::lock_guard<std::mutex> lock(fold_thread_mu_);
    fold_kick_ = true;
  }
  fold_cv_.notify_all();
  // Backstop: without it, a store whose owner never folds (fold thread
  // disabled, no manual Fold) accumulates every accepted op in log_
  // forever — insert/update budget charges never drain (turning "retry
  // later" refusals permanent) and delete-only storms grow the log and
  // tombstone set without any budget cap at all. Past the threshold the
  // writer folds synchronously; when a fold thread is configured its
  // (smaller) trigger normally fires first, and a writer racing a fold
  // already in flight just blocks on fold_mu_ and no-ops once that fold
  // has drained the log — natural backpressure, still bounded.
  if (force_fold) Fold();
  return true;
}

void VersionedDataset::SetFoldBackstop(int max_unfolded_ops) {
  std::lock_guard<std::mutex> lock(state_mu_);
  fold_backstop_ = max_unfolded_ops;
}

uint64_t VersionedDataset::Fold() {
  std::lock_guard<std::mutex> fold_lock(fold_mu_);
  std::shared_ptr<const State> s;
  size_t replay_from = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    s = current_;
    // A non-empty log with an empty delta (an insert/delete churn cycle
    // that nets to nothing) must still fold: the log itself is the
    // resource being bounded, and with a sink attached the fold is what
    // rotates the WAL and takes the covering checkpoint.
    if (s->delta.empty() && s->tombstone_count == 0 && log_.empty()) {
      return s->epoch;
    }
    replay_from = s->log_pos;
  }

  // Build the folded base off-lock: live base objects in base order, then
  // delta objects in delta order — a deterministic layout, STR-packed by
  // the Dataset constructor. Writers keep publishing epochs meanwhile;
  // their ops land in log_ and are replayed below.
  std::vector<UncertainObject> objs;
  objs.reserve(static_cast<size_t>(s->base->size() - s->tombstone_count) +
               s->delta.size());
  for (int i = 0; i < s->base->size(); ++i) {
    if (s->tombstone[i] == 0) objs.push_back(s->base->object(i));
  }
  for (const auto& obj : s->delta) objs.push_back(*obj);
  auto folded = std::make_shared<const Dataset>(std::move(objs));

  uint64_t published = 0;
  DurabilitySink* sink = nullptr;
  uint64_t covers_seq = 0;
  std::shared_ptr<const State> checkpoint_state;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    std::shared_ptr<State> next =
        MakeState(std::move(folded), current_->epoch + 1, /*log_pos=*/0);
    // Replay the ops that raced the build. They were validated against
    // states descending from `s`, and the folded base holds exactly s's
    // live set, so each op stays valid here (liveness/freshness depend
    // only on the live id set, which replay evolves identically).
    for (size_t i = replay_from; i < log_.size(); ++i) {
      OSD_DCHECK(ValidateOp(*next, log_[i], static_cast<int>(i), dim_,
                            nullptr));
      ApplyOne(next.get(), log_[i]);
    }
    log_.clear();
    ++folds_;
    published = next->epoch;
    current_ = std::move(next);
    // Rotation happens under the write lock, right after the publish:
    // every appended batch has seq <= last_seq_ and is folded into
    // `current_`, and no Append can interleave before the sink switches
    // segments — so the retired segments cover exactly [.., covers_seq].
    sink = sink_;
    if (sink != nullptr) {
      covers_seq = last_seq_;
      sink->Rotate(covers_seq);
      checkpoint_state = current_;
    }
  }
  // Checkpoint off the write lock (writers proceed; fold_mu_ still held so
  // checkpoints never overlap). The pinned snapshot is the exact state at
  // covers_seq: later batches land in the *new* WAL segment.
  if (sink != nullptr) {
    sink->Checkpoint(Snapshot(std::move(checkpoint_state), pins_),
                     covers_seq);
  }
  return published;
}

void VersionedDataset::AttachDurability(DurabilitySink* sink,
                                        uint64_t last_seq) {
  std::lock_guard<std::mutex> fold_lock(fold_mu_);
  std::lock_guard<std::mutex> lock(state_mu_);
  OSD_CHECK(sink != nullptr && sink_ == nullptr);
  sink_ = sink;
  last_seq_ = last_seq;
}

void VersionedDataset::DetachDurability() {
  std::lock_guard<std::mutex> fold_lock(fold_mu_);
  std::lock_guard<std::mutex> lock(state_mu_);
  sink_ = nullptr;
}

uint64_t VersionedDataset::last_seq() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return last_seq_;
}

void VersionedDataset::StartFoldThread(double interval_s,
                                       int delta_threshold) {
  if (interval_s <= 0 && delta_threshold <= 0) return;
  OSD_CHECK(!fold_thread_.joinable());  // one fold thread at a time
  fold_stop_ = false;
  fold_kick_ = false;
  fold_thread_ = std::thread(
      [this, interval_s, delta_threshold] {
        FoldThreadMain(interval_s, delta_threshold);
      });
}

void VersionedDataset::StopFoldThread() {
  if (!fold_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(fold_thread_mu_);
    fold_stop_ = true;
  }
  fold_cv_.notify_all();
  fold_thread_.join();
  fold_stop_ = false;
}

void VersionedDataset::FoldThreadMain(double interval_s, int delta_threshold) {
  using Clock = std::chrono::steady_clock;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(interval_s > 0 ? interval_s : 3600.0));
  auto deadline = Clock::now() + interval;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(fold_thread_mu_);
      if (interval_s > 0) {
        fold_cv_.wait_until(lock, deadline,
                            [&] { return fold_stop_ || fold_kick_; });
      } else {
        fold_cv_.wait(lock, [&] { return fold_stop_ || fold_kick_; });
      }
      if (fold_stop_) return;
      fold_kick_ = false;
    }
    const bool timed_out = interval_s > 0 && Clock::now() >= deadline;
    Stats st = GetStats();
    const bool threshold_hit =
        delta_threshold > 0 && st.delta_size >= delta_threshold;
    const bool dirty = st.delta_size > 0 || st.tombstones > 0;
    if (threshold_hit || (timed_out && dirty)) Fold();
    if (timed_out) deadline = Clock::now() + interval;
  }
}

uint64_t VersionedDataset::epoch() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return current_->epoch;
}

long VersionedDataset::live_snapshots() const {
  std::lock_guard<std::mutex> lock(pins_->mu);
  return pins_->total;
}

int VersionedDataset::dim() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return dim_;
}

VersionedDataset::Stats VersionedDataset::GetStats() const {
  Stats st;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    st.epoch = current_->epoch;
    st.delta_size = static_cast<int>(current_->delta.size());
    st.tombstones = current_->tombstone_count;
    st.folds = folds_;
    st.mutations = mutations_;
    st.durable = sink_ != nullptr;
    st.last_seq = last_seq_;
  }
  st.live_snapshots = live_snapshots();
  return st;
}

}  // namespace osd
