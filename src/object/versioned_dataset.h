// Epoch-snapshotted mutable object store.
//
// The paper's algorithms (and everything built on them here) assume an
// immutable Dataset: a global STR-packed R-tree over object MBRs, stable
// object indices, deterministic traversal. This layer adds mutability
// without giving any of that up, LSM-style:
//
//  - Every published version of the store is an immutable `State`: a bulk-
//    loaded base Dataset plus a small delta (inserted/updated objects held
//    by shared_ptr) and a tombstone bitmap over the base. States are
//    refcounted; readers pin one with Acquire() and run lock-free against
//    it for as long as they like.
//  - Apply() validates a mutation batch all-or-nothing against the current
//    state, then publishes a new State at epoch E+1 by copy-on-write (the
//    delta vector copies shared_ptrs, not objects). Readers pinned at E
//    are untouched: a query is bit-identical no matter how many writes
//    land mid-flight.
//  - Fold() (synchronous, or via the background fold thread) merges the
//    delta into a fresh STR-built base. It captures the current state,
//    builds the new base off-lock, then replays the mutation-log suffix
//    that accumulated during the build — writers never stall on a fold.
//    Old states retire when their last snapshot releases. A fold
//    *backstop* (SetFoldBackstop, default 4096 ops) bounds the un-folded
//    log even when no fold policy is configured: the writer that crosses
//    it folds synchronously, so budget charges always eventually drain.
//
// Index spaces. A Snapshot exposes one contiguous index space:
// [0, base_size()) are base objects (some possibly tombstoned — check
// deleted(i)), [base_size(), size()) are delta objects. Indices are
// per-snapshot; the stable name of an object across epochs is its
// *external id* (UncertainObject::id()), which is what mutations address.
//
// Snapshots are the only read path. The store keeps no other reference to
// its epoch-0 base, which retires like any state once folded and unpinned.
//
// Memory governance. Delta objects are charged against the engine
// MemoryBudget when a batch is admitted (TryCharge refusal makes the whole
// batch fail with a recoverable error) and released when the object's last
// shared_ptr dies — i.e. when every state/snapshot referencing it has
// retired. Every base (epoch 0's and each fold's) is uncharged, so a
// store that folds and drains its snapshots returns the budget to zero.
//
// Thread-safety: all public members are safe to call concurrently.
// Acquire() is a mutex-protected pointer copy plus a pin-table bump;
// Apply() serializes on the state mutex; Fold() additionally serializes on
// a fold mutex so at most one merge builds at a time.

#ifndef OSD_OBJECT_VERSIONED_DATASET_H_
#define OSD_OBJECT_VERSIONED_DATASET_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/memory_budget.h"
#include "object/dataset.h"
#include "object/uncertain_object.h"

namespace osd {

/// One write against the store, addressed by external object id.
struct Mutation {
  enum class Kind { kInsert, kDelete, kUpdate };

  Kind kind = Kind::kInsert;
  int id = -1;  // external object id (UncertainObject::id())
  /// Payload for kInsert/kUpdate; its id() must equal `id`. Ignored for
  /// kDelete.
  std::shared_ptr<const UncertainObject> object;
};

/// Epoch-versioned mutable store over uncertain objects; see file comment.
class VersionedDataset {
 public:
  struct PinTable;
  struct State;

  /// A pinned, immutable view of one epoch. Copyable (copies re-pin) and
  /// cheap to pass by value; releases its pin on destruction. A default-
  /// constructed Snapshot is empty() and pins nothing.
  class Snapshot {
   public:
    Snapshot() = default;
    Snapshot(const Snapshot& other);
    Snapshot& operator=(const Snapshot& other);
    Snapshot(Snapshot&& other) noexcept;
    Snapshot& operator=(Snapshot&& other) noexcept;
    ~Snapshot();

    /// Epoch-0 view of an immutable Dataset, borrowed (nothing copied, no
    /// PinTable): `dataset` must outlive the Snapshot and all its copies.
    static Snapshot Borrow(const Dataset& dataset);

    bool empty() const { return state_ == nullptr; }
    uint64_t epoch() const;
    int dim() const;

    /// Number of base-dataset slots (tombstoned ones included).
    int base_size() const;
    /// Total index-space size: base slots plus delta objects.
    int size() const;
    /// Live objects: size() minus tombstoned base slots.
    int live_size() const;

    /// The object at snapshot index i (valid even when deleted(i); a
    /// tombstoned slot still holds its object for the epochs that saw it).
    const UncertainObject& object(int i) const;
    /// True iff snapshot index i is a tombstoned base slot.
    bool deleted(int i) const;
    /// Global R-tree over the *base* objects (leaf entry ids are base
    /// indices). Delta objects are not in the tree; traversals must scan
    /// [base_size(), size()) separately — NncSearch seeds them into its
    /// frontier directly.
    const RTree& global_tree() const;

    /// Snapshot index of the live object with external id `ext_id`, or -1
    /// if no live object has that id in this epoch.
    int IndexOf(int ext_id) const;

   private:
    friend class VersionedDataset;
    Snapshot(std::shared_ptr<const State> state,
             std::shared_ptr<PinTable> pins);
    void Unpin();

    std::shared_ptr<const State> state_;
    std::shared_ptr<PinTable> pins_;
  };

  /// Durability hook (implemented by io::DurableStore; defined here so the
  /// object layer stays independent of the io layer). When attached:
  ///
  ///  - Append() runs under the store's write lock, after a batch is fully
  ///    validated and budget-charged but *before* it is published. `seq` is
  ///    the batch's dense, strictly increasing sequence number. Returning
  ///    false fails the whole Apply with *error and nothing is published —
  ///    this is how "mutate_ok implies durable" holds: the publish (and
  ///    hence the ack) happens only after the sink accepted the batch.
  ///  - Rotate() runs under the write lock immediately after a fold
  ///    publishes; every sequence number <= covers_seq is folded into the
  ///    published state, so the sink may start a fresh log segment at
  ///    covers_seq + 1.
  ///  - Checkpoint() runs off the write lock (writers proceed) but still
  ///    fold-serialized, with a pinned snapshot of the freshly folded
  ///    state covering exactly covers_seq. Failures are the sink's to
  ///    absorb (keep the previous checkpoint); they must not throw.
  class DurabilitySink {
   public:
    virtual ~DurabilitySink() = default;
    virtual bool Append(uint64_t seq, const std::vector<Mutation>& ops,
                        std::string* error) = 0;
    virtual void Rotate(uint64_t covers_seq) = 0;
    virtual void Checkpoint(const Snapshot& snapshot,
                            uint64_t covers_seq) = 0;
  };

  /// Wraps `base` as epoch 0. `budget` (may be null) is charged for every
  /// admitted delta object; the base itself is uncharged.
  explicit VersionedDataset(Dataset base,
                            memory::MemoryBudget* budget = nullptr);
  ~VersionedDataset();

  VersionedDataset(const VersionedDataset&) = delete;
  VersionedDataset& operator=(const VersionedDataset&) = delete;

  /// Pins the current epoch and returns a lock-free read view of it.
  Snapshot Acquire() const;

  /// Applies `ops` as one atomic batch: either every op is valid against
  /// the current epoch and a new epoch containing all of them is
  /// published, or nothing changes and false is returned with a precise
  /// *error. Validation covers payload presence and id agreement, external
  /// id freshness (insert) / liveness (delete, update), dimension
  /// agreement with the store, and the memory budget (a TryCharge refusal
  /// fails the batch recoverably — never an abort). With a durability sink
  /// attached the validated batch is appended to it (fsync'd) before
  /// publish; a sink refusal fails the batch with the sink's error. On
  /// success *epoch_out (if non-null) receives the new epoch and *seq_out
  /// (if non-null) the batch's durable sequence number (0 when no sink is
  /// attached).
  bool Apply(std::vector<Mutation> ops, std::string* error,
             uint64_t* epoch_out = nullptr, uint64_t* seq_out = nullptr);

  /// Synchronously merges the current delta + tombstones into a fresh
  /// STR-built base and publishes it as a new epoch. Concurrent Apply()
  /// calls proceed during the build; their ops are replayed onto the
  /// folded state before it is published. No-op (returns current epoch)
  /// when there is nothing to fold. Serialized: concurrent Fold() calls
  /// queue on the fold mutex.
  uint64_t Fold();

  /// Starts the background fold thread: folds whenever the delta reaches
  /// `delta_threshold` ops (checked on every Apply) or `interval_s`
  /// seconds elapse with a non-empty delta. Either trigger may be disabled
  /// with <= 0; starting with both disabled is a no-op. Idempotent-ish:
  /// call at most once before StopFoldThread.
  void StartFoldThread(double interval_s, int delta_threshold);
  /// Stops and joins the fold thread (no final fold). Safe to call when no
  /// thread is running; the destructor calls it too.
  void StopFoldThread();

  /// Backstop bound on un-folded ops, independent of the fold thread: when
  /// an Apply leaves the mutation log at or above this many ops, the
  /// writer folds synchronously before returning. Keeps log_, tombstones,
  /// and delta budget charges bounded even for a store whose owner never
  /// configures folding (the default server/engine policy). <= 0 disables
  /// the backstop (tests only — an unbounded log grows forever).
  void SetFoldBackstop(int max_unfolded_ops);
  static constexpr int kDefaultFoldBackstop = 4096;

  /// Attaches the durability sink; subsequent Apply() batches are numbered
  /// last_seq + 1, last_seq + 2, ... and appended to it before publish,
  /// and folds rotate/checkpoint through it. `last_seq` is the sequence
  /// number already covered by recovery (0 for a fresh store). At most one
  /// sink may be attached; it must outlive the attachment. Serializes
  /// against folds, so an in-flight fold never sees the sink appear or
  /// vanish mid-merge.
  void AttachDurability(DurabilitySink* sink, uint64_t last_seq);
  /// Detaches the sink (shutdown path: detach, then seal the log). Safe
  /// when none is attached.
  void DetachDurability();
  /// Sequence number of the last batch accepted by the sink (or the value
  /// seeded by AttachDurability); 0 when never durable.
  uint64_t last_seq() const;

  /// Current epoch (0 until the first successful Apply or Fold).
  uint64_t epoch() const;
  /// Outstanding Snapshot pins across all epochs (0 when every reader has
  /// released — the leak check used by tests and the chaos harness).
  long live_snapshots() const;

  /// Store dimensionality: fixed at construction from the base, or by the
  /// first inserted object when the base was empty; 0 while unset.
  int dim() const;

  struct Stats {
    uint64_t epoch = 0;
    int delta_size = 0;      // objects in the current delta
    int tombstones = 0;      // tombstoned base slots in the current epoch
    uint64_t folds = 0;      // completed Fold() merges
    uint64_t mutations = 0;  // ops accepted across all Apply() batches
    long live_snapshots = 0;
    bool durable = false;    // a durability sink is attached
    uint64_t last_seq = 0;   // see last_seq()
  };
  Stats GetStats() const;

  /// Immutable published version; an implementation detail exposed only so
  /// Snapshot can be defined out-of-line. Treat as opaque.
  struct State {
    uint64_t epoch = 0;
    std::shared_ptr<const Dataset> base;
    // External id -> base index (first occurrence wins on duplicate ids).
    std::shared_ptr<const std::unordered_map<int, int>> base_ids;
    std::vector<std::shared_ptr<const UncertainObject>> delta;
    std::unordered_map<int, int> delta_ids;  // external id -> delta index
    std::vector<char> tombstone;             // size == base->size()
    int tombstone_count = 0;
    size_t log_pos = 0;  // mutation-log length when this state was built
  };

  /// Epoch pin accounting shared by every Snapshot of this store; outlives
  /// the store itself so a late-released Snapshot never dangles.
  struct PinTable {
    mutable std::mutex mu;
    std::map<uint64_t, long> pins;  // epoch -> outstanding snapshot count
    long total = 0;
    void Pin(uint64_t epoch);
    void Unpin(uint64_t epoch);
  };

 private:
  static std::shared_ptr<State> MakeState(std::shared_ptr<const Dataset> base,
                                          uint64_t epoch, size_t log_pos);
  // Applies one already-validated op to a mutable state (the copy-on-write
  // successor under Apply, or the folded state under replay).
  static void ApplyOne(State* s, const Mutation& op);
  // Validates `op` against `s` given the effective store dim; reports the
  // batch-relative op position in messages.
  static bool ValidateOp(const State& s, const Mutation& op, int op_index,
                         int dim, std::string* error);
  static long ApproxObjectBytes(const UncertainObject& obj);

  void FoldThreadMain(double interval_s, int delta_threshold);

  memory::MemoryBudget* const budget_;
  std::shared_ptr<PinTable> pins_;

  mutable std::mutex state_mu_;
  std::shared_ptr<const State> current_;
  std::vector<Mutation> log_;  // ops since the state Fold last consumed
  int fold_backstop_ = kDefaultFoldBackstop;  // guarded by state_mu_
  int dim_ = 0;
  uint64_t folds_ = 0;
  uint64_t mutations_ = 0;
  // Durability sink and the last sequence number it accepted; guarded by
  // state_mu_, and additionally stable for the duration of a Fold() (both
  // Attach/Detach and Fold hold fold_mu_).
  DurabilitySink* sink_ = nullptr;
  uint64_t last_seq_ = 0;

  std::mutex fold_mu_;  // serializes Fold() builds

  std::mutex fold_thread_mu_;
  std::condition_variable fold_cv_;
  std::thread fold_thread_;
  bool fold_stop_ = false;
  bool fold_kick_ = false;  // delta crossed the threshold
};

}  // namespace osd

#endif  // OSD_OBJECT_VERSIONED_DATASET_H_
