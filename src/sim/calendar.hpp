// Shared event calendar — the engine's "action heap".
//
// Instead of the engine polling every registered model for its next event on
// every step (O(models x activities) per step), models push (date, tag)
// entries into this heap whenever an allocation changes, and the engine pops
// only the earliest due entry.
//
// The heap is an *indexed* binary heap: every live entry owns a small
// recycled node id, and a side vector maps node id -> heap slot, so a rate
// change moves an action's completion entry in place (update(), one
// O(log n) sift) instead of tombstoning the old entry and pushing a fresh
// one. Under heavy reschedule churn — a 1024-flow collective re-solving on
// every completion — the tombstone scheme let dead entries pile up and every
// pop paid for skipping them; the indexed heap keeps exactly one entry per
// action, forever. Node ids keep the position table a plain vector write:
// an earlier revision tracked positions in a handle-keyed hash map, and the
// hashing inside every sift step dominated large-collective profiles.
//
// It is the engine's only event heap: model entries and engine timers (see
// Engine::add_timer) share it, so everything due at one date fires in
// (date, seq) order. Seqs are creation-ordered, so ties fire
// deterministically. A Handle packs the node id above the creation seq —
// callers treat it as opaque; liveness is checked by comparing the full
// packed value against the node's current occupant.
#pragma once

#include <cstdint>
#include <vector>

namespace smpi::sim {

class Model;

class EventCalendar {
 public:
  using Handle = std::uint64_t;
  static constexpr Handle kNoEvent = 0;

  struct Fired {
    Model* owner = nullptr;
    std::uint64_t tag = 0;
  };

  // Registers an event at `date`. `tag` is an opaque payload the owner uses
  // to find the affected activity (flow id, execution id, ...).
  Handle schedule(double date, Model* owner, std::uint64_t tag);
  // Moves a live entry to a new date in place (the action-heap decrease/
  // increase-key). Returns false when the handle is not live (already fired
  // or cancelled) — the caller schedules a fresh entry instead.
  bool update(Handle handle, double date);
  // Removes a previously scheduled entry from the heap. Safe on kNoEvent and
  // on handles that already fired (no-op).
  void cancel(Handle handle);

  // Date of the earliest live entry, or sim::kNever when none.
  double next_date() const;
  // Pops the earliest entry with date <= now into *out. Returns false when
  // no entry is due.
  bool pop_due(double now, Fired* out);

  std::size_t live_entry_count() const { return heap_.size(); }

 private:
  // Handle layout: [node id : 24][creation seq : 40]. 2^40 events and 2^24
  // simultaneous entries are both far beyond any simulation this engine can
  // hold in memory; schedule() asserts the seq bound anyway.
  static constexpr unsigned kSeqBits = 40;
  static constexpr Handle kSeqMask = (Handle{1} << kSeqBits) - 1;
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  // Heap entries carry only what the ordering needs; the (owner, tag)
  // payload lives in node-indexed side storage so each sift step moves 24
  // bytes instead of 40.
  struct Entry {
    double date;
    std::uint64_t seq;   // creation order; the deterministic tie-breaker
    std::uint32_t node;  // index into pos_ / node_handle_ / node_data_
  };
  struct NodeData {
    Model* owner;
    std::uint64_t tag;
  };

  static bool before(const Entry& a, const Entry& b) {
    return a.date != b.date ? a.date < b.date : a.seq < b.seq;
  }
  // Heap slot of a live handle, or kNpos when it already fired/cancelled.
  std::size_t find_slot(Handle handle) const;
  // Writes `entry` into slot i and records its position.
  void place(std::size_t i, const Entry& entry);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  // Removes the entry at slot i, restoring the heap property.
  void remove_at(std::size_t i);

  std::vector<Entry> heap_;
  std::vector<std::size_t> pos_;      // node id -> heap slot
  std::vector<Handle> node_handle_;   // node id -> occupying handle (kNoEvent = free)
  std::vector<NodeData> node_data_;   // node id -> event payload
  std::vector<std::uint32_t> free_nodes_;
  std::uint64_t sequence_ = 1;  // 0 is kNoEvent
};

}  // namespace smpi::sim
