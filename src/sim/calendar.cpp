#include "sim/calendar.hpp"

#include "sim/model.hpp"
#include "util/check.hpp"

namespace smpi::sim {

EventCalendar& Model::calendar() const {
  SMPI_REQUIRE(calendar_ != nullptr, "model not registered with an engine (add_model)");
  return *calendar_;
}

std::size_t EventCalendar::find_slot(Handle handle) const {
  // kNoEvent would otherwise compare equal to a *free* node's sentinel.
  if (handle == kNoEvent) return kNpos;
  const std::size_t node = static_cast<std::size_t>(handle >> kSeqBits);
  if (node >= node_handle_.size() || node_handle_[node] != handle) return kNpos;
  return pos_[node];
}

void EventCalendar::place(std::size_t i, const Entry& entry) {
  heap_[i] = entry;
  pos_[entry.node] = i;
}

void EventCalendar::sift_up(std::size_t i) {
  const Entry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(entry, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, entry);
}

void EventCalendar::sift_down(std::size_t i) {
  const Entry entry = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], entry)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, entry);
}

void EventCalendar::remove_at(std::size_t i) {
  const std::uint32_t node = heap_[i].node;
  node_handle_[node] = kNoEvent;
  free_nodes_.push_back(node);
  const std::size_t last = heap_.size() - 1;
  if (i != last) {
    const Entry moved = heap_[last];
    heap_.pop_back();
    place(i, moved);
    // The moved entry may need to travel either way.
    sift_up(i);
    sift_down(pos_[moved.node]);
  } else {
    heap_.pop_back();
  }
}

EventCalendar::Handle EventCalendar::schedule(double date, Model* owner, std::uint64_t tag) {
  SMPI_REQUIRE(owner != nullptr, "calendar entry without an owner");
  SMPI_REQUIRE(date >= 0 && date < kNever, "calendar entry needs a finite date");
  const std::uint64_t seq = sequence_++;
  SMPI_REQUIRE(seq <= kSeqMask, "calendar sequence overflow");
  std::uint32_t node;
  if (!free_nodes_.empty()) {
    node = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    node = static_cast<std::uint32_t>(pos_.size());
    pos_.push_back(0);
    node_handle_.push_back(kNoEvent);
    node_data_.push_back(NodeData{});
  }
  const Handle handle = (static_cast<Handle>(node) << kSeqBits) | seq;
  node_handle_[node] = handle;
  node_data_[node] = NodeData{owner, tag};
  heap_.push_back(Entry{date, seq, node});
  sift_up(heap_.size() - 1);  // its final place() records the slot
  return handle;
}

bool EventCalendar::update(Handle handle, double date) {
  SMPI_REQUIRE(date >= 0 && date < kNever, "calendar entry needs a finite date");
  const std::size_t i = find_slot(handle);
  if (i == kNpos) return false;
  const double old_date = heap_[i].date;
  if (date == old_date) return true;
  heap_[i].date = date;
  if (date < old_date) {
    sift_up(i);
  } else {
    sift_down(i);
  }
  return true;
}

void EventCalendar::cancel(Handle handle) {
  // Cancelling an entry that already fired (or was never scheduled) must
  // stay a true no-op.
  if (handle == kNoEvent) return;
  const std::size_t i = find_slot(handle);
  if (i == kNpos) return;
  remove_at(i);
}

double EventCalendar::next_date() const {
  return heap_.empty() ? kNever : heap_.front().date;
}

bool EventCalendar::pop_due(double now, Fired* out) {
  if (heap_.empty() || heap_.front().date > now) return false;
  const NodeData& data = node_data_[heap_.front().node];
  out->owner = data.owner;
  out->tag = data.tag;
  remove_at(0);
  return true;
}

}  // namespace smpi::sim
