// Time-independent (TI) trace records — the on-disk unit of the capture /
// offline-replay subsystem.
//
// A TI trace describes *what* an MPI rank did (compute this many flops, send
// this many bytes to that peer, enter this collective) but never *when*: all
// dates are recomputed by the simulator at replay time, which is what lets
// one captured run be re-simulated across arbitrary platform variants
// (the "sensibility analysis at scale" axis — capture once, re-simulate
// cheaply on any platform.xml).
//
// Traces are per-rank text files (`rank_<r>.ti`, one record per line) plus a
// `manifest.txt` naming the rank count; see docs/architecture.md for the
// full schema. Doubles are printed with %.17g so recorded flop counts
// round-trip bit-exactly — replay equivalence is asserted at 1e-9.
//
// In memory, a rank's records are one packed byte stream (TiRecords), not
// an array of TiRecord: the op table in record.cpp that defines each op's
// line also defines its packed bytes, so the text and the in-memory form
// carry the same fields and cannot drift apart.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

namespace smpi::trace {

enum class TiOp {
  kInit,
  kFinalize,
  kCompute,
  kSleep,
  kSend,
  kIsend,
  kRecv,
  kIrecv,
  kWait,
  kWaitall,
  kReqFree,
  kProbe,
  kSendrecv,
  kBarrier,
  kBcast,
  kReduce,
  kAllreduce,
  kScan,
  kGather,
  kGatherv,
  kScatter,
  kScatterv,
  kAllgather,
  kAllgatherv,
  kAlltoall,
  kAlltoallv,
  kReduceScatter,
};

// Peer / root / tag sentinels (world ranks are always >= 0).
constexpr long long kPeerAny = -1;   // MPI_ANY_SOURCE
constexpr long long kPeerNull = -2;  // MPI_PROC_NULL
constexpr long long kTagAny = -1;    // MPI_ANY_TAG

// One captured event: the interchange form that capture, generation,
// parsing and the writer build and read. Which members an op carries, and
// in what order its line and its packed bytes hold them, is the op's row in
// `kFormats`, the format table in record.cpp.
struct TiRecord {
  TiOp op = TiOp::kInit;
  double value = 0;     // compute: flops; sleep: seconds
  long long peer = 0;   // p2p: world rank or sentinel; collectives: root
  long long peer2 = 0;  // the `*2` members are sendrecv's recv side
  long long tag = 0;
  long long tag2 = 0;
  // Element count and size: bytes = count*elem, never flattened, so >2 GiB
  // messages replay within int counts. Collectives: count/elem is the send
  // side, count2/elem2 the recv side.
  long long count = 0;
  long long count2 = 0;
  long long elem = 1;
  long long elem2 = 1;
  long long req = -1;  // capture-side request id (nonblocking p2p, wait, reqfree)
  // The reduction op's commutativity: drives the same algorithm dispatch
  // the online run took.
  bool commutative = true;
  std::vector<long long> reqs;  // waitall
  // The v-variants' per-rank counts; empty on ranks that do not supply the
  // array.
  std::vector<long long> counts;
  std::vector<long long> counts2;
};

// Op <-> token-name mapping (also the Paje state names), and whether the op
// is a collective every rank must enter in the same order.
const char* ti_op_name(TiOp op);
bool ti_op_from_name(std::string_view name, TiOp* out);
bool ti_op_is_collective(TiOp op);

// One-line text form (no trailing newline) and its inverse. parse returns
// false on malformed input (an unknown op, a missing, non-decimal or
// non-finite field, or a token after the last field) and leaves *out
// unspecified.
std::string serialize_record(const TiRecord& record);
bool parse_record(std::string_view line, TiRecord* out);

// One rank's records, packed: the in-memory form of a loaded or generated
// trace. A record is its op byte followed by the fields of its kFormats
// row, in row order: integers as zigzag LEB128, the value as its 8 raw
// bytes (bit-exact), the commutativity flag as one byte, and a list as its
// length followed by its elements. Fields outside the row are not stored
// and decode to their TiRecord defaults, as in the text form. A stencil
// record packs into about 10 bytes, against sizeof(TiRecord) = 168.
class TiRecords {
 public:
  // Decodes one record at a time into a TiRecord the iterator owns and
  // reuses (lists keep their capacity), so a range-for over a rank makes no
  // allocation per record. A reference from operator* is valid only until
  // the iterator advances.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = TiRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = const TiRecord*;
    using reference = const TiRecord&;

    const_iterator() = default;

    reference operator*() const { return record_; }
    const_iterator& operator++() {
      pos_ = next_;
      decode();
      return *this;
    }
    bool operator==(const const_iterator& other) const { return pos_ == other.pos_; }
    bool operator!=(const const_iterator& other) const { return pos_ != other.pos_; }

   private:
    friend class TiRecords;
    const_iterator(const unsigned char* pos, const unsigned char* end)
        : pos_(pos), end_(end) {
      decode();
    }
    void decode();

    const unsigned char* pos_ = nullptr;
    const unsigned char* next_ = nullptr;  // the record after record_
    const unsigned char* end_ = nullptr;
    TiRecord record_;
  };

  void push_back(const TiRecord& record);
  // Releases the stream's spare capacity once a rank is complete.
  void shrink_to_fit() { bytes_.shrink_to_fit(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // The first and last records, decoded. Both require !empty().
  TiRecord front() const;
  TiRecord back() const;

  const_iterator begin() const { return {bytes_.data(), bytes_.data() + bytes_.size()}; }
  const_iterator end() const {
    const unsigned char* end = bytes_.data() + bytes_.size();
    return {end, end};
  }

 private:
  std::vector<unsigned char> bytes_;
  std::size_t size_ = 0;
  std::size_t back_offset_ = 0;  // where the last record starts
};

}  // namespace smpi::trace
