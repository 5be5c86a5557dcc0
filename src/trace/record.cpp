#include "trace/record.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace smpi::trace {

namespace {

// One field of a record: an integer or list member of TiRecord, the
// reduction-op commutativity flag (written 1 or 0, any nonzero reads as 1),
// or the %.17g value. A default Field ends a row's field list.
struct Field {
  enum Kind : unsigned char { kEnd, kInteger, kList, kFlag, kValue } kind = kEnd;
  long long TiRecord::*integer = nullptr;
  std::vector<long long> TiRecord::*list = nullptr;
};

constexpr Field kValue{Field::kValue};
constexpr Field kFlag{Field::kFlag};
constexpr Field kPeer{Field::kInteger, &TiRecord::peer};
constexpr Field kCount{Field::kInteger, &TiRecord::count};
constexpr Field kElem{Field::kInteger, &TiRecord::elem};
constexpr Field kTag{Field::kInteger, &TiRecord::tag};
constexpr Field kReq{Field::kInteger, &TiRecord::req};
constexpr Field kPeer2{Field::kInteger, &TiRecord::peer2};
constexpr Field kCount2{Field::kInteger, &TiRecord::count2};
constexpr Field kElem2{Field::kInteger, &TiRecord::elem2};
constexpr Field kTag2{Field::kInteger, &TiRecord::tag2};
constexpr Field kReqs{Field::kList, nullptr, &TiRecord::reqs};
constexpr Field kCounts{Field::kList, nullptr, &TiRecord::counts};
constexpr Field kCounts2{Field::kList, nullptr, &TiRecord::counts2};

// The record format: one row per op, in TiOp order. A line is the op's name
// followed by its fields in row order, blank-separated; a packed record
// (TiRecords) is the op's byte followed by the same fields in the same
// order.
struct OpFormat {
  TiOp op;
  std::string_view name;
  bool collective;
  Field fields[8];
};

constexpr OpFormat kFormats[] = {
    {TiOp::kInit, "init", false, {}},
    {TiOp::kFinalize, "finalize", false, {}},
    {TiOp::kCompute, "compute", false, {kValue}},
    {TiOp::kSleep, "sleep", false, {kValue}},
    {TiOp::kSend, "send", false, {kPeer, kCount, kElem, kTag}},
    {TiOp::kIsend, "isend", false, {kPeer, kCount, kElem, kTag, kReq}},
    {TiOp::kRecv, "recv", false, {kPeer, kCount, kElem, kTag}},
    {TiOp::kIrecv, "irecv", false, {kPeer, kCount, kElem, kTag, kReq}},
    {TiOp::kWait, "wait", false, {kReq}},
    {TiOp::kWaitall, "waitall", false, {kReqs}},
    {TiOp::kReqFree, "reqfree", false, {kReq}},
    {TiOp::kProbe, "probe", false, {kPeer, kTag}},
    {TiOp::kSendrecv, "sendrecv", false,
     {kPeer, kCount, kElem, kTag, kPeer2, kCount2, kElem2, kTag2}},
    {TiOp::kBarrier, "barrier", true, {}},
    {TiOp::kBcast, "bcast", true, {kCount, kElem, kPeer}},
    {TiOp::kReduce, "reduce", true, {kCount, kElem, kPeer, kFlag}},
    {TiOp::kAllreduce, "allreduce", true, {kCount, kElem, kFlag}},
    {TiOp::kScan, "scan", true, {kCount, kElem, kFlag}},
    {TiOp::kGather, "gather", true, {kCount, kElem, kCount2, kElem2, kPeer}},
    {TiOp::kGatherv, "gatherv", true, {kCount, kElem, kElem2, kPeer, kCounts}},
    {TiOp::kScatter, "scatter", true, {kCount, kElem, kCount2, kElem2, kPeer}},
    {TiOp::kScatterv, "scatterv", true, {kCount2, kElem2, kElem, kPeer, kCounts}},
    {TiOp::kAllgather, "allgather", true, {kCount, kElem, kCount2, kElem2}},
    {TiOp::kAllgatherv, "allgatherv", true, {kCount, kElem, kElem2, kCounts}},
    {TiOp::kAlltoall, "alltoall", true, {kCount, kElem, kCount2, kElem2}},
    {TiOp::kAlltoallv, "alltoallv", true, {kElem, kElem2, kCounts, kCounts2}},
    {TiOp::kReduceScatter, "reducescatter", true, {kElem, kFlag, kCounts}},
};

constexpr bool formats_in_op_order() {
  int i = 0;
  for (const OpFormat& row : kFormats) {
    if (static_cast<int>(row.op) != i++) return false;
  }
  return i == static_cast<int>(TiOp::kReduceScatter) + 1;
}
static_assert(formats_in_op_order(), "kFormats must hold one row per TiOp, in TiOp order");

const OpFormat& format_of(TiOp op) { return kFormats[static_cast<std::size_t>(op)]; }

void append_double(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), " %.17g", value);
  out += buf;
}

void append_ll(std::string& out, long long value) {
  out += ' ';
  out += std::to_string(value);
}

void append_list(std::string& out, const std::vector<long long>& values) {
  append_ll(out, static_cast<long long>(values.size()));
  for (long long v : values) append_ll(out, v);
}

// Reads one record line token by token. Tokens are separated by spaces,
// tabs or carriage returns, and a number must fill its whole token: `0x10`,
// `1.5abc` and `4.5` (where an integer is due) are rejected, not truncated.
class Cursor {
 public:
  explicit Cursor(std::string_view line) : pos_(line.data()), end_(line.data() + line.size()) {}

  std::string_view token() {
    skip_blanks();
    const char* start = pos_;
    while (pos_ != end_ && !is_blank(*pos_)) ++pos_;
    return {start, static_cast<std::size_t>(pos_ - start)};
  }

  bool read(long long* out) { return read_number(out); }

  // Doubles are %.17g text; from_chars is correctly rounded, so they
  // round-trip bit-exactly. inf, nan and overflow are rejected.
  bool read(double* out) { return read_number(out) && std::isfinite(*out); }

  // `<k> <v1> ... <vk>`. Each element needs at least a separator and a
  // digit, so a k the rest of the line cannot hold is rejected before
  // anything is allocated.
  bool read(std::vector<long long>* out) {
    long long k = 0;
    if (!read(&k) || k < 0 || k > (end_ - pos_) / 2) return false;
    out->resize(static_cast<std::size_t>(k));
    for (long long& v : *out) {
      if (!read(&v)) return false;
    }
    return true;
  }

  bool at_end() {
    skip_blanks();
    return pos_ == end_;
  }

 private:
  static bool is_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

  void skip_blanks() {
    while (pos_ != end_ && is_blank(*pos_)) ++pos_;
  }

  template <typename T>
  bool read_number(T* out) {
    skip_blanks();
    const auto [next, ec] = std::from_chars(pos_, end_, *out);
    if (ec != std::errc() || (next != end_ && !is_blank(*next))) return false;
    pos_ = next;
    return true;
  }

  const char* pos_;
  const char* end_;
};

bool read_field(Cursor& in, const Field& field, TiRecord* r) {
  switch (field.kind) {
    case Field::kInteger:
      return in.read(&(r->*field.integer));
    case Field::kList:
      return in.read(&(r->*field.list));
    case Field::kValue:
      return in.read(&r->value);
    case Field::kFlag: {
      long long flag = 0;
      if (!in.read(&flag)) return false;
      r->commutative = flag != 0;
      return true;
    }
    case Field::kEnd:
      break;
  }
  return true;
}

// --- packed form -------------------------------------------------------------

void put_varint(std::vector<unsigned char>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<unsigned char>(value | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<unsigned char>(value));
}

// Zigzag maps small magnitudes of either sign to small unsigned values, so
// the -1/-2 sentinels take one byte like small ranks do.
void put_integer(std::vector<unsigned char>& out, long long value) {
  const auto bits = static_cast<std::uint64_t>(value);
  put_varint(out, (bits << 1) ^ (value < 0 ? ~std::uint64_t{0} : 0));
}

std::uint64_t get_varint(const unsigned char*& in) {
  std::uint64_t value = 0;
  for (int shift = 0;; shift += 7) {
    const unsigned char byte = *in++;
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
  }
}

long long get_integer(const unsigned char*& in) {
  const std::uint64_t zigzag = get_varint(in);
  return static_cast<long long>((zigzag >> 1) ^ (0 - (zigzag & 1)));
}

void pack_record(std::vector<unsigned char>& out, const TiRecord& r) {
  const OpFormat& format = format_of(r.op);
  out.push_back(static_cast<unsigned char>(r.op));
  for (const Field& field : format.fields) {
    switch (field.kind) {
      case Field::kInteger:
        put_integer(out, r.*field.integer);
        break;
      case Field::kList: {
        const std::vector<long long>& list = r.*field.list;
        put_varint(out, list.size());
        for (long long v : list) put_integer(out, v);
        break;
      }
      case Field::kValue: {
        unsigned char raw[sizeof(double)];
        std::memcpy(raw, &r.value, sizeof(raw));
        out.insert(out.end(), raw, raw + sizeof(raw));
        break;
      }
      case Field::kFlag:
        out.push_back(r.commutative ? 1 : 0);
        break;
      case Field::kEnd:
        return;
    }
  }
}

// Decodes the packed record at `in` into *r, which ends up equal to what
// parse_record makes of the record's line; returns where the next record
// starts. The lists keep their capacity for the next record.
const unsigned char* unpack_record(const unsigned char* in, TiRecord* r) {
  TiRecord blank;
  blank.reqs.swap(r->reqs);
  blank.counts.swap(r->counts);
  blank.counts2.swap(r->counts2);
  *r = std::move(blank);
  r->reqs.clear();
  r->counts.clear();
  r->counts2.clear();
  r->op = static_cast<TiOp>(*in++);
  for (const Field& field : format_of(r->op).fields) {
    switch (field.kind) {
      case Field::kInteger:
        r->*field.integer = get_integer(in);
        break;
      case Field::kList: {
        std::vector<long long>& list = r->*field.list;
        list.resize(static_cast<std::size_t>(get_varint(in)));
        for (long long& v : list) v = get_integer(in);
        break;
      }
      case Field::kValue:
        std::memcpy(&r->value, in, sizeof(r->value));
        in += sizeof(r->value);
        break;
      case Field::kFlag:
        r->commutative = *in++ != 0;
        break;
      case Field::kEnd:
        return in;
    }
  }
  return in;
}

}  // namespace

const char* ti_op_name(TiOp op) { return format_of(op).name.data(); }

bool ti_op_is_collective(TiOp op) { return format_of(op).collective; }

bool ti_op_from_name(std::string_view name, TiOp* out) {
  for (const OpFormat& row : kFormats) {
    if (name == row.name) {
      *out = row.op;
      return true;
    }
  }
  return false;
}

std::string serialize_record(const TiRecord& r) {
  const OpFormat& format = format_of(r.op);
  std::string out(format.name);
  for (const Field& field : format.fields) {
    switch (field.kind) {
      case Field::kInteger:
        append_ll(out, r.*field.integer);
        break;
      case Field::kList:
        append_list(out, r.*field.list);
        break;
      case Field::kValue:
        append_double(out, r.value);
        break;
      case Field::kFlag:
        append_ll(out, r.commutative ? 1 : 0);
        break;
      case Field::kEnd:
        return out;
    }
  }
  return out;
}

bool parse_record(std::string_view line, TiRecord* out) {
  Cursor in(line);
  *out = TiRecord{};
  if (!ti_op_from_name(in.token(), &out->op)) return false;
  for (const Field& field : format_of(out->op).fields) {
    if (field.kind == Field::kEnd) break;
    if (!read_field(in, field, out)) return false;
  }
  return in.at_end();
}

void TiRecords::push_back(const TiRecord& record) {
  back_offset_ = bytes_.size();
  pack_record(bytes_, record);
  ++size_;
}

TiRecord TiRecords::front() const {
  TiRecord record;
  unpack_record(bytes_.data(), &record);
  return record;
}

TiRecord TiRecords::back() const {
  TiRecord record;
  unpack_record(bytes_.data() + back_offset_, &record);
  return record;
}

void TiRecords::const_iterator::decode() {
  if (pos_ != end_) next_ = unpack_record(pos_, &record_);
}

}  // namespace smpi::trace
