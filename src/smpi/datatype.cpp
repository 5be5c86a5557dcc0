#include <cstring>

#include "smpi/internals.hpp"
#include "util/check.hpp"

namespace smpi::core {

Datatype::Datatype(BasicType basic, std::size_t size, std::string name)
    : basic_(basic),
      element_type_(basic),
      element_size_(size),
      size_(size),
      extent_(size),
      name_(std::move(name)) {
  blocks_.emplace_back(0, size);
}

namespace {
// Merge adjacent byte runs so pack/unpack touch long spans, not elements.
void coalesce_blocks(std::vector<std::pair<std::size_t, std::size_t>>& blocks) {
  std::vector<std::pair<std::size_t, std::size_t>> merged;
  for (const auto& block : blocks) {
    if (!merged.empty() && merged.back().first + merged.back().second == block.first) {
      merged.back().second += block.second;
    } else {
      merged.push_back(block);
    }
  }
  blocks = std::move(merged);
}
}  // namespace

Datatype* Datatype::contiguous(int count, Datatype* oldtype) {
  SMPI_REQUIRE(count >= 0, "negative count");
  auto* t = new Datatype();
  t->element_type_ = oldtype->element_type_;
  t->element_size_ = oldtype->element_size_;
  t->size_ = oldtype->size_ * static_cast<std::size_t>(count);
  t->extent_ = oldtype->extent_ * static_cast<std::size_t>(count);
  t->name_ = "contiguous(" + std::to_string(count) + "," + oldtype->name_ + ")";
  t->committed_ = false;
  for (int i = 0; i < count; ++i) {
    const std::size_t base = static_cast<std::size_t>(i) * oldtype->extent_;
    for (const auto& [off, len] : oldtype->blocks_) t->blocks_.emplace_back(base + off, len);
  }
  coalesce_blocks(t->blocks_);
  return t;
}

Datatype* Datatype::vector(int count, int blocklength, int stride, Datatype* oldtype) {
  SMPI_REQUIRE(count >= 0 && blocklength >= 0, "negative vector shape");
  SMPI_REQUIRE(stride >= blocklength, "overlapping vector strides are not supported");
  auto* t = new Datatype();
  t->element_type_ = oldtype->element_type_;
  t->element_size_ = oldtype->element_size_;
  t->size_ = oldtype->size_ * static_cast<std::size_t>(count) * static_cast<std::size_t>(blocklength);
  t->extent_ = count == 0 ? 0
                          : (static_cast<std::size_t>(count - 1) * static_cast<std::size_t>(stride) +
                             static_cast<std::size_t>(blocklength)) *
                                oldtype->extent_;
  t->name_ = "vector(" + std::to_string(count) + "," + std::to_string(blocklength) + "," +
             std::to_string(stride) + "," + oldtype->name_ + ")";
  t->committed_ = false;
  for (int i = 0; i < count; ++i) {
    for (int j = 0; j < blocklength; ++j) {
      const std::size_t base =
          (static_cast<std::size_t>(i) * static_cast<std::size_t>(stride) +
           static_cast<std::size_t>(j)) *
          oldtype->extent_;
      for (const auto& [off, len] : oldtype->blocks_) t->blocks_.emplace_back(base + off, len);
    }
  }
  coalesce_blocks(t->blocks_);
  return t;
}

// Payload-free (replay) mode moves no data anywhere: pack/unpack become
// no-ops at this single choke point. Shared with coll.cpp, which also gates
// its staging-buffer allocations on it (declared in internals.hpp).
bool payload_free_mode() {
  const SmpiWorld* world = SmpiWorld::instance();
  return world != nullptr && world->config().payload_free;
}

void Datatype::pack(const void* user_buffer, int count, void* packed) const {
  if (payload_free_mode()) return;
  if (count == 0 || size_ == 0) return;  // zero bytes: buffers may legally be null
  const auto* src = static_cast<const unsigned char*>(user_buffer);
  auto* dst = static_cast<unsigned char*>(packed);
  if (!needs_packing()) {
    std::memcpy(dst, src, static_cast<std::size_t>(count) * size_);
    return;
  }
  for (int i = 0; i < count; ++i) {
    const unsigned char* item = src + static_cast<std::size_t>(i) * extent_;
    for (const auto& [off, len] : blocks_) {
      std::memcpy(dst, item + off, len);
      dst += len;
    }
  }
}

void Datatype::unpack(const void* packed, int count, void* user_buffer) const {
  if (payload_free_mode()) return;
  if (count == 0 || size_ == 0) return;  // zero bytes: buffers may legally be null
  const auto* src = static_cast<const unsigned char*>(packed);
  auto* dst = static_cast<unsigned char*>(user_buffer);
  if (!needs_packing()) {
    std::memcpy(dst, src, static_cast<std::size_t>(count) * size_);
    return;
  }
  for (int i = 0; i < count; ++i) {
    unsigned char* item = dst + static_cast<std::size_t>(i) * extent_;
    for (const auto& [off, len] : blocks_) {
      std::memcpy(item + off, src, len);
      src += len;
    }
  }
}

void Datatype::unpack_bytes(const void* packed, std::size_t nbytes, void* user_buffer) const {
  if (payload_free_mode()) return;
  if (nbytes == 0) return;  // zero-byte message: buffers may legally be null
  const auto* src = static_cast<const unsigned char*>(packed);
  auto* dst = static_cast<unsigned char*>(user_buffer);
  if (!needs_packing()) {
    std::memcpy(dst, src, nbytes);
    return;
  }
  std::size_t item = 0;
  while (nbytes > 0) {
    unsigned char* base = dst + item * extent_;
    for (const auto& [off, len] : blocks_) {
      const std::size_t chunk = len < nbytes ? len : nbytes;
      std::memcpy(base + off, src, chunk);
      src += chunk;
      nbytes -= chunk;
      if (nbytes == 0) return;
    }
    ++item;
  }
}

namespace {

Datatype g_char(BasicType::kChar, sizeof(char), "MPI_CHAR");
Datatype g_schar(BasicType::kSignedChar, sizeof(signed char), "MPI_SIGNED_CHAR");
Datatype g_uchar(BasicType::kUnsignedChar, sizeof(unsigned char), "MPI_UNSIGNED_CHAR");
Datatype g_byte(BasicType::kByte, 1, "MPI_BYTE");
Datatype g_short(BasicType::kShort, sizeof(short), "MPI_SHORT");
Datatype g_ushort(BasicType::kUnsignedShort, sizeof(unsigned short), "MPI_UNSIGNED_SHORT");
Datatype g_int(BasicType::kInt, sizeof(int), "MPI_INT");
Datatype g_uint(BasicType::kUnsigned, sizeof(unsigned), "MPI_UNSIGNED");
Datatype g_long(BasicType::kLong, sizeof(long), "MPI_LONG");
Datatype g_ulong(BasicType::kUnsignedLong, sizeof(unsigned long), "MPI_UNSIGNED_LONG");
Datatype g_llong(BasicType::kLongLong, sizeof(long long), "MPI_LONG_LONG");
Datatype g_ullong(BasicType::kUnsignedLongLong, sizeof(unsigned long long),
                  "MPI_UNSIGNED_LONG_LONG");
Datatype g_float(BasicType::kFloat, sizeof(float), "MPI_FLOAT");
Datatype g_double(BasicType::kDouble, sizeof(double), "MPI_DOUBLE");
Datatype g_ldouble(BasicType::kLongDouble, sizeof(long double), "MPI_LONG_DOUBLE");

}  // namespace

}  // namespace smpi::core

// ---------------------------------------------------------------------------
// Public handles and C API
// ---------------------------------------------------------------------------

using smpi::core::Datatype;

MPI_Datatype MPI_CHAR = &smpi::core::g_char;
MPI_Datatype MPI_SIGNED_CHAR = &smpi::core::g_schar;
MPI_Datatype MPI_UNSIGNED_CHAR = &smpi::core::g_uchar;
MPI_Datatype MPI_BYTE = &smpi::core::g_byte;
MPI_Datatype MPI_SHORT = &smpi::core::g_short;
MPI_Datatype MPI_UNSIGNED_SHORT = &smpi::core::g_ushort;
MPI_Datatype MPI_INT = &smpi::core::g_int;
MPI_Datatype MPI_UNSIGNED = &smpi::core::g_uint;
MPI_Datatype MPI_LONG = &smpi::core::g_long;
MPI_Datatype MPI_UNSIGNED_LONG = &smpi::core::g_ulong;
MPI_Datatype MPI_LONG_LONG = &smpi::core::g_llong;
MPI_Datatype MPI_UNSIGNED_LONG_LONG = &smpi::core::g_ullong;
MPI_Datatype MPI_FLOAT = &smpi::core::g_float;
MPI_Datatype MPI_DOUBLE = &smpi::core::g_double;
MPI_Datatype MPI_LONG_DOUBLE = &smpi::core::g_ldouble;

int MPI_Type_size(MPI_Datatype datatype, int* size) {
  if (datatype == MPI_DATATYPE_NULL || size == nullptr) return MPI_ERR_TYPE;
  *size = static_cast<int>(datatype->size());
  return MPI_SUCCESS;
}

int MPI_Type_get_extent(MPI_Datatype datatype, long* lb, long* extent) {
  if (datatype == MPI_DATATYPE_NULL || lb == nullptr || extent == nullptr) return MPI_ERR_TYPE;
  *lb = 0;
  *extent = static_cast<long>(datatype->extent());
  return MPI_SUCCESS;
}

int MPI_Type_contiguous(int count, MPI_Datatype oldtype, MPI_Datatype* newtype) {
  if (oldtype == MPI_DATATYPE_NULL || newtype == nullptr) return MPI_ERR_TYPE;
  if (count < 0) return MPI_ERR_COUNT;
  auto& proc = smpi::core::current_process_checked();
  auto* t = Datatype::contiguous(count, oldtype);
  proc.datatypes.emplace_back(t);
  *newtype = t;
  return MPI_SUCCESS;
}

int MPI_Type_vector(int count, int blocklength, int stride, MPI_Datatype oldtype,
                    MPI_Datatype* newtype) {
  if (oldtype == MPI_DATATYPE_NULL || newtype == nullptr) return MPI_ERR_TYPE;
  if (count < 0 || blocklength < 0) return MPI_ERR_COUNT;
  if (stride < blocklength) return MPI_ERR_ARG;  // overlap unsupported
  auto& proc = smpi::core::current_process_checked();
  auto* t = Datatype::vector(count, blocklength, stride, oldtype);
  proc.datatypes.emplace_back(t);
  *newtype = t;
  return MPI_SUCCESS;
}

int MPI_Type_commit(MPI_Datatype* datatype) {
  if (datatype == nullptr || *datatype == MPI_DATATYPE_NULL) return MPI_ERR_TYPE;
  (*datatype)->commit();
  return MPI_SUCCESS;
}

int MPI_Type_free(MPI_Datatype* datatype) {
  if (datatype == nullptr || *datatype == MPI_DATATYPE_NULL) return MPI_ERR_TYPE;
  // Owned by the creating process; just null the user handle (the process
  // reclaims the storage when it ends — handles may still be referenced by
  // in-flight requests).
  *datatype = MPI_DATATYPE_NULL;
  return MPI_SUCCESS;
}
