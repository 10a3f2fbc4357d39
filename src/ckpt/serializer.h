// Flat binary serialization for checkpoint payloads.
//
// Writer appends little-endian fixed-width fields to an in-memory buffer;
// Reader walks the same layout with bounds checks and throws FormatError on
// any malformed input instead of reading past the end. Doubles are
// serialized bit-exactly (std::bit_cast to uint64) because
// resume-equivalence requires restored floating-point state to be
// byte-identical — round-tripping through decimal text would lose the last
// ulp and change digests.
//
// There is no schema: every checkpointed component describes its fields
// once, in file order, in a `template <class Ar> void Serialize(Ar& ar)`
// that runs under both archives. The same call (`ar.F64(x)`, `ar.Seq(v,
// each)`, ...) writes `x` on a Writer and reads into it on a Reader;
// `Ar::kLoading` guards the few steps only a load takes (resolving ids,
// rebuilding indexes). The file-level format version in
// ckpt::CheckpointFile guards the layout.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace iosched::workload {
struct Job;
}

namespace iosched::ckpt {

/// Base class for everything that can go wrong loading a checkpoint.
class CheckpointError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};
/// Structural damage: bad magic, truncation, a malformed or out-of-range
/// field, a missing section.
class FormatError : public CheckpointError {
  using CheckpointError::CheckpointError;
};
/// File was written by an incompatible format version.
class VersionError : public CheckpointError {
  using CheckpointError::CheckpointError;
};
/// A section's payload does not match its recorded CRC (bit rot, torn
/// write that somehow reached the final name, manual tampering).
class CrcError : public CheckpointError {
  using CheckpointError::CheckpointError;
};
/// The checkpoint was taken under a different configuration or workload.
class ConfigMismatchError : public CheckpointError {
  using CheckpointError::CheckpointError;
};

/// The fields of a sampler's state, under either archive.
template <class Ar>
void RngFields(Ar& ar, util::Rng::State& s) {
  ar.U64(s.engine.state);
  ar.U64(s.engine.inc);
  ar.Bool(s.has_spare);
  ar.F64(s.spare);
}

/// The saving archive: each field call appends the value it is given. A
/// size-only writer runs the same calls but stores nothing and only counts
/// the bytes, so EncodeExact can allocate a section's buffer once.
class Writer {
 public:
  static constexpr bool kLoading = false;

  Writer() = default;
  /// A writer whose buffer starts with room for `capacity` bytes.
  explicit Writer(std::size_t capacity) { buffer_.reserve(capacity); }
  /// A writer that counts the bytes the field calls would append.
  static Writer SizeOnly() {
    Writer w;
    w.size_only_ = true;
    return w;
  }

  void U8(std::uint8_t v) {
    const char c = static_cast<char>(v);
    Put(&c, 1);
  }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(std::uint32_t v);
  /// A narrower or wider integer stored as 32 bits (a dense slot index).
  template <std::integral T>
  void U32(T v) {
    U32(static_cast<std::uint32_t>(v));
  }
  void U64(std::uint64_t v);
  void I64(std::int64_t v) { U64(static_cast<std::uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }
  void Str(std::string_view s);
  void Bytes(const void* data, std::size_t size);

  /// A one-byte enum; `last` bounds it on read.
  template <class E>
  void Enum(E v, E /*last*/) {
    U8(static_cast<std::uint8_t>(v));
  }
  /// An element count (32 bits).
  void Size(std::size_t n) { U32(static_cast<std::uint32_t>(n)); }
  /// A sequence container: its size, then `each(element)` in order.
  template <class C, class Fn>
  void Seq(C& seq, Fn&& each) {
    Size(seq.size());
    for (auto& element : seq) each(element);
  }
  /// A keyed map in ascending key order (deterministic bytes whatever the
  /// map's iteration order): its size, then per entry the key (F64 for a
  /// floating key, I64 otherwise) and `value(key, mapped)`.
  template <class Map, class Fn>
  void SortedMap(Map& map, Fn&& value) {
    std::vector<typename Map::value_type*> entries;
    entries.reserve(map.size());
    for (auto& entry : map) entries.push_back(&entry);
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    Size(entries.size());
    for (auto* entry : entries) {
      Key(entry->first);
      value(entry->first, entry->second);
    }
  }
  /// A sampler's full state (engine position, stream, Box-Muller spare).
  void Rng(const util::Rng& rng) {
    util::Rng::State s = rng.SaveState();
    RngFields(*this, s);
  }
  /// The id of an event the component may later cancel (0 = none).
  void PendingEvent(std::uint64_t id) { U64(id); }
  /// A workload job, stored as its id.
  template <class J>
  void JobRef(const J* job) {
    I64(job->id);
  }

  /// Bytes written (or, size-only, counted) so far.
  std::size_t size() const { return size_only_ ? counted_ : buffer_.size(); }
  const std::string& buffer() const { return buffer_; }
  std::string TakeBuffer() { return std::move(buffer_); }

 private:
  void Put(const char* data, std::size_t size) {
    if (size_only_) {
      counted_ += size;
    } else {
      buffer_.append(data, size);
    }
  }

  template <class K>
  void Key(K key) {
    if constexpr (std::is_floating_point_v<K>) {
      F64(key);
    } else {
      I64(key);
    }
  }

  std::string buffer_;
  bool size_only_ = false;
  std::size_t counted_ = 0;
};

/// The bytes `serialize(writer)` writes, in a buffer allocated once at its
/// exact size: a size-only pass over the same calls counts them first.
/// Throws std::logic_error if the two passes disagree.
template <class Fn>
std::string EncodeExact(Fn&& serialize) {
  Writer counter = Writer::SizeOnly();
  serialize(counter);
  Writer writer(counter.size());
  serialize(writer);
  if (writer.size() != counter.size()) {
    throw std::logic_error("checkpoint: the size-only pass counted " +
                           std::to_string(counter.size()) +
                           " bytes, the write " +
                           std::to_string(writer.size()));
  }
  return writer.TakeBuffer();
}

/// The loading archive: a bounds-checked reader over a serialized payload.
/// Each field call reads into its argument; the value-returning calls read
/// raw fields. Throws FormatError (with `context` in the message) on
/// truncation or a malformed field. The payload must outlive the reader.
class Reader {
 public:
  static constexpr bool kLoading = true;

  /// What a section's ids refer to outside it. `find_job` maps a job id to
  /// its workload entry (null when absent); `is_pending` says whether an
  /// event id is pending in the already restored simulator.
  struct Links {
    std::function<const workload::Job*(std::int64_t)> find_job;
    std::function<bool(std::uint64_t)> is_pending;
  };

  explicit Reader(std::string_view data, std::string context = "payload",
                  Links links = {});

  std::uint8_t U8();
  bool Bool();
  std::uint32_t U32();
  std::uint64_t U64();
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  double F64() { return std::bit_cast<double>(U64()); }
  std::string Str();
  /// Raw view of the next `n` bytes (valid while the payload lives).
  std::string_view Raw(std::size_t n);

  // The field surface shared with Writer.
  void Bool(bool& v) { v = Bool(); }
  void F64(double& v) { v = F64(); }
  template <std::integral T>
  void U8(T& v) {
    v = static_cast<T>(U8());
  }
  template <std::integral T>
  void U32(T& v) {
    v = static_cast<T>(U32());
  }
  template <std::integral T>
  void U64(T& v) {
    v = static_cast<T>(U64());
  }
  template <std::integral T>
  void I64(T& v) {
    v = static_cast<T>(I64());
  }
  template <class E>
  void Enum(E& v, E last) {
    const std::uint8_t raw = U8();
    if (raw > static_cast<std::uint8_t>(last)) {
      Fail("enum value " + std::to_string(raw) + " out of range");
    }
    v = static_cast<E>(raw);
  }
  /// An element count, checked against the bytes left before anything is
  /// sized by it (every element takes at least one byte).
  void Size(std::size_t& n);
  template <class C, class Fn>
  void Seq(C& seq, Fn&& each) {
    std::size_t n = 0;
    Size(n);
    seq.clear();
    if constexpr (requires { seq.reserve(n); }) seq.reserve(n);
    for (std::size_t i = 0; i < n; ++i) each(seq.emplace_back());
  }
  /// Clears `map` and refills it; a repeated key throws FormatError.
  template <class Map, class Fn>
  void SortedMap(Map& map, Fn&& value) {
    std::size_t n = 0;
    Size(n);
    map.clear();
    for (std::size_t i = 0; i < n; ++i) {
      typename Map::key_type key{};
      Key(key);
      typename Map::mapped_type mapped{};
      value(key, mapped);
      if (!map.emplace(key, std::move(mapped)).second) {
        Fail("duplicate key " + std::to_string(key));
      }
    }
  }
  void Rng(util::Rng& rng) {
    util::Rng::State s;
    RngFields(*this, s);
    rng.RestoreState(s);
  }
  /// Reads an event id; a nonzero one must be pending (Links::is_pending).
  void PendingEvent(std::uint64_t& id);
  template <class J>
  void JobRef(const J*& job) {
    job = FindJob(I64());
  }
  /// The workload entry of job `id` (never null; Links::find_job).
  const workload::Job* FindJob(std::int64_t id) const;

  /// Throws FormatError: "checkpoint <context>: <what>".
  [[noreturn]] void Fail(const std::string& what) const;

  std::size_t Remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  /// Throws unless the whole payload was consumed — catches section layouts
  /// drifting out of sync between writer and reader.
  void ExpectEnd() const;

 private:
  const char* Take(std::size_t n);
  template <class K>
  void Key(K& key) {
    if constexpr (std::is_floating_point_v<K>) {
      F64(key);
    } else {
      I64(key);
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  std::string context_;
  Links links_;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`.
std::uint32_t Crc32(std::string_view data);

}  // namespace iosched::ckpt
