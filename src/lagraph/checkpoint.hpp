// lagraph::Checkpoint — an opaque, serialisable state capsule for iterative
// algorithm drivers.
//
// A driver interrupted by the execution governor (cancel / deadline / byte
// budget) packs its loop state — frontier and label vectors, rank/residual
// iterates, iteration counters, RNG rounds — into a Checkpoint and returns
// it with the partial result. Feeding the capsule back into the matching
// `*_run(..., resume)` entry point continues the run from the last completed
// iteration; because every iteration is a pure function of the captured loop
// state, the interrupted+resumed result is bit-identical to an uninterrupted
// run.
//
// The capsule is a flat map of named, typed slots:
//   * scalars      — u64 / i64 / f64 counters and thresholds;
//   * POD arrays   — host-side std::vector state (labels, heap storage);
//   * gb vectors   — stored as (size, indices, values) tuple triples;
//   * gb matrices  — stored as (nrows, ncols, row/col/value tuples).
//
// On disk it uses the same v2 conventions as the LAGR matrix format: magic +
// version header, CRC32C footer over everything after the magic, and
// plausibility checks that reject torn or corrupted files *before* any
// payload allocation. save(path) writes a temp file in the target directory
// and renames it into place, so a crash mid-write never leaves a torn
// snapshot where a resume could find it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graphblas/matrix.hpp"
#include "graphblas/vector.hpp"

namespace lagraph {

class Checkpoint {
 public:
  Checkpoint() = default;

  /// Identity tag: which algorithm (and which entry point) wrote the
  /// capsule. Resume entry points reject a capsule written by a different
  /// algorithm instead of unpacking nonsense.
  void set_algorithm(std::string name) { algorithm_ = std::move(name); }
  [[nodiscard]] const std::string& algorithm() const noexcept {
    return algorithm_;
  }

  [[nodiscard]] bool empty() const noexcept {
    return algorithm_.empty() && slots_.empty();
  }
  [[nodiscard]] bool has(const std::string& name) const {
    return slots_.count(name) != 0;
  }
  void clear() {
    algorithm_.clear();
    slots_.clear();
  }

  // --- scalars ---------------------------------------------------------------

  void put_u64(const std::string& name, std::uint64_t v) {
    put_scalar(name, SlotType::u64, &v);
  }
  void put_i64(const std::string& name, std::int64_t v) {
    put_scalar(name, SlotType::i64, &v);
  }
  void put_f64(const std::string& name, double v) {
    put_scalar(name, SlotType::f64, &v);
  }
  [[nodiscard]] std::uint64_t get_u64(const std::string& name) const {
    std::uint64_t v;
    get_scalar(name, SlotType::u64, &v);
    return v;
  }
  [[nodiscard]] std::int64_t get_i64(const std::string& name) const {
    std::int64_t v;
    get_scalar(name, SlotType::i64, &v);
    return v;
  }
  [[nodiscard]] double get_f64(const std::string& name) const {
    double v;
    get_scalar(name, SlotType::f64, &v);
    return v;
  }

  // --- POD arrays ------------------------------------------------------------

  template <class T>
  void put_array(const std::string& name, const std::vector<T>& v) {
    Slot s;
    s.kind = SlotKind::array;
    s.type = type_tag<T>();
    s.count = v.size();
    pack_values(s.bytes, v);
    slots_[name] = std::move(s);
  }

  template <class T>
  [[nodiscard]] std::vector<T> get_array(const std::string& name) const {
    const Slot& s = slot(name, SlotKind::array, type_tag<T>());
    std::vector<T> v;
    unpack_values(s.bytes, 0, s.count, v);
    return v;
  }

  // --- gb::Vector ------------------------------------------------------------

  template <class T>
  void put_vector(const std::string& name, const gb::Vector<T>& vec) {
    Slot s;
    s.kind = SlotKind::vector;
    s.type = type_tag<T>();
    s.dim0 = vec.size();
    std::vector<gb::Index> idx;
    std::vector<T> val;
    vec.extract_tuples(idx, val);
    s.count = idx.size();
    pack_values(s.bytes, idx);
    pack_values(s.bytes, val);
    slots_[name] = std::move(s);
  }

  template <class T>
  [[nodiscard]] gb::Vector<T> get_vector(const std::string& name) const {
    const Slot& s = slot(name, SlotKind::vector, type_tag<T>());
    std::vector<gb::Index> idx;
    std::size_t off = unpack_values(s.bytes, 0, s.count, idx);
    std::vector<T> val;
    unpack_values(s.bytes, off, s.count, val);
    gb::Vector<T> vec(static_cast<gb::Index>(s.dim0));
    vec.build(idx, val, gb::Second{});
    return vec;
  }

  // --- gb::Matrix ------------------------------------------------------------

  template <class T>
  void put_matrix(const std::string& name, const gb::Matrix<T>& mat) {
    Slot s;
    s.kind = SlotKind::matrix;
    s.type = type_tag<T>();
    s.dim0 = mat.nrows();
    s.dim1 = mat.ncols();
    std::vector<gb::Index> r, c;
    std::vector<T> val;
    mat.extract_tuples(r, c, val);
    s.count = r.size();
    pack_values(s.bytes, r);
    pack_values(s.bytes, c);
    pack_values(s.bytes, val);
    slots_[name] = std::move(s);
  }

  template <class T>
  [[nodiscard]] gb::Matrix<T> get_matrix(const std::string& name) const {
    const Slot& s = slot(name, SlotKind::matrix, type_tag<T>());
    std::vector<gb::Index> r, c;
    std::size_t off = unpack_values(s.bytes, 0, s.count, r);
    off = unpack_values(s.bytes, off, s.count, c);
    std::vector<T> val;
    unpack_values(s.bytes, off, s.count, val);
    gb::Matrix<T> mat(static_cast<gb::Index>(s.dim0),
                      static_cast<gb::Index>(s.dim1));
    if constexpr (std::is_same_v<T, bool>) {
      // Matrix::build wants a contiguous span; std::vector<bool> is packed.
      std::unique_ptr<bool[]> buf(new bool[val.size()]);
      std::copy(val.begin(), val.end(), buf.get());
      mat.build(r, c, std::span<const bool>(buf.get(), val.size()),
                gb::Second{});
    } else {
      mat.build(r, c, val, gb::Second{});
    }
    return mat;
  }

  // --- serialisation ---------------------------------------------------------

  /// Stream forms. load() throws gb::Error(invalid_value) on any malformed
  /// input: bad magic, unsupported version, truncation, implausible slot
  /// sizes (rejected before allocating), checksum mismatch, or bytes past
  /// the payload end.
  void save(std::ostream& out) const;
  static Checkpoint load(std::istream& in);

  /// File forms. save(path) is atomic: the capsule is written to a sibling
  /// temp file and renamed over `path`, so a crash mid-write leaves either
  /// the previous snapshot or none — never a torn one.
  void save(const std::string& path) const;
  static Checkpoint load(const std::string& path);

 private:
  enum class SlotKind : std::uint8_t {
    scalar = 1,
    array = 2,
    vector = 3,
    matrix = 4,
  };
  enum class SlotType : std::uint8_t {
    u64 = 1,
    i64 = 2,
    f64 = 3,
    boolean = 4,
  };

  struct Slot {
    SlotKind kind = SlotKind::scalar;
    SlotType type = SlotType::u64;
    std::uint64_t dim0 = 0;   ///< vector size / matrix nrows
    std::uint64_t dim1 = 0;   ///< matrix ncols
    std::uint64_t count = 0;  ///< element (tuple) count
    std::vector<std::uint8_t> bytes;
  };

  template <class T>
  static constexpr SlotType type_tag() {
    static_assert(std::is_same_v<T, std::uint64_t> ||
                      std::is_same_v<T, std::int64_t> ||
                      std::is_same_v<T, double> || std::is_same_v<T, bool>,
                  "Checkpoint: unsupported element type");
    if constexpr (std::is_same_v<T, std::uint64_t>) return SlotType::u64;
    if constexpr (std::is_same_v<T, std::int64_t>) return SlotType::i64;
    if constexpr (std::is_same_v<T, double>) return SlotType::f64;
    return SlotType::boolean;
  }

  static constexpr std::size_t type_width(SlotType t) noexcept {
    return t == SlotType::boolean ? 1 : 8;
  }

  /// Append the raw little-endian bytes of `v` (bool packs to one byte per
  /// element; std::vector<bool> has no data(), so elements copy one by one).
  template <class T>
  static void pack_values(std::vector<std::uint8_t>& bytes,
                          const std::vector<T>& v) {
    if constexpr (std::is_same_v<T, bool>) {
      bytes.reserve(bytes.size() + v.size());
      for (bool b : v) bytes.push_back(b ? 1 : 0);
    } else {
      const std::size_t old = bytes.size();
      bytes.resize(old + v.size() * sizeof(T));
      if (!v.empty()) std::memcpy(bytes.data() + old, v.data(), v.size() * sizeof(T));
    }
  }

  /// Read `count` elements starting at byte offset `off`; returns the
  /// offset one past the consumed range. Payload sizes were validated at
  /// load time, but the unpackers re-check so an in-memory capsule filled
  /// with mismatched puts cannot read out of range.
  template <class T>
  static std::size_t unpack_values(const std::vector<std::uint8_t>& bytes,
                                   std::size_t off, std::uint64_t count,
                                   std::vector<T>& v) {
    const std::size_t width = std::is_same_v<T, bool> ? 1 : sizeof(T);
    gb::check_value(off + count * width <= bytes.size(),
                    "Checkpoint: slot payload shorter than its element count");
    v.clear();
    v.reserve(count);
    if constexpr (std::is_same_v<T, bool>) {
      for (std::uint64_t k = 0; k < count; ++k) {
        v.push_back(bytes[off + k] != 0);
      }
    } else {
      for (std::uint64_t k = 0; k < count; ++k) {
        T x;
        std::memcpy(&x, bytes.data() + off + k * sizeof(T), sizeof(T));
        v.push_back(x);
      }
    }
    return off + count * width;
  }

  void put_scalar(const std::string& name, SlotType t, const void* v) {
    Slot s;
    s.kind = SlotKind::scalar;
    s.type = t;
    s.count = 1;
    s.bytes.resize(8);
    std::memcpy(s.bytes.data(), v, 8);
    slots_[name] = std::move(s);
  }

  void get_scalar(const std::string& name, SlotType t, void* v) const {
    const Slot& s = slot(name, SlotKind::scalar, t);
    gb::check_value(s.bytes.size() == 8, "Checkpoint: malformed scalar slot");
    std::memcpy(v, s.bytes.data(), 8);
  }

  [[nodiscard]] const Slot& slot(const std::string& name, SlotKind kind,
                                 SlotType type) const;

  std::string algorithm_;
  std::map<std::string, Slot> slots_;  // ordered => deterministic bytes
};

/// Resume guard: the driver frame (lagraph::iterate) calls this before
/// unpacking, so a capsule written by a different algorithm is rejected with
/// a clear error instead of a slot-shape mismatch.
void check_resume(const Checkpoint& cp, const std::string& algorithm);

}  // namespace lagraph
