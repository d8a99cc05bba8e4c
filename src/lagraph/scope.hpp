// Iteration-level governance for the algorithm drivers. A gb::platform
// Governor installed on the calling thread (directly, or through an engaged
// GxB_Context) makes every kernel poll; this header gives the *drivers* a
// cooperative layer on top: check between iterations, absorb a mid-iteration
// trip, and report partial progress instead of losing the work done so far.
// iterate() is the one driver frame every resumable `*_run` entry point runs
// in: governed setup, resumable rounds, and checkpoint slots named once.
//
// Ungoverned behaviour is unchanged: with no governor installed, step()
// runs the body directly and every exception propagates exactly as before.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "lagraph/checkpoint.hpp"
#include "platform/governor.hpp"

namespace lagraph {

/// Why an iterative driver stopped. `none` means the run completed without
/// hitting any bound (e.g. BFS exhausted its frontier).
enum class StopReason {
  none,           ///< ran to natural completion
  converged,      ///< residual fell under tolerance
  max_iters,      ///< iteration cap reached before convergence
  diverged,       ///< a non-finite residual/iterate was detected
  cancelled,      ///< governor cancellation observed
  timeout,        ///< governor wall-clock deadline passed
  out_of_memory,  ///< governor byte budget exceeded
};

[[nodiscard]] constexpr const char* to_string(StopReason r) noexcept {
  switch (r) {
    case StopReason::none: return "none";
    case StopReason::converged: return "converged";
    case StopReason::max_iters: return "max_iters";
    case StopReason::diverged: return "diverged";
    case StopReason::cancelled: return "cancelled";
    case StopReason::timeout: return "timeout";
    case StopReason::out_of_memory: return "out_of_memory";
  }
  return "unknown";
}

/// True for the governor-initiated reasons (the caller asked us to stop,
/// as opposed to the mathematics deciding).
[[nodiscard]] constexpr bool is_interruption(StopReason r) noexcept {
  return r == StopReason::cancelled || r == StopReason::timeout ||
         r == StopReason::out_of_memory;
}

/// Captures the thread's governor (if any) at driver entry. The driver frame
/// (iterate() below) calls interrupted() between rounds and wraps each round
/// in step().
class Scope {
 public:
  Scope() noexcept : gov_(gb::platform::Governor::current()) {}

  [[nodiscard]] bool governed() const noexcept { return gov_ != nullptr; }

  /// Non-throwing between-iterations check: the trip is reported, not
  /// consumed, so a driver can stop cleanly and still return telemetry.
  [[nodiscard]] StopReason interrupted() const noexcept {
    if (!gov_) return StopReason::none;
    switch (gov_->tripped()) {
      case 1: return StopReason::cancelled;
      case 2: return StopReason::timeout;
      default: return StopReason::none;
    }
  }

  /// Run one iteration body. Governed: a governor trip thrown mid-iteration
  /// is absorbed and returned as a StopReason — safe because every GraphBLAS
  /// operation is transactional, so all objects the body touched hold either
  /// their pre- or post-operation state. Ungoverned: the body runs bare and
  /// every exception propagates (pre-governor behaviour, bit for bit).
  template <class F>
  [[nodiscard]] StopReason step(F&& f) const {
    if (!gov_) {
      f();
      return StopReason::none;
    }
    try {
      f();
      return StopReason::none;
    } catch (const gb::platform::CancelledError&) {
      return StopReason::cancelled;
    } catch (const gb::platform::TimeoutError&) {
      return StopReason::timeout;
    } catch (const gb::platform::BudgetError&) {
      return StopReason::out_of_memory;
    }
  }

 private:
  gb::platform::Governor* gov_;
};

/// Re-raise a governor stop as its platform exception. The legacy (pre-
/// checkpoint) entry points wrap the resumable `*_run` drivers with this so
/// their governed behaviour is unchanged: a trip still surfaces as
/// CancelledError / TimeoutError / BudgetError at the call site.
inline void rethrow_interruption(StopReason r) {
  switch (r) {
    case StopReason::cancelled: throw gb::platform::CancelledError{};
    case StopReason::timeout: throw gb::platform::TimeoutError{};
    case StopReason::out_of_memory: throw gb::platform::BudgetError{};
    default: break;
  }
}

// --- the driver frame --------------------------------------------------------
//
// Every resumable `*_run` driver is three lambdas handed to iterate():
//
//   slots(io)      names each checkpointed field once: io("f", f); ...
//   setup(resumed) builds what the rounds need; the only place the driver
//                  reads graph properties (undirected_view, ensure_transpose,
//                  out_degree_fp64). On a fresh run it also seeds the state;
//                  on a resumed one the slots are already loaded.
//   round()        one iteration; returns true to go on, false when done.
//
// The frame owns the rest of the protocol: the capsule's tag check, one
// governed setup step, the loop (between-rounds check, governed round),
// capture on every stop, and the capsule handed back.

namespace detail {

template <class T>
struct is_gb_object : std::false_type {};
template <class T>
struct is_gb_object<gb::Vector<T>> : std::true_type {};
template <class T>
struct is_gb_object<gb::Matrix<T>> : std::true_type {};

/// The capsule scalar a field of type T is stored as: double as f64, signed
/// integers as i64, and unsigned integers, bools and enums as u64.
template <class T>
using slot_scalar_t = std::conditional_t<
    std::is_floating_point_v<T>, double,
    std::conditional_t<std::is_signed_v<T>, std::int64_t, std::uint64_t>>;

template <class T>
concept Scalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;

}  // namespace detail

/// Writes a driver's fields into a capsule. The slot kind follows the C++
/// type: scalars as above, std::vector<T> as an array, gb::Vector and
/// gb::Matrix as themselves, and a std::vector of gb objects as
/// `<name>_count` plus `<name>0`, `<name>1`, ...
class SlotWriter {
 public:
  static constexpr bool loading = false;
  explicit SlotWriter(Checkpoint& cp) : cp_(cp) {}

  template <detail::Scalar T>
  void operator()(const std::string& name, const T& v) {
    using S = detail::slot_scalar_t<T>;
    if constexpr (std::is_same_v<S, double>) cp_.put_f64(name, v);
    else if constexpr (std::is_same_v<S, std::int64_t>) cp_.put_i64(name, v);
    else cp_.put_u64(name, static_cast<std::uint64_t>(v));
  }
  template <class T>
  void operator()(const std::string& name, const gb::Vector<T>& v) {
    cp_.put_vector(name, v);
  }
  template <class T>
  void operator()(const std::string& name, const gb::Matrix<T>& m) {
    cp_.put_matrix(name, m);
  }
  template <class T>
  void operator()(const std::string& name, const std::vector<T>& v) {
    if constexpr (detail::is_gb_object<T>::value) {
      cp_.put_u64(name + "_count", v.size());
      for (std::size_t i = 0; i < v.size(); ++i) {
        (*this)(name + std::to_string(i), v[i]);
      }
    } else if constexpr (std::is_same_v<T, detail::slot_scalar_t<T>>) {
      cp_.put_array(name, v);
    } else {
      using S = detail::slot_scalar_t<T>;
      std::vector<S> wide;
      wide.reserve(v.size());
      for (const T& x : v) wide.push_back(static_cast<S>(x));
      cp_.put_array(name, wide);
    }
  }

 private:
  Checkpoint& cp_;
};

/// Loads a driver's fields from a capsule: the mirror of SlotWriter. A
/// const std::vector field (a batch driver's `sources`) is not loaded but
/// checked: the capsule resumes only the call it was captured from.
class SlotReader {
 public:
  static constexpr bool loading = true;
  explicit SlotReader(const Checkpoint& cp) : cp_(cp) {}

  template <detail::Scalar T>
  void operator()(const std::string& name, T& v) const {
    using S = detail::slot_scalar_t<T>;
    if constexpr (std::is_same_v<S, double>) v = cp_.get_f64(name);
    else if constexpr (std::is_same_v<S, std::int64_t>)
      v = static_cast<T>(cp_.get_i64(name));
    else v = static_cast<T>(cp_.get_u64(name));
  }
  template <class T>
  void operator()(const std::string& name, gb::Vector<T>& v) const {
    v = cp_.get_vector<T>(name);
  }
  template <class T>
  void operator()(const std::string& name, gb::Matrix<T>& m) const {
    m = cp_.get_matrix<T>(name);
  }
  template <class T>
  void operator()(const std::string& name, std::vector<T>& v) const {
    if constexpr (detail::is_gb_object<T>::value) {
      const std::uint64_t count = cp_.get_u64(name + "_count");
      v.clear();
      v.reserve(count);
      for (std::uint64_t i = 0; i < count; ++i) {
        (*this)(name + std::to_string(i), v.emplace_back());
      }
    } else if constexpr (std::is_same_v<T, detail::slot_scalar_t<T>>) {
      v = cp_.get_array<T>(name);
    } else {
      const auto wide = cp_.get_array<detail::slot_scalar_t<T>>(name);
      v.clear();
      v.reserve(wide.size());
      for (const auto x : wide) v.push_back(static_cast<T>(x));
    }
  }
  template <class T>
  void operator()(const std::string& name, const std::vector<T>& v) const {
    const auto saved = cp_.get_array<detail::slot_scalar_t<T>>(name);
    if (saved.size() != v.size() ||
        !std::equal(saved.begin(), saved.end(), v.begin())) {
      throw gb::Error(gb::Info::invalid_value,
                      "resume capsule was captured with other " + name);
    }
  }

 private:
  const Checkpoint& cp_;
};

/// Runs one resumable driver. `res` is its result struct (`stop`,
/// `checkpoint`); `tag` names the capsule. Returns false when the run
/// stopped in setup — the state is then incomplete, and `res` carries only
/// the stop and, for a resumed run, the incoming capsule back. Otherwise the
/// loop ran: `res.stop` is the interruption and `res.checkpoint` its capsule,
/// or the run completed (`res.stop` as the rounds left it) and the capsule
/// is empty. `setup` may return bool: false means there is no round to run.
template <class Result, class Slots, class Setup, class Round>
bool iterate(Result& res, const char* tag, const Checkpoint* resume,
             Slots&& slots, Setup&& setup, Round&& round) {
  const Scope scope;
  const bool resumed = resume != nullptr && !resume->empty();
  if (resumed) check_resume(*resume, tag);
  bool more = true;
  StopReason why = scope.step([&] {
    if (resumed) {
      SlotReader in(*resume);
      slots(in);
    }
    if constexpr (std::is_void_v<decltype(setup(resumed))>) {
      setup(resumed);
    } else {
      more = setup(resumed);
    }
  });
  if (why != StopReason::none) {
    // Nothing new to capture: a resumed run hands its capsule back.
    res.stop = why;
    if (resumed) res.checkpoint = *resume;
    return false;
  }
  while (more) {
    why = scope.interrupted();
    if (why == StopReason::none) why = scope.step([&] { more = round(); });
    if (why == StopReason::none) continue;
    // Every round commits only after its last poll point, so the fields
    // hold the last round boundary. Capture runs unbound: a cancel or a
    // deadline stays tripped, and packing a slot can run a polling kernel
    // (a dense matrix's sparse view). It is still best effort: if packing
    // fails the run is not resumable, but the partial result stands.
    res.stop = why;
    res.checkpoint.clear();
    gb::platform::GovernorUnbind unbound;
    try {
      res.checkpoint.set_algorithm(tag);
      SlotWriter out(res.checkpoint);
      slots(out);
    } catch (...) {
      res.checkpoint.clear();
    }
    return true;
  }
  res.checkpoint.clear();
  return true;
}

}  // namespace lagraph
