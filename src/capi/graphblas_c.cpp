// The C API run-time: §II-B's architecture realised. "Objects internal to
// the library are declared as C++ classes... the body of each GraphBLAS API
// method is wrapped by a try/catch block, which then returns the GraphBLAS
// execution error code corresponding to the caught exception."
//
// The front end dispatches the C API's runtime operator handles into small
// switch-based functors (one template instantiation per operation rather
// than one per operator combination — the layered back-end approach of the
// IBM implementation; the fully-inlined fast path is the C++ API itself).
#include "capi/graphblas_c.h"

#include <new>
#include <stdexcept>
#include <string>

#include "capi/capi_internal.hpp"
#include "graphblas/graphblas.hpp"
#include "platform/service.hpp"

GrB_Info capi_map_info(gb::Info info) noexcept {
  switch (info) {
    case gb::Info::success: return GrB_SUCCESS;
    case gb::Info::no_value: return GrB_NO_VALUE;
    case gb::Info::uninitialized_object: return GrB_UNINITIALIZED_OBJECT;
    case gb::Info::null_pointer: return GrB_NULL_POINTER;
    case gb::Info::invalid_value: return GrB_INVALID_VALUE;
    case gb::Info::invalid_index: return GrB_INVALID_INDEX;
    case gb::Info::domain_mismatch: return GrB_DOMAIN_MISMATCH;
    case gb::Info::dimension_mismatch: return GrB_DIMENSION_MISMATCH;
    case gb::Info::output_not_empty: return GrB_OUTPUT_NOT_EMPTY;
    case gb::Info::invalid_object: return GrB_INVALID_OBJECT;
    case gb::Info::not_implemented: return GrB_NOT_IMPLEMENTED;
    case gb::Info::panic: return GrB_PANIC;
    case gb::Info::index_out_of_bounds: return GrB_INDEX_OUT_OF_BOUNDS;
    case gb::Info::out_of_memory: return GrB_OUT_OF_MEMORY;
    case gb::Info::insufficient_space: return GrB_INSUFFICIENT_SPACE;
    case gb::Info::cancelled: return GxB_CANCELLED;
    case gb::Info::timeout: return GxB_TIMEOUT;
  }
  return GrB_PANIC;
}

GrB_Info capi_exception_info(const char** what) noexcept {
  GrB_Info info = GrB_PANIC;
  const char* msg = "unexpected exception";
  try {
    throw;
  } catch (const gb::Error& e) {
    info = capi_map_info(e.info());
    msg = e.what();
  } catch (const std::bad_alloc&) {
    // Includes gb::platform::BudgetError: a tripped memory budget is an
    // out-of-memory condition by design, and rides the same strong-exception
    // -safety paths the fault injector exercises.
    info = GrB_OUT_OF_MEMORY;
    msg = "out of memory";
  } catch (const gb::platform::CancelledError& e) {
    info = GxB_CANCELLED;
    msg = e.what();
  } catch (const gb::platform::TimeoutError& e) {
    info = GxB_TIMEOUT;
    msg = e.what();
  } catch (const gb::platform::OverloadedError& e) {
    info = GxB_OVERLOADED;
    msg = e.what();
  } catch (const std::overflow_error& e) {
    // Platform-layer arithmetic guards (e.g. exclusive_scan's pointer-sum
    // check) sit below the gb::Error types; map them here.
    info = GrB_INDEX_OUT_OF_BOUNDS;
    msg = e.what();
  } catch (...) {
  }
  if (what) *what = msg;
  return info;
}

namespace {

const GrB_Index grb_all_sentinel = ~GrB_Index{0};

/// The context engaged on this thread (GxB_Context_engage), if any. Each
/// guarded call arms it for the call's duration so a per-call timeout and
/// memory budget are measured from the call boundary, not from engage time.
thread_local GxB_Context_opaque* engaged_context = nullptr;

/// Execution-error conversion: the try/catch wrapper of §II-B
/// (capi_exception_info), with the failure message recorded on `obj` for
/// later GrB_error retrieval. `obj` may be null (object under construction);
/// recording is best-effort and swallows its own allocation failures so the
/// Info code always survives.
template <class Obj, class F>
GrB_Info guarded_at(Obj* obj, F&& f) {
  GrB_Info info;
  try {
    // Install + arm the engaged governor (no-op when none is engaged). The
    // scope also re-captures the wall-clock deadline and memory baseline at
    // this call boundary, making timeout/budget per-call quantities.
    gb::platform::GovernorScope governed(
        engaged_context ? &engaged_context->gov : nullptr);
    info = f();
  } catch (...) {
    const char* what = nullptr;
    info = capi_exception_info(&what);
    // Record inside the handler: `what` dies with the exception object.
    if (obj) {
      try {
        obj->err = what;
      } catch (...) {
        obj->err.clear();
      }
    }
    return info;
  }
  if (obj) {
    try {
      if (info == GrB_SUCCESS || info == GrB_NO_VALUE) {
        obj->err.clear();
      } else {
        obj->err = "call failed with GrB_Info code ";
        obj->err += std::to_string(static_cast<int>(info));
      }
    } catch (...) {
    }
  }
  return info;
}

/// Sink-less wrapper for calls with no object to pin the message on.
template <class F>
GrB_Info guarded(F&& f) {
  return guarded_at(static_cast<GrB_Matrix_opaque*>(nullptr),
                    std::forward<F>(f));
}

// --- runtime-dispatched operator functors ------------------------------------
// One switch per element beats one template instantiation per operator
// combination at this layer; the C++ API remains the fully-inlined path.

struct CBinary {
  GrB_BinaryOp op;
  double operator()(double a, double b) const {
    switch (op) {
      case GrB_PLUS_FP64: return a + b;
      case GrB_MINUS_FP64: return a - b;
      case GrB_TIMES_FP64: return a * b;
      case GrB_DIV_FP64: return a / b;
      case GrB_MIN_FP64: return b < a ? b : a;
      case GrB_MAX_FP64: return a < b ? b : a;
      case GrB_FIRST_FP64: return a;
      case GrB_SECOND_FP64: return b;
      case GrB_LOR: return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
      case GrB_LAND: return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
      case GrB_EQ_FP64: return a == b ? 1.0 : 0.0;
      case GrB_NE_FP64: return a != b ? 1.0 : 0.0;
      default: throw gb::Error(gb::Info::invalid_value, "unknown binary op");
    }
  }
};

struct CUnary {
  GrB_UnaryOp op;
  double operator()(double a) const {
    switch (op) {
      case GrB_IDENTITY_FP64: return a;
      case GrB_AINV_FP64: return -a;
      case GrB_MINV_FP64: return 1.0 / a;
      case GrB_ABS_FP64: return a < 0.0 ? -a : a;
      case GrB_ONE_FP64: return 1.0;
      case GrB_LNOT: return a == 0.0 ? 1.0 : 0.0;
      default: throw gb::Error(gb::Info::invalid_value, "unknown unary op");
    }
  }
};

gb::Monoid<double, CBinary> c_monoid(GrB_Monoid m) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  switch (m) {
    case GrB_PLUS_MONOID_FP64:
      return {CBinary{GrB_PLUS_FP64}, 0.0, std::nullopt};
    case GrB_MIN_MONOID_FP64:
      return {CBinary{GrB_MIN_FP64}, inf, -inf};
    case GrB_MAX_MONOID_FP64:
      return {CBinary{GrB_MAX_FP64}, -inf, inf};
    case GrB_TIMES_MONOID_FP64:
      return {CBinary{GrB_TIMES_FP64}, 1.0, 0.0};
    case GrB_LOR_MONOID:
      return {CBinary{GrB_LOR}, 0.0, 1.0};
    case GrB_LAND_MONOID:
      return {CBinary{GrB_LAND}, 1.0, 0.0};
  }
  throw gb::Error(gb::Info::invalid_value, "unknown monoid");
}

struct CMul {
  GrB_Semiring sr;
  double operator()(double a, double b) const {
    switch (sr) {
      case GrB_PLUS_TIMES_SEMIRING_FP64: return a * b;
      case GrB_MIN_PLUS_SEMIRING_FP64: return a + b;
      case GrB_MAX_MIN_SEMIRING_FP64: return b < a ? b : a;
      case GrB_MIN_FIRST_SEMIRING_FP64: return a;
      case GrB_MIN_SECOND_SEMIRING_FP64: return b;
      case GrB_MAX_SECOND_SEMIRING_FP64: return b;
      case GrB_PLUS_PAIR_SEMIRING_FP64: return 1.0;
      case GrB_LOR_LAND_SEMIRING:
        return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
      case GxB_ANY_FIRST_SEMIRING_FP64: return a;
    }
    throw gb::Error(gb::Info::invalid_value, "unknown semiring");
  }
};

gb::Semiring<gb::Monoid<double, CBinary>, CMul> c_semiring(GrB_Semiring sr) {
  GrB_Monoid add;
  switch (sr) {
    case GrB_PLUS_TIMES_SEMIRING_FP64:
    case GrB_PLUS_PAIR_SEMIRING_FP64:
      add = GrB_PLUS_MONOID_FP64;
      break;
    case GrB_MIN_PLUS_SEMIRING_FP64:
    case GrB_MIN_FIRST_SEMIRING_FP64:
    case GrB_MIN_SECOND_SEMIRING_FP64:
    case GxB_ANY_FIRST_SEMIRING_FP64:  // ANY approximated by MIN at this layer
      add = GrB_MIN_MONOID_FP64;
      break;
    case GrB_MAX_MIN_SEMIRING_FP64:
    case GrB_MAX_SECOND_SEMIRING_FP64:
      add = GrB_MAX_MONOID_FP64;
      break;
    case GrB_LOR_LAND_SEMIRING:
      add = GrB_LOR_MONOID;
      break;
    default:
      throw gb::Error(gb::Info::invalid_value, "unknown semiring");
  }
  return {c_monoid(add), CMul{sr}};
}

/// Invoke f with the right accumulator tag (compile-time 2-way split).
template <class F>
GrB_Info with_accum(GrB_BinaryOp accum, F&& f) {
  if (accum == GrB_NULL_ACCUM) return f(gb::no_accum);
  return f(CBinary{accum});
}

template <class F>
GrB_Info with_mask(GrB_Matrix mask, F&& f) {
  if (mask == nullptr) return f(gb::no_mask);
  return f(mask->m);
}

template <class F>
GrB_Info with_mask(GrB_Vector mask, F&& f) {
  if (mask == nullptr) return f(gb::no_mask);
  return f(mask->v);
}

gb::Descriptor c_desc(GrB_Descriptor d) {
  return d ? d->d : gb::desc_default;
}

// --- per-object input validation ---------------------------------------------
// C API §4.5 per-object error semantics: when a fault lies in an *input*
// object (a corrupt mask, a broken operand), the error must be recorded on
// the offending input, not on the output the call happens to name first.
// Every operation entry point runs an O(1) header check over each object
// argument before dispatch; a failing object gets the message and its code
// is returned. Deeper (O(nvec)/O(e)) corruption is still caught by the
// explicit GxB_*_check entry points.

GrB_Info check_input(GrB_Matrix a) {
  if (!a) return GrB_SUCCESS;  // null-ness is the caller's check
  gb::CheckResult r = gb::check(a->m, gb::CheckLevel::header);
  if (r.ok()) return GrB_SUCCESS;
  try {
    a->err = r.message;
  } catch (...) {
  }
  return capi_map_info(r.info);
}

GrB_Info check_input(GrB_Vector v) {
  if (!v) return GrB_SUCCESS;
  gb::CheckResult r = gb::check(v->v, gb::CheckLevel::header);
  if (r.ok()) return GrB_SUCCESS;
  try {
    v->err = r.message;
  } catch (...) {
  }
  return capi_map_info(r.info);
}

/// First failing object wins (left to right: mask, then operands).
template <class... Objs>
GrB_Info check_inputs(Objs... objs) {
  GrB_Info info = GrB_SUCCESS;
  ((info = info == GrB_SUCCESS ? check_input(objs) : info), ...);
  return info;
}

gb::IndexSel c_sel(const GrB_Index* idx, GrB_Index n) {
  if (idx == GrB_ALL) return gb::IndexSel::all(n);
  return gb::IndexSel(std::span<const gb::Index>(idx, n));
}

}  // namespace

extern "C" {

const GrB_Index* GrB_ALL = &grb_all_sentinel;

/* --- lifetime ----------------------------------------------------------- */

GrB_Info GrB_Matrix_new(GrB_Matrix* a, GrB_Index nrows, GrB_Index ncols) {
  if (!a) return GrB_NULL_POINTER;
  return guarded([&] {
    *a = new GrB_Matrix_opaque{gb::Matrix<double>(nrows, ncols), {}};
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Matrix_free(GrB_Matrix* a) {
  if (!a) return GrB_NULL_POINTER;
  delete *a;
  *a = nullptr;
  return GrB_SUCCESS;
}

GrB_Info GrB_Matrix_dup(GrB_Matrix* out, GrB_Matrix a) {
  if (!out || !a) return GrB_NULL_POINTER;
  return guarded_at(a, [&] {
    *out = new GrB_Matrix_opaque{a->m.dup(), {}};
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Matrix_clear(GrB_Matrix a) {
  if (!a) return GrB_NULL_POINTER;
  return guarded_at(a, [&] {
    a->m.clear();
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Matrix_resize(GrB_Matrix a, GrB_Index nrows, GrB_Index ncols) {
  if (!a) return GrB_NULL_POINTER;
  return guarded_at(a, [&] {
    a->m.resize(nrows, ncols);
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Matrix_nrows(GrB_Index* n, GrB_Matrix a) {
  if (!n || !a) return GrB_NULL_POINTER;
  *n = a->m.nrows();
  return GrB_SUCCESS;
}

GrB_Info GrB_Matrix_ncols(GrB_Index* n, GrB_Matrix a) {
  if (!n || !a) return GrB_NULL_POINTER;
  *n = a->m.ncols();
  return GrB_SUCCESS;
}

GrB_Info GrB_Matrix_nvals(GrB_Index* n, GrB_Matrix a) {
  if (!n || !a) return GrB_NULL_POINTER;
  return guarded_at(a, [&] {
    *n = a->m.nvals();
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Vector_new(GrB_Vector* v, GrB_Index n) {
  if (!v) return GrB_NULL_POINTER;
  return guarded([&] {
    *v = new GrB_Vector_opaque{gb::Vector<double>(n), {}};
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Vector_free(GrB_Vector* v) {
  if (!v) return GrB_NULL_POINTER;
  delete *v;
  *v = nullptr;
  return GrB_SUCCESS;
}

GrB_Info GrB_Vector_dup(GrB_Vector* out, GrB_Vector v) {
  if (!out || !v) return GrB_NULL_POINTER;
  return guarded_at(v, [&] {
    *out = new GrB_Vector_opaque{v->v, {}};
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Vector_clear(GrB_Vector v) {
  if (!v) return GrB_NULL_POINTER;
  return guarded_at(v, [&] {
    v->v.clear();
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Vector_resize(GrB_Vector v, GrB_Index n) {
  if (!v) return GrB_NULL_POINTER;
  return guarded_at(v, [&] {
    v->v.resize(n);
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Vector_size(GrB_Index* n, GrB_Vector v) {
  if (!n || !v) return GrB_NULL_POINTER;
  *n = v->v.size();
  return GrB_SUCCESS;
}

GrB_Info GrB_Vector_nvals(GrB_Index* n, GrB_Vector v) {
  if (!n || !v) return GrB_NULL_POINTER;
  return guarded_at(v, [&] {
    *n = v->v.nvals();
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Descriptor_new(GrB_Descriptor* d) {
  if (!d) return GrB_NULL_POINTER;
  return guarded([&] {
    *d = new GrB_Descriptor_opaque{};
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Descriptor_free(GrB_Descriptor* d) {
  if (!d) return GrB_NULL_POINTER;
  delete *d;
  *d = nullptr;
  return GrB_SUCCESS;
}

GrB_Info GrB_Descriptor_set(GrB_Descriptor d, GrB_Desc_Field f,
                            GrB_Desc_Value v) {
  if (!d) return GrB_NULL_POINTER;
  switch (f) {
    case GrB_OUTP:
      if (v == GrB_REPLACE) {
        d->d.replace = true;
      } else if (v == GrB_DEFAULT) {
        d->d.replace = false;
      } else {
        return GrB_INVALID_VALUE;
      }
      return GrB_SUCCESS;
    case GrB_MASK:
      switch (v) {
        case GrB_DEFAULT:
          d->d.mask_complement = false;
          d->d.mask_structural = false;
          return GrB_SUCCESS;
        case GrB_COMP:
          d->d.mask_complement = true;
          return GrB_SUCCESS;
        case GrB_STRUCTURE:
          d->d.mask_structural = true;
          return GrB_SUCCESS;
        case GrB_COMP_STRUCTURE:
          d->d.mask_complement = true;
          d->d.mask_structural = true;
          return GrB_SUCCESS;
        default:
          return GrB_INVALID_VALUE;
      }
    case GrB_INP0:
      if (v == GrB_TRAN) {
        d->d.transpose_a = true;
      } else if (v == GrB_DEFAULT) {
        d->d.transpose_a = false;
      } else {
        return GrB_INVALID_VALUE;
      }
      return GrB_SUCCESS;
    case GrB_INP1:
      if (v == GrB_TRAN) {
        d->d.transpose_b = true;
      } else if (v == GrB_DEFAULT) {
        d->d.transpose_b = false;
      } else {
        return GrB_INVALID_VALUE;
      }
      return GrB_SUCCESS;
  }
  return GrB_INVALID_VALUE;
}

/* --- element access ------------------------------------------------------ */

GrB_Info GrB_Matrix_setElement_FP64(GrB_Matrix a, double x, GrB_Index i,
                                    GrB_Index j) {
  if (!a) return GrB_NULL_POINTER;
  return guarded_at(a, [&] {
    a->m.set_element(i, j, x);
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Matrix_extractElement_FP64(double* x, GrB_Matrix a, GrB_Index i,
                                        GrB_Index j) {
  if (!x || !a) return GrB_NULL_POINTER;
  return guarded_at(a, [&] {
    auto v = a->m.extract_element(i, j);
    if (!v) return GrB_NO_VALUE;
    *x = *v;
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Matrix_removeElement(GrB_Matrix a, GrB_Index i, GrB_Index j) {
  if (!a) return GrB_NULL_POINTER;
  return guarded_at(a, [&] {
    a->m.remove_element(i, j);
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Vector_setElement_FP64(GrB_Vector v, double x, GrB_Index i) {
  if (!v) return GrB_NULL_POINTER;
  return guarded_at(v, [&] {
    v->v.set_element(i, x);
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Vector_extractElement_FP64(double* x, GrB_Vector v, GrB_Index i) {
  if (!x || !v) return GrB_NULL_POINTER;
  return guarded_at(v, [&] {
    auto e = v->v.extract_element(i);
    if (!e) return GrB_NO_VALUE;
    *x = *e;
    return GrB_SUCCESS;
  });
}

/* Typed variants: thin coercion shims over the FP64 storage domain. The
 * casts are the usual C conversions (bool from any nonzero; int64 truncation
 * is exact within the FP64 integer range). */

GrB_Info GrB_Matrix_setElement_BOOL(GrB_Matrix a, bool x, GrB_Index i,
                                    GrB_Index j) {
  return GrB_Matrix_setElement_FP64(a, x ? 1.0 : 0.0, i, j);
}

GrB_Info GrB_Matrix_setElement_INT64(GrB_Matrix a, int64_t x, GrB_Index i,
                                     GrB_Index j) {
  return GrB_Matrix_setElement_FP64(a, static_cast<double>(x), i, j);
}

GrB_Info GrB_Vector_setElement_BOOL(GrB_Vector v, bool x, GrB_Index i) {
  return GrB_Vector_setElement_FP64(v, x ? 1.0 : 0.0, i);
}

GrB_Info GrB_Vector_setElement_INT64(GrB_Vector v, int64_t x, GrB_Index i) {
  return GrB_Vector_setElement_FP64(v, static_cast<double>(x), i);
}

GrB_Info GrB_Matrix_extractElement_BOOL(bool* x, GrB_Matrix a, GrB_Index i,
                                        GrB_Index j) {
  if (!x) return GrB_NULL_POINTER;
  double d = 0.0;
  const GrB_Info info = GrB_Matrix_extractElement_FP64(&d, a, i, j);
  if (info == GrB_SUCCESS) *x = d != 0.0;
  return info;
}

GrB_Info GrB_Matrix_extractElement_INT64(int64_t* x, GrB_Matrix a,
                                         GrB_Index i, GrB_Index j) {
  if (!x) return GrB_NULL_POINTER;
  double d = 0.0;
  const GrB_Info info = GrB_Matrix_extractElement_FP64(&d, a, i, j);
  if (info == GrB_SUCCESS) *x = static_cast<int64_t>(d);
  return info;
}

GrB_Info GrB_Vector_extractElement_BOOL(bool* x, GrB_Vector v, GrB_Index i) {
  if (!x) return GrB_NULL_POINTER;
  double d = 0.0;
  const GrB_Info info = GrB_Vector_extractElement_FP64(&d, v, i);
  if (info == GrB_SUCCESS) *x = d != 0.0;
  return info;
}

GrB_Info GrB_Vector_extractElement_INT64(int64_t* x, GrB_Vector v,
                                         GrB_Index i) {
  if (!x) return GrB_NULL_POINTER;
  double d = 0.0;
  const GrB_Info info = GrB_Vector_extractElement_FP64(&d, v, i);
  if (info == GrB_SUCCESS) *x = static_cast<int64_t>(d);
  return info;
}

GrB_Info GrB_Vector_removeElement(GrB_Vector v, GrB_Index i) {
  if (!v) return GrB_NULL_POINTER;
  return guarded_at(v, [&] {
    v->v.remove_element(i);
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Matrix_build_FP64(GrB_Matrix a, const GrB_Index* rows,
                               const GrB_Index* cols, const double* vals,
                               GrB_Index n, GrB_BinaryOp dup) {
  if (!a || (!rows && n) || (!cols && n) || (!vals && n)) {
    return GrB_NULL_POINTER;
  }
  return guarded_at(a, [&] {
    a->m.build(std::span<const gb::Index>(rows, n),
               std::span<const gb::Index>(cols, n),
               std::span<const double>(vals, n), CBinary{dup});
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Matrix_extractTuples_FP64(GrB_Index* rows, GrB_Index* cols,
                                       double* vals, GrB_Index* n,
                                       GrB_Matrix a) {
  if (!rows || !cols || !vals || !n || !a) return GrB_NULL_POINTER;
  return guarded_at(a, [&] {
    std::vector<gb::Index> r, c;
    std::vector<double> v;
    a->m.extract_tuples(r, c, v);
    if (*n < r.size()) return GrB_INSUFFICIENT_SPACE;
    for (std::size_t k = 0; k < r.size(); ++k) {
      rows[k] = r[k];
      cols[k] = c[k];
      vals[k] = v[k];
    }
    *n = r.size();
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Vector_build_FP64(GrB_Vector v, const GrB_Index* idx,
                               const double* vals, GrB_Index n,
                               GrB_BinaryOp dup) {
  if (!v || (!idx && n) || (!vals && n)) return GrB_NULL_POINTER;
  return guarded_at(v, [&] {
    v->v.build(std::span<const gb::Index>(idx, n),
               std::span<const double>(vals, n), CBinary{dup});
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Vector_extractTuples_FP64(GrB_Index* idx, double* vals,
                                       GrB_Index* n, GrB_Vector v) {
  if (!idx || !vals || !n || !v) return GrB_NULL_POINTER;
  return guarded_at(v, [&] {
    std::vector<gb::Index> i;
    std::vector<double> x;
    v->v.extract_tuples(i, x);
    if (*n < i.size()) return GrB_INSUFFICIENT_SPACE;
    for (std::size_t k = 0; k < i.size(); ++k) {
      idx[k] = i[k];
      vals[k] = x[k];
    }
    *n = i.size();
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Matrix_wait(GrB_Matrix a) {
  if (!a) return GrB_NULL_POINTER;
  return guarded_at(a, [&] {
    a->m.wait();
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Vector_wait(GrB_Vector v) {
  if (!v) return GrB_NULL_POINTER;
  return guarded_at(v, [&] {
    v->v.wait();
    return GrB_SUCCESS;
  });
}

/* --- operations ----------------------------------------------------------- */

GrB_Info GrB_mxm(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                 GrB_Semiring sr, GrB_Matrix a, GrB_Matrix b,
                 GrB_Descriptor desc) {
  if (!c || !a || !b) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(c, mask, a, b); bad != GrB_SUCCESS)
    return bad;
  return guarded_at(c, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::mxm(c->m, mk, acc, c_semiring(sr), a->m, b->m, c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_mxv(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                 GrB_Semiring sr, GrB_Matrix a, GrB_Vector u,
                 GrB_Descriptor desc) {
  if (!w || !a || !u) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(w, mask, a, u); bad != GrB_SUCCESS)
    return bad;
  return guarded_at(w, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::mxv(w->v, mk, acc, c_semiring(sr), a->m, u->v, c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_vxm(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                 GrB_Semiring sr, GrB_Vector u, GrB_Matrix a,
                 GrB_Descriptor desc) {
  if (!w || !a || !u) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(w, mask, u, a); bad != GrB_SUCCESS)
    return bad;
  return guarded_at(w, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::vxm(w->v, mk, acc, c_semiring(sr), u->v, a->m, c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_Matrix_eWiseAdd(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                             GrB_BinaryOp op, GrB_Matrix a, GrB_Matrix b,
                             GrB_Descriptor desc) {
  if (!c || !a || !b) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(c, mask, a, b); bad != GrB_SUCCESS)
    return bad;
  return guarded_at(c, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::ewise_add(c->m, mk, acc, CBinary{op}, a->m, b->m, c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_kronecker(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                       GrB_BinaryOp op, GrB_Matrix a, GrB_Matrix b,
                       GrB_Descriptor desc) {
  if (!c || !a || !b) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(c, mask, a, b); bad != GrB_SUCCESS)
    return bad;
  return guarded_at(c, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::kronecker(c->m, mk, acc, CBinary{op}, a->m, b->m, c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_Matrix_eWiseMult(GrB_Matrix c, GrB_Matrix mask,
                              GrB_BinaryOp accum, GrB_BinaryOp op,
                              GrB_Matrix a, GrB_Matrix b, GrB_Descriptor desc) {
  if (!c || !a || !b) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(c, mask, a, b); bad != GrB_SUCCESS)
    return bad;
  return guarded_at(c, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::ewise_mult(c->m, mk, acc, CBinary{op}, a->m, b->m, c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_Vector_eWiseAdd(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                             GrB_BinaryOp op, GrB_Vector u, GrB_Vector v,
                             GrB_Descriptor desc) {
  if (!w || !u || !v) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(w, mask, u, v); bad != GrB_SUCCESS)
    return bad;
  return guarded_at(w, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::ewise_add(w->v, mk, acc, CBinary{op}, u->v, v->v, c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_Vector_eWiseMult(GrB_Vector w, GrB_Vector mask,
                              GrB_BinaryOp accum, GrB_BinaryOp op,
                              GrB_Vector u, GrB_Vector v, GrB_Descriptor desc) {
  if (!w || !u || !v) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(w, mask, u, v); bad != GrB_SUCCESS)
    return bad;
  return guarded_at(w, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::ewise_mult(w->v, mk, acc, CBinary{op}, u->v, v->v, c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_Matrix_reduce_Vector(GrB_Vector w, GrB_Vector mask,
                                  GrB_BinaryOp accum, GrB_Monoid m,
                                  GrB_Matrix a, GrB_Descriptor desc) {
  if (!w || !a) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(w, mask, a); bad != GrB_SUCCESS) return bad;
  return guarded_at(w, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::reduce(w->v, mk, acc, c_monoid(m), a->m, c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_Matrix_reduce_FP64(double* x, GrB_Monoid m, GrB_Matrix a) {
  if (!x || !a) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(a); bad != GrB_SUCCESS) return bad;
  return guarded_at(a, [&] {
    *x = gb::reduce_scalar(c_monoid(m), a->m);
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Vector_reduce_FP64(double* x, GrB_Monoid m, GrB_Vector v) {
  if (!x || !v) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(v); bad != GrB_SUCCESS) return bad;
  return guarded_at(v, [&] {
    *x = gb::reduce_scalar(c_monoid(m), v->v);
    return GrB_SUCCESS;
  });
}

GrB_Info GrB_Matrix_apply(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                          GrB_UnaryOp op, GrB_Matrix a, GrB_Descriptor desc) {
  if (!c || !a) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(c, mask, a); bad != GrB_SUCCESS) return bad;
  return guarded_at(c, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::apply(c->m, mk, acc, CUnary{op}, a->m, c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_Vector_apply(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                          GrB_UnaryOp op, GrB_Vector u, GrB_Descriptor desc) {
  if (!w || !u) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(w, mask, u); bad != GrB_SUCCESS) return bad;
  return guarded_at(w, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::apply(w->v, mk, acc, CUnary{op}, u->v, c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_transpose(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                       GrB_Matrix a, GrB_Descriptor desc) {
  if (!c || !a) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(c, mask, a); bad != GrB_SUCCESS) return bad;
  return guarded_at(c, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::transpose(c->m, mk, acc, a->m, c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_Matrix_extract(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                            GrB_Matrix a, const GrB_Index* rows,
                            GrB_Index nrows, const GrB_Index* cols,
                            GrB_Index ncols, GrB_Descriptor desc) {
  if (!c || !a || !rows || !cols) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(c, mask, a); bad != GrB_SUCCESS) return bad;
  return guarded_at(c, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::extract(c->m, mk, acc, a->m, c_sel(rows, nrows),
                    c_sel(cols, ncols), c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_Vector_extract(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                            GrB_Vector u, const GrB_Index* idx, GrB_Index n,
                            GrB_Descriptor desc) {
  if (!w || !u || !idx) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(w, mask, u); bad != GrB_SUCCESS) return bad;
  return guarded_at(w, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::extract(w->v, mk, acc, u->v, c_sel(idx, n), c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_Matrix_assign(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                           GrB_Matrix a, const GrB_Index* rows,
                           GrB_Index nrows, const GrB_Index* cols,
                           GrB_Index ncols, GrB_Descriptor desc) {
  if (!c || !a || !rows || !cols) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(c, mask, a); bad != GrB_SUCCESS) return bad;
  return guarded_at(c, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::assign(c->m, mk, acc, a->m, c_sel(rows, nrows), c_sel(cols, ncols),
                   c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_Vector_assign(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                           GrB_Vector u, const GrB_Index* idx, GrB_Index n,
                           GrB_Descriptor desc) {
  if (!w || !u || !idx) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(w, mask, u); bad != GrB_SUCCESS) return bad;
  return guarded_at(w, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::assign(w->v, mk, acc, u->v, c_sel(idx, n), c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_Vector_assign_FP64(GrB_Vector w, GrB_Vector mask,
                                GrB_BinaryOp accum, double x,
                                const GrB_Index* idx, GrB_Index n,
                                GrB_Descriptor desc) {
  if (!w || !idx) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(w, mask); bad != GrB_SUCCESS) return bad;
  return guarded_at(w, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::assign_scalar(w->v, mk, acc, x, c_sel(idx, n), c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_Matrix_assign_FP64(GrB_Matrix c, GrB_Matrix mask,
                                GrB_BinaryOp accum, double x,
                                const GrB_Index* rows, GrB_Index nrows,
                                const GrB_Index* cols, GrB_Index ncols,
                                GrB_Descriptor desc) {
  if (!c || !rows || !cols) return GrB_NULL_POINTER;
  if (GrB_Info bad = check_inputs(c, mask); bad != GrB_SUCCESS) return bad;
  return guarded_at(c, [&] {
    return with_mask(mask, [&](const auto& mk) {
      return with_accum(accum, [&](const auto& acc) {
        gb::assign_scalar(c->m, mk, acc, x, c_sel(rows, nrows),
                          c_sel(cols, ncols), c_desc(desc));
        return GrB_SUCCESS;
      });
    });
  });
}

GrB_Info GrB_Vector_assign_BOOL(GrB_Vector w, GrB_Vector mask,
                                GrB_BinaryOp accum, bool x,
                                const GrB_Index* idx, GrB_Index n,
                                GrB_Descriptor desc) {
  return GrB_Vector_assign_FP64(w, mask, accum, x ? 1.0 : 0.0, idx, n, desc);
}

GrB_Info GrB_Vector_assign_INT64(GrB_Vector w, GrB_Vector mask,
                                 GrB_BinaryOp accum, int64_t x,
                                 const GrB_Index* idx, GrB_Index n,
                                 GrB_Descriptor desc) {
  return GrB_Vector_assign_FP64(w, mask, accum, static_cast<double>(x), idx,
                                n, desc);
}

GrB_Info GrB_Matrix_assign_BOOL(GrB_Matrix c, GrB_Matrix mask,
                                GrB_BinaryOp accum, bool x,
                                const GrB_Index* rows, GrB_Index nrows,
                                const GrB_Index* cols, GrB_Index ncols,
                                GrB_Descriptor desc) {
  return GrB_Matrix_assign_FP64(c, mask, accum, x ? 1.0 : 0.0, rows, nrows,
                                cols, ncols, desc);
}

GrB_Info GrB_Matrix_assign_INT64(GrB_Matrix c, GrB_Matrix mask,
                                 GrB_BinaryOp accum, int64_t x,
                                 const GrB_Index* rows, GrB_Index nrows,
                                 const GrB_Index* cols, GrB_Index ncols,
                                 GrB_Descriptor desc) {
  return GrB_Matrix_assign_FP64(c, mask, accum, static_cast<double>(x), rows,
                                nrows, cols, ncols, desc);
}

//------------------------------------------------------------------------------
// Error retrieval and deep structural checks
//------------------------------------------------------------------------------

GrB_Info GrB_Matrix_error(const char** msg, GrB_Matrix a) {
  if (!msg || !a) return GrB_NULL_POINTER;
  *msg = a->err.c_str();
  return GrB_SUCCESS;
}

GrB_Info GrB_Vector_error(const char** msg, GrB_Vector v) {
  if (!msg || !v) return GrB_NULL_POINTER;
  *msg = v->err.c_str();
  return GrB_SUCCESS;
}

}  // extern "C"

namespace {

constexpr gb::CheckLevel cxx_level(GxB_CheckLevel level) {
  return level == GxB_CHECK_QUICK ? gb::CheckLevel::quick
                                  : gb::CheckLevel::full;
}

// Runs gb::check on the wrapped object and records the verdict in its error
// slot, so GrB_error explains *what* is corrupt, not just that something is.
template <class Obj, class Wrapped>
GrB_Info run_check(Obj* obj, const Wrapped& wrapped, GxB_CheckLevel level) {
  return guarded_at(obj, [&] {
    gb::CheckResult r = gb::check(wrapped, cxx_level(level));
    if (!r.ok()) throw gb::Error(r.info, r.message);
    return GrB_SUCCESS;
  });
}

/// SuiteSparse sparsity-control word -> FormatMode. Bitwise-OR combinations
/// are accepted; the strongest dense form named wins (full > bitmap), any
/// sparse bit alone means sparse, and the all-bits value is automatic.
bool sparsity_to_mode(int32_t value, gb::FormatMode* mode) {
  const int32_t all = GxB_HYPERSPARSE | GxB_SPARSE | GxB_BITMAP | GxB_FULL;
  if (value <= 0 || (value & ~all) != 0) return false;
  if (value == all) {
    *mode = gb::FormatMode::auto_fmt;
  } else if (value & GxB_FULL) {
    *mode = gb::FormatMode::full;
  } else if (value & GxB_BITMAP) {
    *mode = gb::FormatMode::bitmap;
  } else {
    *mode = gb::FormatMode::sparse;
  }
  return true;
}

int32_t mode_to_sparsity(gb::FormatMode mode) {
  switch (mode) {
    case gb::FormatMode::sparse: return GxB_SPARSE;
    case gb::FormatMode::bitmap: return GxB_BITMAP;
    case gb::FormatMode::full: return GxB_FULL;
    case gb::FormatMode::auto_fmt: break;
  }
  return GxB_AUTO_SPARSITY;
}

int32_t form_to_sparsity(gb::Format form, bool hyper) {
  switch (form) {
    case gb::Format::bitmap: return GxB_BITMAP;
    case gb::Format::full: return GxB_FULL;
    case gb::Format::sparse: break;
  }
  return hyper ? GxB_HYPERSPARSE : GxB_SPARSE;
}

}  // namespace

extern "C" {

GrB_Info GxB_Matrix_check(GrB_Matrix a, GxB_CheckLevel level) {
  if (!a) return GrB_NULL_POINTER;
  return run_check(a, a->m, level);
}

GrB_Info GxB_Vector_check(GrB_Vector v, GxB_CheckLevel level) {
  if (!v) return GrB_NULL_POINTER;
  return run_check(v, v->v, level);
}

// --- GxB storage-form options ------------------------------------------------

GrB_Info GxB_Matrix_Option_set(GrB_Matrix a, GxB_Option_Field f,
                               int32_t value) {
  if (!a) return GrB_NULL_POINTER;
  if (f != GxB_SPARSITY_CONTROL) return GrB_INVALID_VALUE;
  gb::FormatMode mode;
  if (!sparsity_to_mode(value, &mode)) return GrB_INVALID_VALUE;
  return guarded_at(a, [&] {
    a->m.set_format(mode);
    return GrB_SUCCESS;
  });
}

GrB_Info GxB_Matrix_Option_get(GrB_Matrix a, GxB_Option_Field f,
                               int32_t* value) {
  if (!a || !value) return GrB_NULL_POINTER;
  return guarded_at(a, [&] {
    switch (f) {
      case GxB_SPARSITY_CONTROL:
        *value = mode_to_sparsity(a->m.format_mode());
        return GrB_SUCCESS;
      case GxB_SPARSITY_STATUS:
        *value = form_to_sparsity(a->m.format(), a->m.is_hyper());
        return GrB_SUCCESS;
    }
    return GrB_INVALID_VALUE;
  });
}

GrB_Info GxB_Vector_Option_set(GrB_Vector v, GxB_Option_Field f,
                               int32_t value) {
  if (!v) return GrB_NULL_POINTER;
  if (f != GxB_SPARSITY_CONTROL) return GrB_INVALID_VALUE;
  gb::FormatMode mode;
  if (!sparsity_to_mode(value, &mode)) return GrB_INVALID_VALUE;
  return guarded_at(v, [&] {
    v->v.set_format(mode);
    return GrB_SUCCESS;
  });
}

GrB_Info GxB_Vector_Option_get(GrB_Vector v, GxB_Option_Field f,
                               int32_t* value) {
  if (!v || !value) return GrB_NULL_POINTER;
  return guarded_at(v, [&] {
    switch (f) {
      case GxB_SPARSITY_CONTROL:
        *value = mode_to_sparsity(v->v.format_mode());
        return GrB_SUCCESS;
      case GxB_SPARSITY_STATUS:
        *value = form_to_sparsity(v->v.format(), false);
        return GrB_SUCCESS;
    }
    return GrB_INVALID_VALUE;
  });
}

// --- GxB_Context: the execution governor's C handle --------------------------

GrB_Info GxB_Context_new(GxB_Context* ctx) {
  if (!ctx) return GrB_NULL_POINTER;
  return guarded([&] {
    *ctx = new GxB_Context_opaque{};
    return GrB_SUCCESS;
  });
}

GrB_Info GxB_Context_free(GxB_Context* ctx) {
  if (!ctx) return GrB_NULL_POINTER;
  if (*ctx && *ctx == engaged_context) return GrB_INVALID_VALUE;
  delete *ctx;
  *ctx = nullptr;
  return GrB_SUCCESS;
}

GrB_Info GxB_Context_set_budget(GxB_Context ctx, uint64_t bytes) {
  if (!ctx) return GrB_NULL_POINTER;
  ctx->gov.set_budget(static_cast<std::size_t>(bytes));
  return GrB_SUCCESS;
}

GrB_Info GxB_Context_get_budget(uint64_t* bytes, GxB_Context ctx) {
  if (!bytes || !ctx) return GrB_NULL_POINTER;
  *bytes = static_cast<uint64_t>(ctx->gov.budget());
  return GrB_SUCCESS;
}

GrB_Info GxB_Context_set_timeout_ms(GxB_Context ctx, double ms) {
  if (!ctx) return GrB_NULL_POINTER;
  ctx->gov.set_timeout_ms(ms);
  return GrB_SUCCESS;
}

GrB_Info GxB_Context_get_timeout_ms(double* ms, GxB_Context ctx) {
  if (!ms || !ctx) return GrB_NULL_POINTER;
  *ms = ctx->gov.timeout_ms();
  return GrB_SUCCESS;
}

GrB_Info GxB_Context_cancel(GxB_Context ctx) {
  if (!ctx) return GrB_NULL_POINTER;
  ctx->gov.cancel();
  return GrB_SUCCESS;
}

GrB_Info GxB_Context_get_cancelled(bool* cancelled, GxB_Context ctx) {
  if (!cancelled || !ctx) return GrB_NULL_POINTER;
  *cancelled = ctx->gov.cancelled();
  return GrB_SUCCESS;
}

GrB_Info GxB_Context_reset(GxB_Context ctx) {
  if (!ctx) return GrB_NULL_POINTER;
  ctx->gov.clear_cancel();
  return GrB_SUCCESS;
}

GrB_Info GxB_Context_engage(GxB_Context ctx) {
  if (!ctx) return GrB_NULL_POINTER;
  engaged_context = ctx;
  return GrB_SUCCESS;
}

GrB_Info GxB_Context_disengage(GxB_Context ctx) {
  if (ctx && ctx != engaged_context) return GrB_INVALID_VALUE;
  engaged_context = nullptr;
  return GrB_SUCCESS;
}

}  // extern "C"
