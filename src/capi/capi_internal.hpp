// Internal: the opaque handle layouts behind the C API. Shared between the
// run-time (graphblas_c.cpp) and the white-box C API tests, which need to
// reach through a handle to hand-corrupt an object or inspect its per-object
// error slot. Not installed; nothing outside src/capi and tests may rely on
// this layout.
#pragma once

#include <string>

#include "capi/graphblas_c.h"
#include "graphblas/graphblas.hpp"
#include "platform/governor.hpp"

// The opaque structs carry a per-object last-error string (C API §4.5:
// GrB_error retrieves the message behind the most recent failing call on
// that object). std::string uses the global allocator, NOT the metered
// gb::platform::Alloc — error recording must never itself trip the fault
// injector.
struct GrB_Matrix_opaque {
  gb::Matrix<double> m;
  std::string err;
};
struct GrB_Vector_opaque {
  gb::Vector<double> v;
  std::string err;
};
struct GrB_Descriptor_opaque {
  gb::Descriptor d;
};

// The execution governor behind a GxB_Context handle. The Governor itself is
// all atomics (cancel flag, deadline, budget), so one context may be engaged
// on a worker thread while another thread calls GxB_Context_cancel on it.
struct GxB_Context_opaque {
  gb::platform::Governor gov;
};

/// gb::Info -> GrB_Info conversion shared by the GraphBLAS and LAGraph
/// front ends (defined in graphblas_c.cpp).
GrB_Info capi_map_info(gb::Info info) noexcept;

/// The exception -> GrB_Info ladder of §II-B, shared by the GraphBLAS and
/// LAGraph front ends (defined in graphblas_c.cpp). Call it only from inside
/// a catch block: it rethrows the exception in flight to classify it. When
/// `what` is non-null it receives the failure message, which lives in the
/// exception object and so only until that catch block exits.
GrB_Info capi_exception_info(const char** what) noexcept;

/// Run `f` (which returns a GrB_Info) so that no C++ exception crosses the C
/// ABI: a throw becomes its GrB_Info code.
template <class F>
GrB_Info capi_guarded(F&& f) noexcept {
  try {
    return f();
  } catch (...) {
    return capi_exception_info(nullptr);
  }
}
