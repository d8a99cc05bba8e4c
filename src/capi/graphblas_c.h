/* GraphBLAS C API front end — the §II-B (IBM GraphBLAS) architecture:
 * a C-callable include file that "exposes nothing of the internals of the
 * run-time", over a back end written in C++. API errors are detected by
 * explicit checks in this layer; execution errors surface as C++ exceptions
 * in the back end and are converted to GrB_Info codes by a try/catch wrapper
 * around every method body.
 *
 * Scope: the FP64 domain (the paper's algorithms run on FP64/BOOL; masks
 * accept any stored values), the predefined operator/monoid/semiring handles
 * LAGraph uses, and the full Table-I operation set. This is the
 * *nonpolymorphic* interface; the polymorphic macro layer of the C spec is
 * a preprocessor exercise on top of these entry points.
 */
#ifndef LAGRAPH_REPRO_GRAPHBLAS_C_H
#define LAGRAPH_REPRO_GRAPHBLAS_C_H

#include <stdbool.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef uint64_t GrB_Index;

typedef enum {
  GrB_SUCCESS = 0,
  GrB_NO_VALUE,
  GrB_UNINITIALIZED_OBJECT,
  GrB_NULL_POINTER,
  GrB_INVALID_VALUE,
  GrB_INVALID_INDEX,
  GrB_DOMAIN_MISMATCH,
  GrB_DIMENSION_MISMATCH,
  GrB_OUTPUT_NOT_EMPTY,
  GrB_INVALID_OBJECT,
  GrB_NOT_IMPLEMENTED,
  GrB_PANIC,
  GrB_INDEX_OUT_OF_BOUNDS,
  GrB_OUT_OF_MEMORY,
  GrB_INSUFFICIENT_SPACE,
  /* GxB extensions (appended so the GrB_* code values stay stable):
   * execution-governor trips. A call returning one of these has left every
   * output object bit-identical to its pre-call state. */
  GxB_CANCELLED,
  GxB_TIMEOUT,
  /* Admission control (LAGraph_Service_*): the bounded submission queue or
   * the shed-bytes watermark rejected the request. Nothing was enqueued;
   * the service stays fully serviceable. Retry later or shed load. */
  GxB_OVERLOADED
} GrB_Info;

/* Opaque handles (the contract of §II: "the core data structures are
 * opaque; implementations are free to choose their own"). */
typedef struct GrB_Matrix_opaque* GrB_Matrix;
typedef struct GrB_Vector_opaque* GrB_Vector;
typedef struct GrB_Descriptor_opaque* GrB_Descriptor;
typedef struct GxB_Context_opaque* GxB_Context;

/* Predefined operator handles (FP64 domain unless noted). */
typedef enum {
  GrB_IDENTITY_FP64,
  GrB_AINV_FP64,
  GrB_MINV_FP64,
  GrB_ABS_FP64,
  GrB_ONE_FP64,
  GrB_LNOT
} GrB_UnaryOp;

typedef enum {
  GrB_PLUS_FP64,
  GrB_MINUS_FP64,
  GrB_TIMES_FP64,
  GrB_DIV_FP64,
  GrB_MIN_FP64,
  GrB_MAX_FP64,
  GrB_FIRST_FP64,
  GrB_SECOND_FP64,
  GrB_LOR,
  GrB_LAND,
  GrB_EQ_FP64,
  GrB_NE_FP64,
  /* Not an operator: the value behind GrB_NULL_ACCUM. An enumerator, so
   * passing it loads a valid GrB_BinaryOp; any operator slot rejects it. */
  GxB_NULL_ACCUM_OP
} GrB_BinaryOp;

/* GrB_NULL for the accumulator argument. */
#define GrB_NULL_ACCUM GxB_NULL_ACCUM_OP

typedef enum {
  GrB_PLUS_MONOID_FP64,
  GrB_MIN_MONOID_FP64,
  GrB_MAX_MONOID_FP64,
  GrB_TIMES_MONOID_FP64,
  GrB_LOR_MONOID,
  GrB_LAND_MONOID
} GrB_Monoid;

typedef enum {
  GrB_PLUS_TIMES_SEMIRING_FP64,
  GrB_MIN_PLUS_SEMIRING_FP64,
  GrB_MAX_MIN_SEMIRING_FP64,
  GrB_MIN_FIRST_SEMIRING_FP64,
  GrB_MIN_SECOND_SEMIRING_FP64,
  GrB_MAX_SECOND_SEMIRING_FP64,
  GrB_PLUS_PAIR_SEMIRING_FP64,
  GrB_LOR_LAND_SEMIRING,
  GxB_ANY_FIRST_SEMIRING_FP64
} GrB_Semiring;

/* Descriptor fields / values (GrB_Descriptor_set). */
typedef enum {
  GrB_OUTP,
  GrB_MASK,
  GrB_INP0,
  GrB_INP1
} GrB_Desc_Field;

typedef enum {
  GrB_DEFAULT,
  GrB_REPLACE,
  GrB_COMP,
  GrB_STRUCTURE,
  GrB_COMP_STRUCTURE,
  GrB_TRAN
} GrB_Desc_Value;

/* GrB_ALL sentinel for index arrays. */
extern const GrB_Index* GrB_ALL;

/* --- object lifetime --------------------------------------------------- */
GrB_Info GrB_Matrix_new(GrB_Matrix* a, GrB_Index nrows, GrB_Index ncols);
GrB_Info GrB_Matrix_free(GrB_Matrix* a);
GrB_Info GrB_Matrix_dup(GrB_Matrix* out, GrB_Matrix a);
GrB_Info GrB_Matrix_clear(GrB_Matrix a);
GrB_Info GrB_Matrix_nrows(GrB_Index* n, GrB_Matrix a);
GrB_Info GrB_Matrix_ncols(GrB_Index* n, GrB_Matrix a);
GrB_Info GrB_Matrix_nvals(GrB_Index* n, GrB_Matrix a);
/* Change the dimensions in place; entries outside the new shape are
   dropped. */
GrB_Info GrB_Matrix_resize(GrB_Matrix a, GrB_Index nrows, GrB_Index ncols);

GrB_Info GrB_Vector_new(GrB_Vector* v, GrB_Index n);
GrB_Info GrB_Vector_free(GrB_Vector* v);
GrB_Info GrB_Vector_dup(GrB_Vector* out, GrB_Vector v);
GrB_Info GrB_Vector_clear(GrB_Vector v);
GrB_Info GrB_Vector_size(GrB_Index* n, GrB_Vector v);
GrB_Info GrB_Vector_nvals(GrB_Index* n, GrB_Vector v);
GrB_Info GrB_Vector_resize(GrB_Vector v, GrB_Index n);

GrB_Info GrB_Descriptor_new(GrB_Descriptor* d);
GrB_Info GrB_Descriptor_free(GrB_Descriptor* d);
GrB_Info GrB_Descriptor_set(GrB_Descriptor d, GrB_Desc_Field f,
                            GrB_Desc_Value v);

/* --- element access ------------------------------------------------------ */
GrB_Info GrB_Matrix_setElement_FP64(GrB_Matrix a, double x, GrB_Index i,
                                    GrB_Index j);
GrB_Info GrB_Matrix_extractElement_FP64(double* x, GrB_Matrix a, GrB_Index i,
                                        GrB_Index j);
GrB_Info GrB_Matrix_removeElement(GrB_Matrix a, GrB_Index i, GrB_Index j);
GrB_Info GrB_Vector_setElement_FP64(GrB_Vector v, double x, GrB_Index i);
GrB_Info GrB_Vector_extractElement_FP64(double* x, GrB_Vector v, GrB_Index i);
GrB_Info GrB_Vector_removeElement(GrB_Vector v, GrB_Index i);

/* Typed variants beyond the FP64 entry points (ROADMAP item). Storage stays
 * FP64; the _BOOL/_INT64 variants coerce through it with the usual C casts
 * (bool: any nonzero stored value reads back true; int64: exact for
 * |x| <= 2^53, the FP64 integer range). The polymorphic GrB_setElement /
 * GrB_extractElement macros dispatch here on the value (pointer) type. */
GrB_Info GrB_Matrix_setElement_BOOL(GrB_Matrix a, bool x, GrB_Index i,
                                    GrB_Index j);
GrB_Info GrB_Matrix_setElement_INT64(GrB_Matrix a, int64_t x, GrB_Index i,
                                     GrB_Index j);
GrB_Info GrB_Vector_setElement_BOOL(GrB_Vector v, bool x, GrB_Index i);
GrB_Info GrB_Vector_setElement_INT64(GrB_Vector v, int64_t x, GrB_Index i);
GrB_Info GrB_Matrix_extractElement_BOOL(bool* x, GrB_Matrix a, GrB_Index i,
                                        GrB_Index j);
GrB_Info GrB_Matrix_extractElement_INT64(int64_t* x, GrB_Matrix a,
                                         GrB_Index i, GrB_Index j);
GrB_Info GrB_Vector_extractElement_BOOL(bool* x, GrB_Vector v, GrB_Index i);
GrB_Info GrB_Vector_extractElement_INT64(int64_t* x, GrB_Vector v,
                                         GrB_Index i);

GrB_Info GrB_Matrix_build_FP64(GrB_Matrix a, const GrB_Index* rows,
                               const GrB_Index* cols, const double* vals,
                               GrB_Index n, GrB_BinaryOp dup);
GrB_Info GrB_Matrix_extractTuples_FP64(GrB_Index* rows, GrB_Index* cols,
                                       double* vals, GrB_Index* n,
                                       GrB_Matrix a);
GrB_Info GrB_Vector_build_FP64(GrB_Vector v, const GrB_Index* idx,
                               const double* vals, GrB_Index n,
                               GrB_BinaryOp dup);
GrB_Info GrB_Vector_extractTuples_FP64(GrB_Index* idx, double* vals,
                                       GrB_Index* n, GrB_Vector v);

GrB_Info GrB_Matrix_wait(GrB_Matrix a);
GrB_Info GrB_Vector_wait(GrB_Vector v);

/* --- error introspection -------------------------------------------------
 * After a call on `obj` returns a non-success GrB_Info, GrB_error retrieves
 * a message describing that error. The string lives inside the object and
 * stays valid until the next call involving it (C API §4.5 semantics). */
GrB_Info GrB_Matrix_error(const char** msg, GrB_Matrix a);
GrB_Info GrB_Vector_error(const char** msg, GrB_Vector v);

/* --- structural validation (SuiteSparse GxB extension) -------------------
 * Deep invariant check of the opaque object: pointer-array monotonicity,
 * index ordering/range, hyperlist consistency, zombie and pending-tuple
 * accounting. Returns GrB_SUCCESS, or GrB_INVALID_OBJECT /
 * GrB_INVALID_INDEX naming the first violated invariant (message via
 * GrB_error). Never mutates the object. */
typedef enum {
  GxB_CHECK_QUICK = 0, /* O(nvec): header + shape consistency */
  GxB_CHECK_FULL = 1   /* O(e): every stored index walked */
} GxB_CheckLevel;

GrB_Info GxB_Matrix_check(GrB_Matrix a, GxB_CheckLevel level);
GrB_Info GxB_Vector_check(GrB_Vector v, GxB_CheckLevel level);

/* --- storage-form control (SuiteSparse GxB extension) --------------------
 * Matrices and vectors may be stored sparse (CSR/CSC, possibly
 * hypersparse), as a bitmap (presence byte per position + value array), or
 * full (every position present, values only). GxB_*_Option_set with
 * GxB_SPARSITY_CONTROL pins the form; GxB_AUTO_SPARSITY restores the
 * density-driven automatic policy. A pinned form is a *preference*: an
 * object that cannot satisfy it (e.g. GxB_FULL with absent entries, or a
 * dimension product beyond the dense-form cap) degrades gracefully and
 * never errors, and results never depend on the chosen form.
 * GxB_SPARSITY_STATUS reads back the form the object is in right now. */
typedef enum {
  GxB_SPARSITY_CONTROL = 32,
  GxB_SPARSITY_STATUS = 33
} GxB_Option_Field;

/* Sparsity values (bitwise-OR combinations accepted by _set as in
 * SuiteSparse; _get for GxB_SPARSITY_STATUS returns exactly one). */
#define GxB_HYPERSPARSE 1
#define GxB_SPARSE 2
#define GxB_BITMAP 4
#define GxB_FULL 8
#define GxB_AUTO_SPARSITY 15

GrB_Info GxB_Matrix_Option_set(GrB_Matrix a, GxB_Option_Field f,
                               int32_t value);
GrB_Info GxB_Matrix_Option_get(GrB_Matrix a, GxB_Option_Field f,
                               int32_t* value);
GrB_Info GxB_Vector_Option_set(GrB_Vector v, GxB_Option_Field f,
                               int32_t value);
GrB_Info GxB_Vector_Option_get(GrB_Vector v, GxB_Option_Field f,
                               int32_t* value);

/* --- Table-I operations --------------------------------------------------
 * mask may be NULL (no mask); accum may be GrB_NULL_ACCUM; desc may be
 * NULL (defaults). */
GrB_Info GrB_mxm(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                 GrB_Semiring sr, GrB_Matrix a, GrB_Matrix b,
                 GrB_Descriptor desc);
GrB_Info GrB_mxv(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                 GrB_Semiring sr, GrB_Matrix a, GrB_Vector u,
                 GrB_Descriptor desc);
GrB_Info GrB_vxm(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                 GrB_Semiring sr, GrB_Vector u, GrB_Matrix a,
                 GrB_Descriptor desc);
GrB_Info GrB_Matrix_eWiseAdd(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                             GrB_BinaryOp op, GrB_Matrix a, GrB_Matrix b,
                             GrB_Descriptor desc);
/* Kronecker product: c must be (am*bm) x (an*bn). Returns
 * GrB_INDEX_OUT_OF_BOUNDS when either output dimension overflows
 * GrB_Index. */
GrB_Info GrB_kronecker(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                       GrB_BinaryOp op, GrB_Matrix a, GrB_Matrix b,
                       GrB_Descriptor desc);
GrB_Info GrB_Matrix_eWiseMult(GrB_Matrix c, GrB_Matrix mask,
                              GrB_BinaryOp accum, GrB_BinaryOp op,
                              GrB_Matrix a, GrB_Matrix b, GrB_Descriptor desc);
GrB_Info GrB_Vector_eWiseAdd(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                             GrB_BinaryOp op, GrB_Vector u, GrB_Vector v,
                             GrB_Descriptor desc);
GrB_Info GrB_Vector_eWiseMult(GrB_Vector w, GrB_Vector mask,
                              GrB_BinaryOp accum, GrB_BinaryOp op,
                              GrB_Vector u, GrB_Vector v, GrB_Descriptor desc);
GrB_Info GrB_Matrix_reduce_Vector(GrB_Vector w, GrB_Vector mask,
                                  GrB_BinaryOp accum, GrB_Monoid m,
                                  GrB_Matrix a, GrB_Descriptor desc);
GrB_Info GrB_Matrix_reduce_FP64(double* x, GrB_Monoid m, GrB_Matrix a);
GrB_Info GrB_Vector_reduce_FP64(double* x, GrB_Monoid m, GrB_Vector v);
GrB_Info GrB_Matrix_apply(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                          GrB_UnaryOp op, GrB_Matrix a, GrB_Descriptor desc);
GrB_Info GrB_Vector_apply(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                          GrB_UnaryOp op, GrB_Vector u, GrB_Descriptor desc);
GrB_Info GrB_transpose(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                       GrB_Matrix a, GrB_Descriptor desc);
GrB_Info GrB_Matrix_extract(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                            GrB_Matrix a, const GrB_Index* rows,
                            GrB_Index nrows, const GrB_Index* cols,
                            GrB_Index ncols, GrB_Descriptor desc);
GrB_Info GrB_Vector_extract(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                            GrB_Vector u, const GrB_Index* idx, GrB_Index n,
                            GrB_Descriptor desc);
GrB_Info GrB_Matrix_assign(GrB_Matrix c, GrB_Matrix mask, GrB_BinaryOp accum,
                           GrB_Matrix a, const GrB_Index* rows,
                           GrB_Index nrows, const GrB_Index* cols,
                           GrB_Index ncols, GrB_Descriptor desc);
GrB_Info GrB_Vector_assign(GrB_Vector w, GrB_Vector mask, GrB_BinaryOp accum,
                           GrB_Vector u, const GrB_Index* idx, GrB_Index n,
                           GrB_Descriptor desc);
GrB_Info GrB_Vector_assign_FP64(GrB_Vector w, GrB_Vector mask,
                                GrB_BinaryOp accum, double x,
                                const GrB_Index* idx, GrB_Index n,
                                GrB_Descriptor desc);
GrB_Info GrB_Matrix_assign_FP64(GrB_Matrix c, GrB_Matrix mask,
                                GrB_BinaryOp accum, double x,
                                const GrB_Index* rows, GrB_Index nrows,
                                const GrB_Index* cols, GrB_Index ncols,
                                GrB_Descriptor desc);
/* Typed scalar-assign variants (same FP64-storage coercion as setElement). */
GrB_Info GrB_Vector_assign_BOOL(GrB_Vector w, GrB_Vector mask,
                                GrB_BinaryOp accum, bool x,
                                const GrB_Index* idx, GrB_Index n,
                                GrB_Descriptor desc);
GrB_Info GrB_Vector_assign_INT64(GrB_Vector w, GrB_Vector mask,
                                 GrB_BinaryOp accum, int64_t x,
                                 const GrB_Index* idx, GrB_Index n,
                                 GrB_Descriptor desc);
GrB_Info GrB_Matrix_assign_BOOL(GrB_Matrix c, GrB_Matrix mask,
                                GrB_BinaryOp accum, bool x,
                                const GrB_Index* rows, GrB_Index nrows,
                                const GrB_Index* cols, GrB_Index ncols,
                                GrB_Descriptor desc);
GrB_Info GrB_Matrix_assign_INT64(GrB_Matrix c, GrB_Matrix mask,
                                 GrB_BinaryOp accum, int64_t x,
                                 const GrB_Index* rows, GrB_Index nrows,
                                 const GrB_Index* cols, GrB_Index ncols,
                                 GrB_Descriptor desc);

/* --- execution governor (GxB_Context, SuiteSparse-style extension) -------
 * A context carries a cooperative cancellation token, a wall-clock timeout,
 * and a byte budget. Engaging a context on a thread applies it to every
 * GraphBLAS call that thread subsequently makes, until disengaged. Each
 * call arms the timeout (measured from call entry) and the byte budget
 * (measured as growth over the call's entry footprint). Trips surface as:
 *
 *   GxB_CANCELLED     GxB_Context_cancel() was observed at a poll point;
 *   GxB_TIMEOUT       the wall-clock deadline passed;
 *   GrB_OUT_OF_MEMORY an allocation would exceed the byte budget.
 *
 * In all three cases every output object is bit-identical to its pre-call
 * state (the strong exception-safety contract of the write-back path).
 * GxB_Context_cancel is safe to call from ANY thread while another thread
 * is inside a GraphBLAS call under that context; the flag is sticky until
 * GxB_Context_reset. */
GrB_Info GxB_Context_new(GxB_Context* ctx);
GrB_Info GxB_Context_free(GxB_Context* ctx);
/* budget: max bytes of metered growth per call; 0 = unlimited. */
GrB_Info GxB_Context_set_budget(GxB_Context ctx, uint64_t bytes);
GrB_Info GxB_Context_get_budget(uint64_t* bytes, GxB_Context ctx);
/* timeout: wall-clock milliseconds per call; <= 0 = none. */
GrB_Info GxB_Context_set_timeout_ms(GxB_Context ctx, double ms);
GrB_Info GxB_Context_get_timeout_ms(double* ms, GxB_Context ctx);
/* Request cancellation (thread-safe, sticky until reset). */
GrB_Info GxB_Context_cancel(GxB_Context ctx);
GrB_Info GxB_Context_get_cancelled(bool* cancelled, GxB_Context ctx);
/* Clear the cancel flag so the context can be reused. */
GrB_Info GxB_Context_reset(GxB_Context ctx);
/* Engage/disengage the context on the CALLING thread. Engaging replaces any
 * previously engaged context; disengage(NULL) disengages whatever is
 * engaged. Disengaging a context that is not engaged on this thread returns
 * GrB_INVALID_VALUE. A context must be disengaged (on every thread) before
 * GxB_Context_free. */
GrB_Info GxB_Context_engage(GxB_Context ctx);
GrB_Info GxB_Context_disengage(GxB_Context ctx);

#ifdef __cplusplus
}
#endif

#endif /* LAGRAPH_REPRO_GRAPHBLAS_C_H */
