/* LAGraph resumable-execution C binding.
 *
 * An LAGraph_Runner wraps lagraph::Runner: it drives an iterative algorithm
 * in governor-sized slices (wall-clock deadline and/or byte budget per
 * slice), retries transient budget trips with exponential backoff after
 * climbing a degradation ladder, and — when a checkpoint path is set —
 * persists the capsule of every interrupted slice atomically so a process
 * crash loses at most one slice of work.
 *
 * Trip codes: a driven run that completes returns GrB_SUCCESS. A run that
 * gives up (cancelled, or retries/slice cap exhausted) returns the governor
 * trip code of its last slice — GxB_CANCELLED, GxB_TIMEOUT, or
 * GrB_OUT_OF_MEMORY — and still writes the partial result, whose progress
 * can be inspected through LAGraph_Runner_stats.
 *
 * Graph reuse: a Runner holds the graph of the last matrix it ran on — a
 * copy of `a` plus the properties the algorithms build on first use (the
 * transpose, the degrees, the undirected view). A call on the same,
 * unmodified matrix, or on a GrB_Matrix_dup of it, reuses that graph and
 * copies nothing. A different matrix, or any change to `a` since (setElement,
 * removeElement, clear, build, any operation writing `a`), makes the next
 * call copy afresh and release the old graph. One graph is held until
 * LAGraph_Runner_free or until such a call. A Runner serves one call at a
 * time.
 */
#ifndef LAGRAPH_REPRO_LAGRAPH_C_H
#define LAGRAPH_REPRO_LAGRAPH_C_H

#include "capi/graphblas_c.h"

#ifdef __cplusplus
extern "C" {
#endif

typedef struct LAGraph_Runner_opaque* LAGraph_Runner;

/* Why the last driven run stopped (mirrors lagraph::StopReason). */
typedef enum {
  LAGraph_STOP_NONE = 0,       /* ran to natural completion */
  LAGraph_STOP_CONVERGED,      /* residual fell under tolerance */
  LAGraph_STOP_MAX_ITERS,      /* iteration cap reached */
  LAGraph_STOP_DIVERGED,       /* non-finite iterate detected */
  LAGraph_STOP_CANCELLED,      /* LAGraph_Runner_cancel observed */
  LAGraph_STOP_TIMEOUT,        /* slice deadline passed (normal cadence) */
  LAGraph_STOP_OUT_OF_MEMORY   /* slice byte budget exceeded */
} LAGraph_StopReason;

GrB_Info LAGraph_Runner_new(LAGraph_Runner* r);
GrB_Info LAGraph_Runner_free(LAGraph_Runner* r);

/* Wall-clock deadline per slice in milliseconds; <= 0 disables slicing by
 * time (the default). */
GrB_Info LAGraph_Runner_set_slice_ms(LAGraph_Runner r, double ms);
/* Byte budget per slice, measured as growth over the slice-entry footprint;
 * 0 = unlimited (the default). */
GrB_Info LAGraph_Runner_set_slice_budget(LAGraph_Runner r, uint64_t bytes);
/* Hard cap on slices per run (default 1000); rejects n < 1. */
GrB_Info LAGraph_Runner_set_max_slices(LAGraph_Runner r, int n);
/* Retry policy for budget trips that survive the degradation ladder. */
GrB_Info LAGraph_Runner_set_retry(LAGraph_Runner r, int max_attempts,
                                  double backoff_ms, double backoff_factor,
                                  double budget_growth);
/* Crash-safe persistence: interrupted slices save their capsule to `path`
 * (atomic temp-file + rename), a fresh run resumes from it if present, and
 * a completed run deletes it. NULL or "" disables. */
GrB_Info LAGraph_Runner_set_checkpoint_path(LAGraph_Runner r,
                                            const char* path);

/* Request cancellation of the in-flight run. Safe from any thread; the run
 * returns GxB_CANCELLED at the next governor poll. */
GrB_Info LAGraph_Runner_cancel(LAGraph_Runner r);

/* Telemetry of the most recent run. Any out-pointer may be NULL. */
GrB_Info LAGraph_Runner_stats(LAGraph_Runner r, int32_t* slices,
                              int32_t* retries, int32_t* degradations,
                              bool* gave_up, LAGraph_StopReason* stop);

/* --- driven algorithms ---------------------------------------------------
 * The adjacency matrix is interpreted as directed and read through the
 * Runner's graph (see "Graph reuse" above); `a` itself is never modified.
 * `rank`/`level` are overwritten (any previous contents are cleared). */

/* PageRank: rank holds the per-vertex score; *iterations (optional) the
 * completed iteration count. */
GrB_Info LAGraph_Runner_pagerank(GrB_Vector rank, LAGraph_Runner r,
                                 GrB_Matrix a, double damping, double tol,
                                 int max_iters, int32_t* iterations);

/* BFS: level holds the 0-based hop count from source (absent = unreached). */
GrB_Info LAGraph_Runner_bfs_level(GrB_Vector level, LAGraph_Runner r,
                                  GrB_Matrix a, GrB_Index source);

/* Bellman-Ford SSSP: dist holds the distance from source (absent =
 * unreached). On an interruption trip the partial distances are valid upper
 * bounds; *iterations (optional) is the relaxation rounds completed. Returns
 * GrB_INVALID_VALUE on a negative cycle reachable from source. */
GrB_Info LAGraph_Runner_sssp_bellman_ford(GrB_Vector dist, LAGraph_Runner r,
                                          GrB_Matrix a, GrB_Index source,
                                          int32_t* iterations);

/* Connected components (FastSV): labels holds, per vertex, the minimum
 * vertex id of its component (edges are treated as undirected). Labels are
 * integers stored exactly in the FP64-backed vector. On an interruption
 * trip the partial labels are a valid coarsening (converging toward the
 * final labels); *rounds (optional) is the hook/shortcut rounds done. */
GrB_Info LAGraph_Runner_cc(GrB_Vector labels, LAGraph_Runner r, GrB_Matrix a,
                           int32_t* rounds);

/* Markov clustering: labels holds, per vertex, its cluster's attractor row
 * id (edges are treated as undirected; labels are integers stored exactly in
 * the FP64-backed vector). *iterations (optional) is the expansion/inflation
 * rounds completed. Requires inflation > 1, max_iters > 0, prune >= 0. */
GrB_Info LAGraph_Runner_mcl(GrB_Vector labels, LAGraph_Runner r, GrB_Matrix a,
                            double inflation, int max_iters, double prune,
                            int32_t* iterations);

/* Peer-pressure clustering: labels holds the cluster label per vertex
 * (integers, stored exactly in the FP64-backed vector). *iterations
 * (optional) is the voting rounds completed. Requires max_iters > 0. */
GrB_Info LAGraph_Runner_peer_pressure(GrB_Vector labels, LAGraph_Runner r,
                                      GrB_Matrix a, int max_iters,
                                      int32_t* iterations);

/* Batched Brandes betweenness centrality from `nsources` source vertices:
 * centrality holds the accumulated dependency score per vertex. Sources may
 * be NULL when nsources is 0 (scores are then all zero). */
GrB_Info LAGraph_Runner_bc(GrB_Vector centrality, LAGraph_Runner r,
                           GrB_Matrix a, const GrB_Index* sources,
                           GrB_Index nsources);

/* Delta-stepping SSSP: dist holds the distance from source (absent =
 * unreached). Requires delta > 0 and non-negative edge weights. On an
 * interruption trip the partial distances are valid upper bounds;
 * *iterations (optional) is the buckets settled. */
GrB_Info LAGraph_Runner_sssp_delta_stepping(GrB_Vector dist, LAGraph_Runner r,
                                            GrB_Matrix a, GrB_Index source,
                                            double delta, int32_t* iterations);

/* Strongly connected components: labels holds, per vertex, its component's
 * representative vertex id (edge direction respected; labels are integers
 * stored exactly in the FP64-backed vector). *pivots (optional) is the
 * pivot vertices consumed by the trimming/forward-backward drive. */
GrB_Info LAGraph_Runner_scc(GrB_Vector labels, LAGraph_Runner r, GrB_Matrix a,
                            int32_t* pivots);

/* Greedy Luby-style vertex coloring: colors holds a 1-based color per vertex
 * (edges are treated as undirected; a valid coloring has no equal-colored
 * neighbors). `seed` randomises the independent-set priorities; *rounds
 * (optional) is the selection rounds completed. */
GrB_Info LAGraph_Runner_coloring(GrB_Vector colors, LAGraph_Runner r,
                                 GrB_Matrix a, uint64_t seed, int32_t* rounds);

/* --- concurrent serving ---------------------------------------------------
 * An LAGraph_Service wraps lagraph::GraphService: a worker pool serving
 * algorithm requests against named published graph snapshots, with admission
 * control (bounded queue + memory-pressure shedding -> GxB_OVERLOADED), a
 * per-request governor armed from the service policy, and a stall watchdog
 * that cancels requests making no governor-poll progress. */

typedef struct LAGraph_Service_opaque* LAGraph_Service;

/* Lifecycle state of a submitted job (mirrors Service::State). */
typedef enum {
  LAGraph_JOB_QUEUED = 0,
  LAGraph_JOB_RUNNING,
  LAGraph_JOB_DONE,
  LAGraph_JOB_FAILED,
  LAGraph_JOB_CANCELLED
} LAGraph_JobState;

/* Create a service. workers >= 1; queue_limit bounds the submission queue
 * (0 = unbounded); timeout_ms / budget_bytes arm each request's governor
 * (0 disables); shed_bytes sheds submissions above that live-byte watermark
 * (0 disables); stall_ms is the watchdog's no-progress threshold (0 disables
 * the watchdog). Workers start immediately. */
GrB_Info LAGraph_Service_new(LAGraph_Service* s, int workers,
                             uint64_t queue_limit, double timeout_ms,
                             uint64_t budget_bytes, uint64_t shed_bytes,
                             double stall_ms);

/* LAGraph_Service_new plus the batching admission stage: concurrent
 * bfs/sssp/pagerank submissions against the same snapshot coalesce into one
 * multi-source kernel run of up to batch_max requests, each batch staying
 * open at most batch_window_us microseconds (an idle worker dispatches an
 * open batch immediately, so window 0 adds no latency). batch_max <= 1
 * disables coalescing (identical to LAGraph_Service_new). Results are
 * bit-identical per request to unbatched runs. */
GrB_Info LAGraph_Service_new_ex(LAGraph_Service* s, int workers,
                                uint64_t queue_limit, double timeout_ms,
                                uint64_t budget_bytes, uint64_t shed_bytes,
                                double stall_ms, uint64_t batch_max,
                                double batch_window_us);

/* Stop workers (cancelling in-flight jobs cooperatively) and destroy. */
GrB_Info LAGraph_Service_free(LAGraph_Service* s);

/* Freeze a copy of `a` (interpreted as directed) and publish it under
 * `name`. Republishing a name replaces the version seen by *future*
 * submissions; in-flight jobs keep their snapshot (snapshot isolation).
 * The displaced version is freed as soon as no unfinished job holds it. */
GrB_Info LAGraph_Service_publish(LAGraph_Service s, const char* name,
                                 GrB_Matrix a);

/* Version counter for a published name via *version (0 = never published). */
GrB_Info LAGraph_Service_version(LAGraph_Service s, const char* name,
                                 uint64_t* version);

/* Submit an algorithm job against the current snapshot of `graph`:
 * algo is "pagerank" (arg unused; damping 0.85, tol 1e-9, 100 iterations),
 * "bfs" (arg = source, hop levels), "sssp" (arg = source, Bellman-Ford
 * distances), "cc" / "scc" (arg unused, component labels) or "coloring"
 * (arg = seed, 1-based colors). Each result matches its LAGraph_Runner_*
 * call bit for bit. On admission *job_id receives the handle for
 * poll/wait/cancel. Returns GrB_INVALID_VALUE for an unknown algorithm or
 * graph name, GrB_INVALID_INDEX for a source outside the graph (a seed is
 * never checked), and GxB_OVERLOADED when the service sheds the request
 * (queue full or memory pressure) — nothing was enqueued and the service
 * remains serviceable. */
GrB_Info LAGraph_Service_submit(LAGraph_Service s, const char* algo,
                                const char* graph, GrB_Index arg,
                                uint64_t* job_id);

/* Non-blocking job state probe. */
GrB_Info LAGraph_Service_poll(LAGraph_Service s, uint64_t job_id,
                              LAGraph_JobState* state);

/* Block until the job is terminal and copy its result vector into
 * `result` (resized to the graph's dimension, even for a job cancelled
 * before it ran). A run the governor stopped returns the trip code
 * (GxB_CANCELLED / GxB_TIMEOUT / GrB_OUT_OF_MEMORY) and still writes the
 * partial result; a failed job returns its mapped error code. The job
 * record stays until LAGraph_Service_release, so waiting again gives the
 * same vector. */
GrB_Info LAGraph_Service_wait(GrB_Vector result, LAGraph_Service s,
                              uint64_t job_id);

/* Request cooperative cancellation; the job trips GxB_CANCELLED at its next
 * governor poll. */
GrB_Info LAGraph_Service_cancel(LAGraph_Service s, uint64_t job_id);

/* Drop a job's record and result storage. */
GrB_Info LAGraph_Service_release(LAGraph_Service s, uint64_t job_id);

/* Counter snapshot. Any out-pointer may be NULL. */
GrB_Info LAGraph_Service_stats(LAGraph_Service s, uint64_t* submitted,
                               uint64_t* shed, uint64_t* completed,
                               uint64_t* failed, uint64_t* cancelled,
                               uint64_t* watchdog_cancels,
                               uint64_t* queue_depth, uint64_t* running);

/* Batching counters: *batches is coalesced batches dispatched,
 * *batched_requests the member requests they carried (mean batch size =
 * batched_requests / batches). Any out-pointer may be NULL. */
GrB_Info LAGraph_Service_batch_stats(LAGraph_Service s, uint64_t* batches,
                                     uint64_t* batched_requests);

#ifdef __cplusplus
}
#endif

#endif /* LAGRAPH_REPRO_LAGRAPH_C_H */
