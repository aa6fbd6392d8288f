(** Fork-based worker pool with deterministic merge.

    [run_results jobs] executes every job once and returns, in job order,
    the stdout the job printed and its marshalled result (or the reason
    it failed).  Jobs are dispatched to [workers] forked child processes
    over pipes carrying length-prefixed [Marshal] frames.  A worker that
    crashes, or that is stuck past [timeout], is killed and respawned,
    and its in-flight job comes back as [Error]: the pool never retries —
    retries, backoff and quarantine belong to {!Supervise}, which is the
    only caller that decides what a failure means.  Because each job's
    stdout is captured at the job and replayed by the caller in job
    order, and results are collected into a slot per job, the observable
    output is byte-for-byte identical to the serial run regardless of how
    jobs were scheduled across workers.

    With [workers <= 1] and neither a [timeout] nor a heap ceiling, jobs
    run serially in-process (no fork), through the same capture
    machinery, so serial and parallel runs share one output path.  Either
    limit needs a disposable process, so with one set even a
    single-worker run uses one forked worker.  With a [cache], jobs whose
    key is already stored are not executed at all — their recorded
    stdout and result are replayed — and freshly computed results are
    stored.

    Jobs must be pure (their thunks re-run after a crash must produce the
    same result) and must not write to stderr if byte-identical streams
    are required there too (only stdout is captured). *)

type stats = {
  jobs : int;  (** total jobs submitted *)
  cache_hits : int;  (** jobs served from the cache, not executed *)
  executed : int;  (** jobs actually simulated this run *)
  respawns : int;  (** workers replaced after a crash or timeout *)
  retried : int;
      (** job attempts beyond the first, across supervision waves —
          always 0 from {!run_results}; filled by {!Supervise} *)
  quarantined : int;
      (** jobs abandoned after exhausting every supervised attempt —
          always 0 from {!run_results}; filled by {!Supervise} *)
  resumed : int;
      (** jobs skipped because a resume journal marked them done —
          always 0 from {!run_results}; filled by {!Supervise} *)
}

exception Job_failed of { key : string; reason : string }
(** A job that {!Supervise} quarantined, raised by callers that need
    every payload (e.g. [Experiments.Registry.run_selection]). *)

exception Heap_ceiling_exceeded of { limit : int; reached : int }
(** A job's major heap grew past the configured ceiling (in words).
    Raised inside the worker by a GC alarm and surfaced to the caller as
    that job's [Error] string — a deterministic failure, never retried. *)

val default_workers : unit -> int
(** Parallelism matching the machine (the runtime's recommended domain
    count). *)

val run_results :
  ?workers:int ->
  ?timeout:float ->
  ?cache:Cache.t ->
  ?heap_ceiling_words:int ->
  ?on_done:(Job.t -> unit) ->
  Job.t list ->
  (string * (bytes, string) result) list * stats
(** Total: every job yields either [Ok payload] or [Error reason] in its
    slot and the whole matrix always completes — one bad job cannot
    discard its siblings' finished work.  [Error] covers a raising job
    (including {!Heap_ceiling_exceeded}), a worker crash and a blown
    per-attempt [timeout] (wall seconds); each job is attempted exactly
    once.  [workers] defaults to [1].  [heap_ceiling_words] bounds each
    job's major heap.  [on_done] fires in the parent the moment a job's
    result lands (cache hit or fresh execution, after any cache store) —
    {!Supervise} uses it to journal completions incrementally so a killed
    run can resume. *)
