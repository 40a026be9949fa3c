(** Parallel execution layer: a fixed-size Domain worker pool with a task
    queue and futures.

    Experiments fan their *independent* units of work — per-figure runs,
    per-tile-count points, per-seed soak iterations — through a {!Pool.t}
    and merge the results in task-submission order, so parallel output is
    byte-identical to sequential output.

    Determinism contract: tasks must be independent (each owns its
    Engine/Rng/Platform; no shared mutable state), must not print to
    stdout, and results are always collected in submission order.  Use
    {!progress} for human-readable liveness lines: they go to stderr
    through a single writer so concurrent Domains cannot interleave
    characters within a line.

    A pool of size 1 (or {!Pool.sequential}) degenerates to immediate
    inline execution on the calling domain — no Domains are spawned and
    submission order is execution order, which is the reference behaviour
    the parallel mode must reproduce byte for byte. *)

module Pool : sig
  type t

  (** [create ~jobs ()] starts [jobs - 1] worker domains (the submitting
      domain is the remaining worker: it helps while awaiting).  [jobs]
      defaults to [Domain.recommended_domain_count ()]; values [<= 1]
      create a sequential pool. *)
  val create : ?jobs:int -> unit -> t

  (** A pool that runs every task inline at submission.  Never needs
      {!shutdown}. *)
  val sequential : t

  (** Worker count the pool was sized for (>= 1). *)
  val jobs : t -> int

  (** Stop the workers.  Idempotent; pending tasks are finished first. *)
  val shutdown : t -> unit

  (** [with_pool ~jobs f] runs [f] with a fresh pool, shutting it down on
      return or exception. *)
  val with_pool : ?jobs:int -> (t -> 'a) -> 'a
end

type 'a future

(** [submit pool f] enqueues [f].  On a sequential pool, [f] runs
    immediately on the calling domain.  Exceptions raised by [f] are
    captured and re-raised (with their backtrace) by {!await}.

    [f] runs under exactly its submitter's run settings (trace sink,
    metrics registry, fault plan), each forked into a child for this task
    by [M3v_obs.Ambient.task], whichever domain runs it, and under no
    setting of that domain's own.  The children join the submitter's
    settings at {!await} — in await (= submission) order — so parallel
    traces, metrics and fault runs are byte-identical to sequential
    ones. *)
val submit : Pool.t -> (unit -> 'a) -> 'a future

(** Wait for a future.  While waiting, the calling domain executes other
    queued tasks of the same pool ("helping"), so nested fan-out —
    a task that itself submits and awaits subtasks — cannot deadlock a
    fixed-size pool.  A helped task runs under its own submitter's
    settings, and the helper's are put back after it. *)
val await : 'a future -> 'a

(** [map pool f xs] submits [f x] for every element and awaits the
    results in list (= submission) order. *)
val map : Pool.t -> ('a -> 'b) -> 'a list -> 'b list

(** [all pool fs] runs the thunks and returns their results in list
    order. *)
val all : Pool.t -> (unit -> 'a) list -> 'a list

(** [progress line] prints [line ^ "\n"] to stderr atomically (single
    mutex-protected writer), flushing immediately.  Safe to call from any
    domain; the only cross-domain output channel tasks may use. *)
val progress : string -> unit
