(** The discrete-event simulation engine.

    The engine owns the global clock and a queue of timestamped callbacks.
    Everything in the simulated platform (cores, DTUs, NoC links, DRAM)
    advances by scheduling callbacks here.  The engine is strictly
    single-threaded and deterministic. *)

type t

val create : unit -> t

(** Current simulated time. *)
val now : t -> Time.t

(** [at eng ~time f] schedules [f] to run at absolute [time]
    (>= [now eng]). *)
val at : t -> time:Time.t -> (unit -> unit) -> unit

(** [after eng ~delay f] schedules [f] to run [delay] after [now]. *)
val after : t -> delay:Time.t -> (unit -> unit) -> unit

(** [at_apply eng ~time k x] schedules [k x] at absolute [time] without
    allocating a wrapper closure — the non-allocating fast path for the
    dominant completion-delivery events ([fun () -> k result]). *)
val at_apply : t -> time:Time.t -> ('a -> unit) -> 'a -> unit

(** [after_apply eng ~delay k x] schedules [k x] to run [delay] after
    [now]; see {!at_apply}. *)
val after_apply : t -> delay:Time.t -> ('a -> unit) -> 'a -> unit

(** [spin eng ~gap ~settle ~poll ~settled] starts a retry loop.  It is
    called from the completion of a command that failed, in place of
    [after eng ~delay:gap retry], and runs the two-event loop that
    [after] would start:

    - a poll, [gap] after the previous step: [poll ()] returns [true] when
      the command would fail again, having done the failed command's
      bookkeeping; its completion is then due [settle] later.  [false]
      means [poll] ran the real command itself, and the loop ends;
    - a completion: [settled ()] does the failed completion's
      bookkeeping, and the next poll is due [gap] later.

    Each step is an ordinary event, pushed where a scheduled retry would
    have been (the first poll at this call, each later step at the end of
    the step before), so it has the same [(time, seq)] slot and counts as
    one event everywhere an event counts.  The engine allocates one
    record per loop and nothing per step; only [poll] and [settled]
    can. *)
val spin :
  t ->
  gap:Time.t ->
  settle:Time.t ->
  poll:(unit -> bool) ->
  settled:(unit -> unit) ->
  unit

(** Run until the event queue drains or [until] is reached.  Returns the
    number of events processed, defined as the delta of
    {!events_processed} over the call — a single source of truth, so work
    enqueued mid-call (e.g. by an observer at exactly [until]) is counted
    exactly once whether this call or a later one processes it.

    The clock advances to [until] only when no pending event remains at or
    before it — if [max_events] stops the loop with such events pending,
    [now] stays at the last processed event. *)
val run : ?until:Time.t -> ?max_events:int -> t -> int

(** Number of events processed so far over the engine's lifetime. *)
val events_processed : t -> int

(** Number of events still pending; a {!spin} loop's next step is one. *)
val pending : t -> int

(** Reset the clock to zero and drop pending events, retry loops
    included. *)
val reset : t -> unit

(** [set_observer t (Some f)] installs a dispatch-loop observer: [f now
    pending] is invoked every 1024 processed events.  The tracing layer uses
    it to sample queue depth without touching the hot loop when disabled
    ([None], the default). *)
val set_observer : t -> (Time.t -> int -> unit) option -> unit
