(** Conservative-lookahead sharded discrete-event scheduler.

    Partitions a simulation into [K] regions ("shards"), each owning a
    private {!M3v_sim.Engine}, and advances them in synchronized windows
    under the classic conservative (YAWNS / bounded-lag) rule: shard [i]
    may execute events up to

      [min over j <> i of horizon(j) + lookahead - 1]

    where a shard's {e horizon} is the timestamp of its earliest pending
    event and an empty shard advertises an infinite horizon (the
    null-message rule — idle shards never deadlock a window, and a lone
    busy shard runs unthrottled).  [lookahead] is the minimum cross-shard
    message latency, extracted from the NoC model: a message born at a
    shard's horizon cannot arrive anywhere else sooner than
    [horizon + lookahead], so everything strictly before that is safe.

    Cross-shard communication goes through {!send}: messages buffer in the
    sending shard's private out-list during a window and are merged at the
    barrier, globally sorted by (delivery time, birth time, source shard,
    per-source sequence).  That key makes the delivered order independent
    of how simulated time happens to be cut into windows — so results are
    byte-identical across shard counts, worker counts, and
    checkpoint/resume boundaries.  The one obligation left to the model:
    the relative order of a {e delivered message} and a {e shard-local
    event} with the same timestamp is insertion-defined, so models mixing
    the two at equal times must order at the consumption point by message
    content, not arrival order (see [Exp_shard]'s mailbox discipline).

    Windows run on a {!Par.Pool.t} when the available work clears a
    threshold, inline (in shard index order) otherwise — and always inline
    while a trace sink or fault plan is installed, since both live in
    domain-local storage invisible to worker domains.

    A [t] is marshal-safe (no Domains, Atomics, or pool handles inside;
    the pool is an argument of {!run}, never stored), so sharded
    simulations checkpoint with the same [Marshal]-with-closures scheme as
    sequential ones. *)

type 'm t

type stats = {
  windows : int;  (** synchronization windows executed *)
  parallel_windows : int;  (** windows dispatched on the pool *)
  messages_routed : int;  (** cross-shard messages delivered *)
}

(** [create ~lookahead ~shards ()] builds a group of [shards] fresh
    engines.  [lookahead] (>= 1 ps) is the minimum cross-shard delivery
    latency the model guarantees; {!send} enforces it.
    [parallel_threshold] is the number of in-window pending events below
    which a window runs inline even when a pool is available (default
    64 — a barrier costs more than a handful of events). *)
val create : ?parallel_threshold:int -> lookahead:M3v_sim.Time.t -> shards:int -> unit -> 'm t

val shards : 'm t -> int
val lookahead : 'm t -> M3v_sim.Time.t

(** The engine owned by shard [i].  Models schedule shard-local events on
    it directly; the scheduler never inspects payloads. *)
val engine : 'm t -> int -> M3v_sim.Engine.t

(** Install the cross-shard delivery handler: [handler ~dst ~time msg] is
    called once per message, in merged order, on the coordinating domain
    between windows — typically it schedules an event at [time] on
    [engine t dst].  Required before {!send} or any delivery. *)
val set_handler : 'm t -> (dst:int -> time:M3v_sim.Time.t -> 'm -> unit) -> unit

(** [send t ~src ~dst ~time msg] routes [msg] for delivery at [time].
    Cross-shard ([src <> dst]) sends must satisfy
    [time >= now(src) + lookahead] (raises [Invalid_argument] otherwise)
    and are buffered until the window barrier; same-shard sends invoke the
    handler synchronously with no latency constraint.  Safe to call from
    inside shard [src]'s event execution on any domain. *)
val send : 'm t -> src:int -> dst:int -> time:M3v_sim.Time.t -> 'm -> unit

(** Run windows until every shard drains (or, with [until], until no
    event at or before it remains — then every shard's clock advances to
    [until] under the same rule as [Engine.run ~until]).  Returns the
    total number of events processed across shards.  With the default
    sequential pool every window runs inline. *)
val run : ?pool:Par.Pool.t -> ?until:M3v_sim.Time.t -> 'm t -> int

(** Execute a single synchronization window and return [`Events n]
    (n >= 1 unless capped), or [`Idle] when nothing remains at or before
    [until] (clocks then advance as in {!run}).  [max_events] caps each
    shard's event count within the window — stopping early is always
    conservative-safe — so condition-polling drivers ([run_while]) can
    re-check between chunks. *)
val step :
  ?pool:Par.Pool.t ->
  ?until:M3v_sim.Time.t ->
  ?max_events:int ->
  'm t ->
  [ `Events of int | `Idle ]

(** Total pending events across all shards. *)
val pending : 'm t -> int

(** Scheduler counters (windows, parallel windows, routed messages). *)
val stats : 'm t -> stats

(** {1 Telemetry}

    Per-window records and aggregates ({!Telemetry}) — a pure observer:
    enabling it never changes scheduling decisions or experiment output.
    While a collection is open ({!Telemetry.start_collecting}, i.e.
    [--telemetry]), {!create} enables telemetry automatically on every
    multi-shard group and registers it with the collector; single-shard
    groups (the sequential references inside sweeps) are skipped. *)

(** Enable telemetry on [t] (idempotent — returns the existing instance
    if already enabled).  [cap] bounds retained per-window records;
    aggregates are never capped. *)
val enable_telemetry : ?cap:int -> 'm t -> Telemetry.t

val telemetry : 'm t -> Telemetry.t option
