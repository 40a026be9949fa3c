(** Typed metrics registry: counters, gauges, and histograms labelled by
    (tile, activity, category), with ring-buffer time-series sampling and
    deterministic text/JSON export.

    Like {!Trace}'s sink, the registry is an {!Ambient} setting: emitters
    allocate nothing when no registry is installed, and while no domain
    has one they cost one atomic load, so instrumented hot paths are free
    in ordinary runs.

    Pool tasks take the registry by {!Ambient}'s per-task rule: each task
    records into a fresh shard, which joins the submitter's registry at
    [await], in submission order: counters add, histograms merge, gauges
    keep the value with the later simulated timestamp (the shard wins
    ties), series are merge-sorted by timestamp and truncated to the ring
    capacity.  So [--jobs N] output is byte-identical to a sequential
    run. *)

type t

(** [create ()] makes an empty registry.  Each gauge/counter keeps at most
    512 time-series samples (a ring of the newest). *)
val create : unit -> t

(** {1 Ambient registry} *)

(** [with_registry r f] runs [f] with [r] as this domain's registry, then
    puts back the registry [f] replaced (or none), on return or
    exception. *)
val with_registry : t -> (unit -> 'a) -> 'a

(** Whether a registry is installed on this domain.  Hot call sites check
    this before computing emitter arguments.  Exact on every domain (see
    {!Ambient.on}). *)
val on : unit -> bool

(** The number of domains that have a registry installed now (a task's
    shard counts while it runs; see {!Ambient.domains}). *)
val installed_domains : unit -> int

(** {1 Emitters} — no-ops when no registry is installed.  A name must keep
    one metric type for the whole run; mixing types raises
    [Invalid_argument]. *)

val counter_add :
  name:string -> ?tile:int -> ?act:int -> ?cat:string -> float -> unit

val counter_incr :
  name:string -> ?tile:int -> ?act:int -> ?cat:string -> unit -> unit

(** [gauge_set ~name ~ts v] records the gauge's current value at simulated
    time [ts] (ps).  Merges resolve concurrent shards by latest [ts]. *)
val gauge_set :
  name:string -> ?tile:int -> ?act:int -> ?cat:string -> ts:int -> float -> unit

(** Record a sample into a labelled histogram. *)
val observe : name:string -> ?tile:int -> ?act:int -> ?cat:string -> float -> unit

(** {1 Sampling} *)

(** Push the current value of every counter and gauge of this domain's
    registry, if any, into its ring series, stamped [ts].  Wired to the
    engine observer (every 1024 simulation events) so cadence is
    deterministic in simulated time. *)
val sample_ambient : ts:int -> unit

(** {1 Export} *)

(** Deterministic JSON: metrics sorted by (name, tile, act, cat);
    histograms exported as count/mean/p50/p90/p99/max; series as
    [[ts_ps, value]] pairs. *)
val to_buffer : t -> Buffer.t

val to_json : t -> string

(** Human-readable tables (counters, gauges, histograms). *)
val print : Format.formatter -> t -> unit
