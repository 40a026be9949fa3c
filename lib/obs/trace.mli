(** Unified tracing and metrics.

    Tracepoints throughout the stack (engine dispatch, NoC packets, DTU
    command lifecycles, TileMux scheduling, controller syscalls) report
    into the {!sink} installed on the running domain.  The sink records
    events in simulated time, keyed by tile ("pid") and activity ("tid"),
    and accumulates latency histograms plus per-tile/per-category
    tallies.

    When no sink is installed every tracepoint is a cheap no-op that
    allocates nothing (benchmark figures are bit-identical with tracing
    off).  While no domain of the process has a sink, the disabled check
    is one atomic load of a process-wide count; only when some domain
    traces does it also read this domain's sink.  Call sites on hot paths
    additionally guard argument construction with {!on}.

    Export formats: Chrome trace-event JSON via {!Chrome}, human-readable
    latency/summary tables via {!Report}. *)

type value = I of int | F of float | S of string

type phase =
  | Complete  (** a span: [ts .. ts+dur] *)
  | Instant
  | Counter
  | Flow_start  (** first point of a causal flow (Chrome ph "s") *)
  | Flow_step  (** intermediate point (Chrome ph "t") *)
  | Flow_end  (** terminal point (Chrome ph "f") *)

type event = {
  ev_cat : string;
  ev_name : string;
  ev_ph : phase;
  ev_ts : int;  (** simulated time, ps *)
  ev_dur : int;  (** span duration, ps; 0 otherwise *)
  ev_tile : int;  (** -1 when not tile-attributed *)
  ev_act : int;  (** -1 when not activity-attributed *)
  ev_id : int;  (** flow id for [Flow_*] events; -1 otherwise *)
  ev_args : (string * value) list;
}

type sink

(** [make ()] creates a sink.  At most [max_events] events are retained
    (later ones are counted in {!dropped}); histograms and tallies keep
    accumulating regardless. *)
val make : ?max_events:int -> unit -> sink

(** Install [s] as the global sink; tracepoints are live from here on.
    Installing also resets every {!at_install}-registered run-local
    allocator, so identical runs under fresh sinks emit byte-identical
    traces. *)
val install : sink -> unit

(** Register a reset hook run by {!install} (e.g. the message uid counter
    whose values flow events embed).  Call at module-init time only. *)
val at_install : (unit -> unit) -> unit

val uninstall : unit -> unit

(** [with_sink s f] runs [f] with [s] installed, uninstalling on return or
    exception. *)
val with_sink : sink -> (unit -> 'a) -> 'a

(** Whether a sink is installed on this domain.  Hot call sites check
    this before computing tracepoint arguments.  It reads the process-wide
    count of domains with a sink first, and this domain's sink only when
    that count is above 0; the answer is exact on every domain. *)
val on : unit -> bool

(** The number of domains that have a sink installed now.  For tests: a
    count left above 0 changes no result, but keeps every {!on} on its
    slow path. *)
val installed_domains : unit -> int

(** {1 Tracepoints} — all are no-ops when no sink is installed. *)

(** A completed span: work of [dur] ps that began at [ts]. *)
val complete :
  cat:string ->
  name:string ->
  ?tile:int ->
  ?act:int ->
  ts:int ->
  dur:int ->
  ?args:(string * value) list ->
  unit ->
  unit

val instant :
  cat:string ->
  name:string ->
  ?tile:int ->
  ?act:int ->
  ts:int ->
  ?args:(string * value) list ->
  unit ->
  unit

val counter :
  cat:string ->
  name:string ->
  ?tile:int ->
  ?act:int ->
  ts:int ->
  value:float ->
  unit ->
  unit

(** {2 Causal flows}

    A flow links causally-related points across tiles: all points of one
    flow share [(cat, name, id)] — in practice [cat = "flow"],
    [name = "msg"], [id] = the message uid — and the point kind (issue,
    inject, deliver, fetch) travels in [args].  Chrome/Perfetto draw an
    arrow from each point to the next. *)

val flow_start :
  cat:string ->
  name:string ->
  id:int ->
  ?tile:int ->
  ?act:int ->
  ts:int ->
  ?args:(string * value) list ->
  unit ->
  unit

val flow_step :
  cat:string ->
  name:string ->
  id:int ->
  ?tile:int ->
  ?act:int ->
  ts:int ->
  ?args:(string * value) list ->
  unit ->
  unit

val flow_end :
  cat:string ->
  name:string ->
  id:int ->
  ?tile:int ->
  ?act:int ->
  ts:int ->
  ?args:(string * value) list ->
  unit ->
  unit

(** Record a sample into the named latency histogram (ps). *)
val latency : string -> float -> unit

val latency_int : string -> int -> unit

(** {1 Reading a sink} *)

val events : sink -> event list

(** Events recorded (excluding dropped ones). *)
val event_count : sink -> int

(** Events discarded after the sink's [max_events] cap was reached. *)
val dropped : sink -> int

(** The sink's event cap, as passed to {!make}. *)
val max_events : sink -> int

val histogram : sink -> string -> M3v_sim.Stats.Histogram.t
val histograms : sink -> (string * M3v_sim.Stats.Histogram.t) list

(** [(key, count, total_dur_ps)] per ["tile<i>/<cat>/<name>"], sorted. *)
val tallies : sink -> (string * int * int) list
