(** Unified tracing and metrics.

    Tracepoints throughout the stack (engine dispatch, NoC packets, DTU
    command lifecycles, TileMux scheduling, controller syscalls) report
    into the {!sink} installed on the running domain.  The sink records
    events in simulated time, keyed by tile ("pid") and activity ("tid"),
    and accumulates latency histograms plus per-tile/per-category
    tallies.

    When no sink is installed every tracepoint is a cheap no-op that
    allocates nothing (benchmark figures are bit-identical with tracing
    off).  The sink is an {!Ambient} setting: while no domain of the
    process has one, the disabled check is one atomic load.  Call sites
    on hot paths additionally guard argument construction with {!on}.

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

(** Register a run-local allocator (e.g. the message uid counter whose
    values flow events embed): the hook resets it and returns what puts it
    back.  {!with_sink} runs the hooks when it installs a domain's first
    sink, and every pool task that records into a sink runs them at its
    start, wherever it runs.  Call at module-init time only. *)
val at_install : (unit -> unit -> unit) -> unit

(** [with_sink s f] runs [f] with [s] as this domain's sink, then puts
    back the sink [f] replaced (or none), on return or exception.  When
    the domain had no sink, it first resets every
    {!at_install}-registered run-local allocator, and puts them back
    after, so identical runs under fresh sinks emit byte-identical
    traces; a sink installed inside another keeps counting, so the outer
    trace's flow ids stay distinct.

    Pool tasks ([Par.submit]) take the sink by {!Ambient}'s per-task
    rule.  Each task records into a child of its submitter's sink, with
    message uids that start afresh, and the child joins the submitter's
    sink when the submitter awaits the task: its events after the events
    already there, as a task of their own, and its histograms and tallies
    merged into the submitter's.  A child may keep half, rounded up, of
    the events its parent has not yet kept or lent, and gives back what
    it did not use when it joins, so one run's sinks never hold more than
    the first sink's cap between them. *)
val with_sink : sink -> (unit -> 'a) -> 'a

(** [scoped f] runs [f] under a sink of its own and returns that sink
    with [f]'s result: a child of this domain's sink, which may keep all
    the events its parent has not yet kept or lent and joins the parent
    when [f] returns or raises, or a fresh sink when the domain has
    none.  For code that analyses the events of one stretch of a run
    whether or not the run is traced. *)
val scoped : (unit -> 'a) -> 'a * sink

(** Whether a sink is installed on this domain.  Hot call sites check
    this before computing tracepoint arguments.  Exact on every domain
    (see {!Ambient.on}). *)
val on : unit -> bool

(** The number of domains that have a sink installed now (see
    {!Ambient.domains}). *)
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
val latency_int : string -> int -> unit

(** {1 Reading a sink} *)

(** Every event, in order: each task's events in the order it recorded
    them, and a joined task's after the events its parent had recorded
    before the join. *)
val events : sink -> event list

(** {!events} in runs that each belong to one task, with the task's
    number in the sink: [0] for the sink's own task, then the tasks joined
    into it, numbered in join order, a joined task's own tasks after it.
    Message uids, and so flow ids, are unique only within a task. *)
val parts : sink -> (int * event list) list

(** Events recorded (excluding dropped ones). *)
val event_count : sink -> int

(** Events discarded after the sink's [max_events] cap was reached. *)
val dropped : sink -> int

(** The sink's event cap, as passed to {!make}. *)
val max_events : sink -> int

val histograms : sink -> (string * M3v_sim.Stats.Histogram.t) list

(** [(key, count, total_dur_ps)] per ["tile<i>/<cat>/<name>"], sorted. *)
val tallies : sink -> (string * int * int) list

(** The label of an activity id the vDTU reserves: ["(no act)"] for
    [Dtu_types.invalid_act], ["tilemux"] for [tilemux_act]; [None] for
    any other id. *)
val reserved_act : int -> string option
