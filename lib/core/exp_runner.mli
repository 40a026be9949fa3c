(** Entry points used by the CLI: run an experiment with paper-default
    parameters and print the table/figure.  Integer knobs follow the CLI
    convention that [<= 0] picks the experiment's default ({!positive}).

    Every command that simulates runs through one combinator, {!run},
    with the settings it takes, {!opts}, and the rest left at their
    {!default}s; [all] and the [chaos] seed sweep do too.  The paper's
    evaluation is one
    list, {!experiments}, which [all], [profile] and the CLI's
    per-experiment commands iterate over. *)

(** [positive n] is [Some n] when [n > 0], else [None] (the default). *)
val positive : int -> int option

type opts = {
  trace : string option;
      (** Record the run into a trace sink: on completion a Chrome
          trace-event JSON file is written here and latency percentiles
          plus a per-tile event summary are printed (see {!M3v_obs}). *)
  metrics : string option;
      (** Run with a metrics registry installed: counters, gauges and
          histograms (credit stalls, TLB miss rate, receive-buffer
          occupancy, NoC link utilization, ...) are exported here as
          JSON and printed as text tables. *)
  faults : string option;
      (** A {!M3v_fault.Fault.parse}-able spec (e.g.
          ["drop=0.01,dup=0.005,crash=2"]): run under a deterministic
          fault plan seeded with [fault_seed] and print the injection
          tally at the end. *)
  fault_seed : int;
  jobs : int option;
      (** Fan the experiment's independent units — bars, sweep points,
          seeds — out over a {!M3v_par.Par} Domain pool of this size
          ([None]: the [M3V_JOBS] environment variable or the core
          count).  Results merge in task-submission order, so parallel
          and sequential runs print byte-identical output. *)
}

(** No trace, metrics or faults; [fault_seed = 7]; [jobs = None]. *)
val default : opts

(** [run opts f] gives [f] a pool sized by [opts.jobs] — 1 wide whenever
    [trace] or [faults] is set, since both are domain-local and cannot
    follow tasks onto worker domains — and runs it under the fault plan,
    trace sink and metrics registry [opts] asks for, in that nesting
    order.  Metrics do not force a sequential pool: the pool keeps one
    registry per task and merges them in submission order, so [--jobs 4]
    output is byte-identical to [--jobs 1]. *)
val run : opts -> (M3v_par.Par.Pool.t -> unit) -> unit

(** The size flag an experiment takes: [--rounds] (measured RPC round
    trips) or [--runs] (measured repetitions). *)
type size = Rounds | Runs

type experiment = {
  name : string;  (** the CLI subcommand *)
  doc : string;  (** its one-line CLI doc *)
  size : size option;
  run : M3v_par.Par.Pool.t -> int option -> unit -> unit;
      (** [run pool n] computes the experiment on [pool] — at size [n],
          or its default for [None] — and returns its printer. *)
}

(** The evaluation in the paper's order — Table 1, §6.1 complexity,
    Figs 6–9, the §6.5.1 voice assistant, Fig 10 — then our ablations. *)
val experiments : experiment list

val find : string -> experiment option

(** Chaos soak ({!Exp_chaos}): fs + kv workloads on m3fs under fault
    injection, exercising DTU retransmit, the TileMux watchdog,
    controller crash recovery and client RPC deadlines.  [faults]
    defaults to {!Exp_chaos.default_spec}; [rounds]/[ops] <= 0 pick the
    experiment defaults.  [seeds] > 1 soaks that many consecutive seeds
    starting at [fault_seed], fanned out over the pool.

    [checkpoint_every_ms > 0] checkpoints the whole simulator every that
    many simulated milliseconds to [checkpoint_file]; [stop_after > 0]
    abandons the run after the [n]-th checkpoint (report suppressed —
    resume to finish); [resume:file] continues a checkpointed run instead
    of starting one.  A resumed run's report is byte-identical to an
    uninterrupted run's.  Checkpointing is single-seed and incompatible
    with [trace]; a resume takes its spec and seed from the checkpoint,
    so [trace], [faults] or [seeds > 1] alongside [resume] exit 2 before
    the checkpoint is loaded. *)
val chaos :
  ?trace:string -> ?faults:string -> fault_seed:int -> ?jobs:int ->
  seeds:int -> checkpoint_every_ms:int -> checkpoint_file:string ->
  stop_after:int -> ?resume:string -> rounds:int -> ops:int -> unit -> unit

(** Critical-path profiler: run [exp] (any name in
    {!experiments}) sequentially under a trace sink, then
    decompose each message flow's end-to-end latency into paper-aligned
    segments (sender command, NoC transit, mux scheduling delay,
    activity-switch cost, buffer wait, server compute, reply) with
    p50/p99 per segment.  Segments sum exactly (in simulated picoseconds)
    to the end-to-end latency.  [trace] additionally dumps the Chrome
    trace, [folded] a flamegraph-style folded-stack file of simulated-time
    spans, [metrics] the metrics registry JSON.  [rounds] sizes an
    experiment whose size flag is [Rounds], [runs] one whose flag is
    [Runs]; <= 0 picks the experiment default.  Output files are opened
    before the run: a path that cannot be written exits 1 at once. *)
val profile :
  exp:string -> ?trace:string -> ?folded:string -> ?metrics:string ->
  rounds:int -> runs:int -> unit -> unit

(** Every entry of {!experiments} at its default size.  Whole
    experiments run as parallel tasks (and fan out internally); printing
    happens on the main domain in evaluation order. *)
val all : ?jobs:int -> unit -> unit
