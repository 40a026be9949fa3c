(** Chaos-soak experiment: fs and kv workloads on m3fs under deterministic
    fault injection ({!M3v_fault.Fault}), exercising the whole recovery
    stack — DTU retransmit/dedup, the TileMux watchdog, controller crash
    handling with in-place service restarts, and bounded client RPC
    deadlines.  The same spec and seed reproduce the same run exactly. *)

type result = {
  spec : M3v_fault.Fault.spec;
  seed : int;
  fs_done : bool;  (** the fs client ran all its rounds to the end *)
  kv_done : bool;  (** the kv client ran all its ops to the end *)
  fs_rounds : int;  (** rounds fully completed (restarts repeat rounds) *)
  data_ok : bool;  (** every completed read round returned intact bytes *)
  kv_ok : int;
  kv_errors : int;  (** ops that surfaced [R_err] (e.g. EIO) *)
  fault_stats : M3v_fault.Fault.stats;
  dtu_retries : int;
  dtu_timeouts : int;
  dtu_dup_drops : int;
  crashes : int;
  restarts : int;
  credits_reclaimed : int;
  end_time : M3v_sim.Time.t;
}

(** drop=0.01, dup=0.005, delay=0.01, cmd_fail=0.005, crash=2, hang=1. *)
val default_spec : M3v_fault.Fault.spec

val run :
  ?spec:M3v_fault.Fault.spec ->
  ?seed:int ->
  ?fs_rounds:int ->
  ?kv_ops:int ->
  unit ->
  result

(** {1 Checkpoint/restore}

    A checkpointed soak periodically marshals the whole simulator
    ({!M3v_sim.Checkpoint}) so the run can be stopped and resumed across
    OS processes of the same binary.  Slicing the run at checkpoint
    instants does not change the event order, so a resumed run's report is
    byte-identical to an uninterrupted one's.  Unsupported together with a
    live trace sink (channels cannot be marshalled). *)

type ckpt_outcome =
  | Completed of result
  | Suspended of { checkpoints : int; file : string }
      (** stopped after writing [checkpoints] checkpoints; resume from
          [file] *)

(** Like {!run}, but checkpoint to [file] at every multiple of [every]
    simulated time (overwriting, atomically); with [stop_after:n],
    abandon the run after the [n]-th checkpoint is written. *)
val run_checkpointed :
  ?spec:M3v_fault.Fault.spec ->
  ?seed:int ->
  ?fs_rounds:int ->
  ?kv_ops:int ->
  every:M3v_sim.Time.t ->
  file:string ->
  ?stop_after:int ->
  unit ->
  ckpt_outcome

(** Load a checkpoint and continue the soak (including its checkpoint
    schedule) to completion — or, with [stop_after], to the next stop. *)
val resume :
  file:string ->
  ?stop_after:int ->
  unit ->
  (ckpt_outcome, string) Stdlib.result

(** [run_sweep ~pool ~seeds:n] soaks [n] consecutive seeds starting at
    [seed], fanning the runs out over [pool] as independent tasks (each
    installs its fault plan domain-locally).  Results return in seed
    order, so the printed sweep is byte-identical however many workers ran
    it; so are the per-seed completion lines on stderr, printed through
    {!M3v_par.Par.progress} as each seed is awaited. *)
val run_sweep :
  ?pool:M3v_par.Par.Pool.t ->
  ?spec:M3v_fault.Fault.spec ->
  ?seed:int ->
  ?seeds:int ->
  ?fs_rounds:int ->
  ?kv_ops:int ->
  unit ->
  result list

val print : result -> unit
