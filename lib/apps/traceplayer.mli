(** The traceplayer: replays a syscall trace against an m3fs client.

    One traceplayer runs per tile next to a file-system instance on the
    same tile, so that every call context-switches between the two
    (paper, section 6.4). *)

type results = {
  mutable runs_completed : int;
  mutable run_times : M3v_sim.Time.t list;  (** most recent first *)
}

val make_results : unit -> results

(** Recorded runs per second of their summed run time; 0 before any
    recorded run. *)
val rate : results -> float

(** [program results ~client ~trace ~runs ~warmup] replays [trace]
    [warmup + runs] times; only the last [runs] are recorded. *)
val program :
  results ->
  client:M3v_os.Fs_client.t Lazy.t ->
  trace:Trace.t ->
  runs:int ->
  warmup:int ->
  M3v_mux.Act_api.env ->
  unit M3v_sim.Proc.t

(** Host-level setup of the trace's directory tree on an fs core. *)
val setup_fs : M3v_os.Fs_core.t -> Trace.t -> unit
