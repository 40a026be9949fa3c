(** Figure 9: scalability of context-switch-heavy applications under tile
    multiplexing, M3x vs M3v.

    The gem5 configuration: 3 GHz out-of-order x86-64 cores, one
    traceplayer plus one m3fs instance per user tile (so every file-system
    call context-switches), traces of "find" (24 directories x 40 files)
    and "SQLite" (32 inserts + selects).  Throughput in application runs
    per second across 1..12 tiles, after one warmup run per tile.

    On M3v, switches are tile-local (TileMux), so throughput scales almost
    linearly.  On M3x every call takes the slow path through the single
    controller, which serializes remote endpoint save/restores — the
    system saturates around 50-95 runs/s regardless of tile count. *)

type point = {
  tiles : int;
  runs_per_s : (string * float) list;
      (** by series label: ["M3v find"], ["M3x find"], ["M3v SQLite"],
          ["M3x SQLite"] *)
}

type result = { points : point list }

val run :
  ?pool:M3v_par.Par.Pool.t -> ?runs:int -> ?warmup:int ->
  ?tile_counts:int list -> unit -> result
val print : result -> unit

(** Throughput of one configuration (exposed for tests/calibration). *)
val throughput :
  variant:System.variant -> trace:M3v_apps.Trace.t -> tiles:int ->
  runs:int -> warmup:int -> unit -> float
