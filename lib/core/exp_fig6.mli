(** Figure 6: local/remote communication on M3v and similar primitives on
    Linux.

    - "M3v remote": no-op RPC between activities on two BOOM tiles;
    - "M3v local": the same RPC with both activities sharing one tile (two
      TileMux context switches per round trip);
    - "Linux syscall": a no-op system call;
    - "Linux yield (2x)": two yields between two processes (two context
      switches).

    1000 measured round trips on a warm system, as in the paper.  Also
    reports the M3x tile-local RPC on the 3 GHz gem5 configuration, which
    the paper cites as ~27k cycles vs ~5k for M3v. *)

type result = {
  bars : Exp_common.bar list;  (** microseconds at 80 MHz *)
  kcycles : (string * float) list;  (** same data in kilo-cycles *)
  m3x_local_kcycles_3ghz : float;
  m3v_local_kcycles_3ghz : float;
}

(** Average time of one no-op RPC from an activity on [client_tile] to
    an echo server on [server_tile]: [rounds] calls, of which the first
    [warmup] are not timed. *)
val rpc_duration :
  ?topology:M3v_noc.Topology.t ->
  variant:System.variant ->
  spec:M3v_tile.Platform.tile_spec list ->
  client_tile:int ->
  server_tile:int ->
  rounds:int ->
  warmup:int ->
  unit ->
  M3v_sim.Time.t

val run : ?pool:M3v_par.Par.Pool.t -> ?rounds:int -> unit -> result
val print : result -> unit
