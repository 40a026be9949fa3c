(** A standing key-value RPC service over {!Kvstore}.

    One long-lived activity owns an LSM store and answers [Kv_req]
    messages forever on its receive gate — typically an MPMC gate so many
    load-harness drivers can fan in over a single server-side endpoint
    (the heavy fan-in shape the PR 7 MPMC endpoints exist for).  Replies
    go back through each message's reply capability, so the same server
    serves point-to-point and MPMC clients unchanged. *)

type req = Get of string | Put of string * bytes
type rep = Value of bytes option | Done | Failed of string

type M3v_dtu.Msg.data += Kv_req of req | Kv_rep of rep

(** Wire sizes for the timing model. *)
val req_size : req -> int

val rep_size : rep -> int

(** [program ~vfs ~rgate ()] is the server activity body.  [vfs] and
    [rgate] are boxes filled after spawn, before boot (the standard
    late-binding pattern).  The store lives under [dir] on the given
    filesystem.  The server never returns; a parked [recv] drains with
    the run. *)
val program :
  vfs:M3v_os.Vfs.t option ref ->
  rgate:int ref ->
  ?dir:string ->
  unit ->
  M3v_mux.Act_api.env ->
  unit M3v_sim.Proc.t
