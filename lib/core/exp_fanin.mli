(** Fan-in ablation: N senders -> 1 server throughput, shared MPMC receive
    endpoint vs the classic per-sender layout.

    Per-sender endpoints cost the server a private endpoint slot per
    client and a full ack command (plus one credit packet) per message.
    The MPMC gate multiplexes every sender through one capability and one
    receive ring: doorbells coalesce while the queue is backed up, acks
    are a single MMIO tail bump, and credit refunds travel batched — one
    packet per sender per [ack_batch] acks.  At high fan-in the MPMC side
    is expected to sustain several times the per-sender throughput. *)

type mode = Per_sender | Mpmc

type point = {
  senders : int;
  msgs_per_s : (mode * float) list;
      (** aggregate msgs/s of each mode: through private receive gates
          ([Per_sender]) and through the shared MPMC gate ([Mpmc]) *)
}

type result = { msgs_per_sender : int; points : point list }

val run :
  ?pool:M3v_par.Par.Pool.t ->
  ?msgs:int ->
  ?sender_counts:int list ->
  unit ->
  result

val print : result -> unit

(** Throughput of one configuration (exposed for tests/calibration). *)
val throughput : mode:mode -> senders:int -> msgs:int -> unit -> float
