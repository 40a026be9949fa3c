(** DTU endpoints.

    Each endpoint is either invalid or configured as a send, receive, or
    memory endpoint.  Only the controller (via the DTU's external interface)
    may change endpoint configurations; the vDTU additionally tags every
    endpoint with the owning activity (paper, sections 2.1 and 3.5). *)

type send = {
  dst_tile : int;
  dst_ep : int;
  label : int;  (** copied into every message sent through this endpoint *)
  max_msg_size : int;
  max_credits : int;
  mutable credits : int;
}

type recv = {
  slots : int;  (** receive-buffer capacity in messages *)
  slot_size : int;  (** maximum message size (incl. header) per slot *)
  mutable occupied : int;  (** slots holding fetched-but-unacked or unread messages *)
  pending : Msg.t Queue.t;  (** delivered, not yet fetched *)
  seen : (int, unit) Hashtbl.t;
      (** uids of recently delivered messages (dedup under fault injection) *)
  seen_fifo : int Queue.t;  (** eviction order for [seen], bounded *)
}

(** Record [uid] as delivered on [r] (bounded: oldest entries are evicted). *)
val note_seen : recv -> int -> unit

(** Whether [uid] was already delivered to [r] (a retransmitted or
    NoC-duplicated copy). *)
val seen_before : recv -> int -> bool

type mpmc = {
  mp_slots : int;  (** shared ring capacity in messages *)
  mp_slot_size : int;  (** maximum message size (incl. header) per slot *)
  mp_ack_batch : int;  (** flush threshold for batched credit refunds *)
  mutable mp_head : int;  (** monotonic reservation counter (bumped at delivery) *)
  mutable mp_tail : int;  (** monotonic release counter (bumped at ack) *)
  mp_pending : Msg.t Queue.t;  (** delivered, not yet fetched *)
  mp_seen : (int, unit) Hashtbl.t;
  mp_seen_fifo : int Queue.t;
  mp_refunds : (int * int, int) Hashtbl.t;
      (** (src_tile, src_send_ep) -> credits owed, flushed in batches *)
  mutable mp_refund_total : int;
}

(** Occupancy of the shared ring: [mp_head - mp_tail]. *)
val mp_occupied : mpmc -> int

val mp_note_seen : mpmc -> int -> unit
val mp_seen_before : mpmc -> int -> bool

type mem = {
  mem_tile : int;
  base : int;  (** offset within the memory tile *)
  mem_size : int;
  perm : Dtu_types.perm;
}

type config =
  | Invalid
  | Send of send
  | Recv of recv
  | Mpmc_recv of mpmc
  | Mem of mem

(** One endpoint register.  Saving and restoring move the record itself
    out of and back into the register file ({!Dtu.ext_take},
    {!Dtu.ext_put}): nothing copies it, and a taken record stays the
    holder's until it is put back. *)
type t = { mutable cfg : config; mutable owner : Dtu_types.act_id }

(** A fresh Invalid record, owned by no activity. *)
val make_invalid : unit -> t

(** Fresh send configuration with full credits. *)
val send_config :
  dst_tile:int -> dst_ep:int -> ?label:int -> max_msg_size:int -> credits:int -> unit -> config

val recv_config : slots:int -> slot_size:int -> unit -> config

(** Shared multi-producer receive queue; [ack_batch] (default 16) bounds how
    many acks may accumulate before a batched credit refund is flushed. *)
val mpmc_config : slots:int -> slot_size:int -> ?ack_batch:int -> unit -> config

val mem_config : mem_tile:int -> base:int -> size:int -> perm:Dtu_types.perm -> config

(** Raise [Invalid_argument] unless [0 <= credits <= max_credits]; [ctx] names
    the mutation site for the error message. *)
val check_credits : ctx:string -> send -> unit

(** Structural sanity for configs arriving over the external interface
    ([ext_config] / [ext_put]): credit and occupancy bounds. *)
val validate_config : ctx:string -> config -> unit

val pp : Format.formatter -> t -> unit
