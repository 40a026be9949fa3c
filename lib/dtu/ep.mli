(** DTU endpoints.

    Each endpoint is either invalid or configured as a send, receive, or
    memory endpoint.  A receive endpoint is a classic gate or a shared
    multi-producer ring, told apart by its [batch].  Only the controller
    (via the DTU's external interface) may change endpoint configurations;
    the vDTU additionally tags every endpoint with the owning activity
    (paper, sections 2.1 and 3.5). *)

type send = {
  dst_tile : int;
  dst_ep : int;
  label : int;  (** copied into every message sent through this endpoint *)
  max_msg_size : int;
  max_credits : int;
  mutable credits : int;
}

(** How a shared ring returns credits.  A receive endpoint without one is
    a classic gate: each ack sends the sender its credit in one packet,
    and a reply carries the request's credit back.  A receive endpoint
    with one is a shared multi-producer ring: its acks and replies owe the
    credit to the batch, which sends one packet per sender once
    [refund_total] reaches [ack_batch] or the ring empties, and only the
    empty-to-non-empty transition rings the owner's doorbell. *)
type batch = {
  ack_batch : int;  (** flush threshold *)
  refunds : (int * int, int) Hashtbl.t;
      (** (src_tile, src_send_ep) -> credits owed, not yet sent *)
  mutable refund_total : int;  (** sum of [refunds] *)
}

type recv = {
  slots : int;  (** receive-buffer capacity in messages *)
  slot_size : int;  (** maximum message size (incl. header) per slot *)
  mutable occupied : int;  (** slots holding fetched-but-unacked or unread messages *)
  pending : Msg.t Queue.t;  (** delivered, not yet fetched *)
  seen : (int, unit) Hashtbl.t;
      (** uids of recently delivered messages (dedup under fault injection) *)
  seen_fifo : int Queue.t;  (** eviction order for [seen], bounded *)
  batch : batch option;  (** [Some] on a shared ring, [None] on a classic gate *)
}

(** Record [uid] as delivered on [r] (bounded: oldest entries are evicted). *)
val note_seen : recv -> int -> unit

(** Whether [uid] was already delivered to [r] (a retransmitted or
    NoC-duplicated copy). *)
val seen_before : recv -> int -> bool

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

(** Fresh classic receive gate ([batch = None]). *)
val recv_config : slots:int -> slot_size:int -> unit -> config

(** Fresh shared multi-producer ring: a receive endpoint whose [batch]
    holds [ack_batch] (default 16), the number of owed credits that
    triggers a refund flush. *)
val mpmc_config : slots:int -> slot_size:int -> ?ack_batch:int -> unit -> config

val mem_config : mem_tile:int -> base:int -> size:int -> perm:Dtu_types.perm -> config

(** Raise [Invalid_argument] unless [0 <= credits <= max_credits]; [ctx] names
    the mutation site for the error message. *)
val check_credits : ctx:string -> send -> unit

(** Structural sanity for configs arriving over the external interface
    ([ext_config] / [ext_put]): credit and occupancy bounds. *)
val validate_config : ctx:string -> config -> unit

val pp : Format.formatter -> t -> unit
