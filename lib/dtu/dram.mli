(** A memory tile's DRAM: real byte backing plus a bandwidth/latency model.

    The store is shared-nothing between tiles; every access arrives as a DTU
    transfer over the NoC.  A busy-until horizon serializes accesses so that
    concurrent DMA streams contend for DRAM bandwidth. *)

type t

val create :
  size:int ->
  ?access_latency_ps:int ->
  ?bytes_per_ns:int ->
  unit ->
  t

val size : t -> int

(** Raw access to the backing, bounds-checked.  Used by the DTU transfer
    engine; callers go through memory endpoints. *)
val read : t -> off:int -> len:int -> bytes

val read_into : t -> off:int -> dst:bytes -> dst_off:int -> len:int -> unit
val write : t -> off:int -> src:bytes -> src_off:int -> len:int -> unit
val fill : t -> off:int -> len:int -> char -> unit

(** [access_time t ~now ~bytes] is the completion time of a [bytes]-byte
    access issued at [now], advancing the contention horizon. *)
val access_time : t -> now:M3v_sim.Time.t -> bytes:int -> M3v_sim.Time.t

(** Access counters.  [stats] returns a snapshot: later accesses do not
    change a value already taken. *)
type stats = private {
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

val stats : t -> stats
