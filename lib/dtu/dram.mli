(** A memory tile's DRAM: byte-accurate contents plus a bandwidth/latency
    model.

    The store is shared-nothing between tiles; every access arrives as a DTU
    transfer over the NoC.  A busy-until horizon serializes accesses so that
    concurrent DMA streams contend for DRAM bandwidth.

    The contents live in {!Dtu_types.page_size} pages (4 KiB, also the m3fs
    block size).  A page gets host memory only when {!back} covers it or a
    {!write} or {!fill} first touches it; until then it reads as zeros.  The
    DTU backs the window of every memory endpoint when the endpoint is
    configured, so DMA through an endpoint finds its pages backed and a
    run does not allocate them mid-flight, while memory no endpoint ever
    opens costs no host memory and no checkpoint bytes. *)

type t

(** [create ~size ()] is a store of [size] bytes, all zero and none backed.
    [access_latency_ps] (default 90,000) must not be negative and
    [bytes_per_ns] (default 1) must be in [1, 1000]; otherwise, as for a
    [size] that is not positive, [Invalid_argument] is raised. *)
val create :
  size:int ->
  ?access_latency_ps:int ->
  ?bytes_per_ns:int ->
  unit ->
  t

val size : t -> int

(** [back t ~off ~len] gives host memory to every page that the part of
    [\[off, off + len)] inside the store overlaps.  Contents do not change. *)
val back : t -> off:int -> len:int -> unit

(** Raw access to the contents, bounds-checked: an access outside the
    store, or a caller buffer range outside its buffer, raises
    [Invalid_argument] before any byte moves or any counter changes.  Used
    by the DTU transfer engine; callers go through memory endpoints. *)
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
