(** Simulated time.

    Time is an integer count of picoseconds since simulation start.  One
    picosecond of resolution lets the simulator mix clock domains precisely:
    a 3 GHz core cycle is 333 ps, an 80 MHz BOOM cycle is 12500 ps, and the
    63-bit range still covers more than a simulated month. *)

type t = int

val zero : t
val ps : int -> t
val ns : int -> t
val us : int -> t
val ms : int -> t
val s : int -> t

val add : t -> t -> t
val sub : t -> t -> t
val compare : t -> t -> int
val min : t -> t -> t
val max : t -> t -> t

val to_us : t -> float
val to_ms : t -> float
val to_s : t -> float

(** [ps_per_cycle_of_hz hz] is the (rounded) duration of one cycle of a
    [hz]-Hertz clock, in picoseconds. *)
val ps_per_cycle_of_hz : int -> int

(** [of_cycles ~ps_per_cycle n] is the duration of [n] cycles. *)
val of_cycles : ps_per_cycle:int -> int -> t

(** [to_cycles ~ps_per_cycle t] is the number of whole cycles of the given
    clock that fit in [t]. *)
val to_cycles : ps_per_cycle:int -> t -> int

val pp : Format.formatter -> t -> unit
