(** Small statistics helpers for benchmark results. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

(** Summarize a sample.  Raises [Invalid_argument] on an empty list. *)
val summarize : float list -> summary

val mean : float list -> float
val stddev : float list -> float

(** [percentile p xs] with [p] in [0, 100], linear interpolation. *)
val percentile : float -> float list -> float

(** A constant-memory log-linear histogram (HDR style) for latency
    distributions.  Values are bucketed by power of two with 64 linear
    sub-buckets, so quantiles carry a bounded relative error (< ~1.6%)
    while [add] stays O(1) — cheap enough for per-event recording in the
    tracing layer.  Negative values are clamped to zero. *)
module Histogram : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val total : t -> float
  val mean : t -> float
  val max_value : t -> float

  (** [percentile t p] with [p] in [0, 100]. *)
  val percentile : t -> float -> float

  val merge : into:t -> t -> unit
  val reset : t -> unit
  val pp : Format.formatter -> t -> unit
end

(** An accumulating counter keyed by string, used for runtime accounting
    (user/system time, per-component cycles, event counts). *)
module Counter : sig
  type t

  (** One key's accumulator.  A caller that bumps a key on every event
      resolves its cell once with {!cell} and bumps it with {!bump}, which
      neither hashes nor allocates. *)
  type cell

  val create : unit -> t

  (** [cell t key] is [key]'s cell, created at 0 if [key] has none.  A
      cell at 0 reads through {!get} the same as a missing key. *)
  val cell : t -> string -> cell

  (** [bump c n] adds [n] to [c]'s value.  It takes an int (picoseconds,
      or 1 for a count) so that no float is boxed to pass it. *)
  val bump : cell -> int -> unit

  val add : t -> string -> float -> unit
  val incr : t -> string -> unit
  val get : t -> string -> float
  val to_list : t -> (string * float) list
end
