(** Monotonic wall clock (CLOCK_MONOTONIC, nanoseconds).

    The one sanctioned source of wall time for measurements (perfbench
    uses it): immune to clock steps, so elapsed times are nonnegative by
    construction.  Values are nanoseconds since an unspecified epoch —
    only differences mean anything.

    Wall-clock readings must never enter simulated state or experiment
    output: they vary run to run and would break the byte-identity
    contracts. *)

type ns = int64

val now_ns : unit -> ns
(** Current monotonic reading, in nanoseconds. *)

val elapsed_ns : since:ns -> ns
(** Nanoseconds elapsed since an earlier {!now_ns} reading. *)

val elapsed_s : since:ns -> float
(** Seconds elapsed since an earlier {!now_ns} reading. *)

val ns_to_s : ns -> float
(** Convert a nanosecond delta to seconds. *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] runs [f] and returns its result with elapsed seconds. *)
