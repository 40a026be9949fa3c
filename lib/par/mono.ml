(* Monotonic wall clock for perfbench's host-cost measurements.

   CLOCK_MONOTONIC via bechamel's noalloc C stub: immune to NTP steps
   and settimeofday, so elapsed times can't go negative and speedups
   can't silently invert.

   Readings are int64 nanoseconds from an unspecified epoch: only
   differences are meaningful.  Nothing here ever touches simulated
   time; wall-clock values live strictly outside simulator state so
   they can never leak into experiment output. *)

type ns = int64

let now_ns () : ns = Monotonic_clock.now ()

let elapsed_ns ~since:(t0 : ns) : ns = Int64.sub (now_ns ()) t0
let ns_to_s (d : ns) = Int64.to_float d /. 1e9

let elapsed_s ~since = ns_to_s (elapsed_ns ~since)

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, elapsed_s ~since:t0)
