(** Human-readable trace summaries: latency percentiles (p50/p90/p99) per
    histogram and a per-tile/per-category event table. *)

val print : Format.formatter -> Trace.sink -> unit
