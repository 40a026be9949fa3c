(** Critical-path analysis of causal flows.

    {!analyze} reconstructs every message's end-to-end latency from the
    flow points recorded by the DTU/NoC/mux tracepoints and splits it
    into the paper's segments: sender command (MMIO issue + credit
    stalls), NoC transit, mux scheduling delay, activity-switch cost,
    receive-buffer wait, then — for request/reply pairs — server
    processing and the whole reply leg.  Segment boundaries are clamped
    monotone, so each flow's segments sum {e exactly} (in simulated ps)
    to its end-to-end latency.

    {!folded} additionally renders the sink's spans as folded stacks
    ("frame;frame weight" lines, weight = simulated self-time in ps) for
    flamegraph tools. *)

type flow_prof = {
  fp_id : int;  (** message uid, unique within its task *)
  fp_e2e : int;  (** end-to-end latency, ps *)
  fp_segments : (string * int) list;
      (** ordered (segment, ps); sums exactly to [fp_e2e] *)
}

type report = {
  rpcs : flow_prof list;
      (** request/reply pairs, in task order and by request uid within a
          task (see {!Trace.parts}) *)
  oneways : flow_prof list;
      (** complete flows with no reply, in the same order *)
  incomplete : int;  (** flows issued but never fetched *)
}

(** Segment names, in order, as they appear in [fp_segments]. *)
val rpc_segments : string list

val oneway_segments : string list

val analyze : Trace.sink -> report

(** Mean simulated ps per segment over all complete flows (RPC and
    one-way pooled), in {!rpc_segments} order; segments no flow carries
    are omitted.  This is the input to the load harness' bottleneck
    attribution. *)
val segment_means : report -> (string * float) list

(** Per-segment p50/p99/mean/share tables for RPC and one-way flows. *)
val print : Format.formatter -> report -> unit

(** Folded-stack (flamegraph collapsed) export of all Complete spans,
    nested per task, tile and activity and grouped per tile and activity,
    weighted by simulated self-time ps. *)
val folded : Trace.sink -> Buffer.t
