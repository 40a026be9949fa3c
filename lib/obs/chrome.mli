(** Chrome trace-event JSON export ([chrome://tracing] / Perfetto).

    Spans become ["ph":"X"] complete events, instants ["ph":"i"], counters
    ["ph":"C"], and causal flows ["ph":"s"/"t"/"f"] (Perfetto draws arrows
    between the points of one flow id); tiles map to pids and activities
    to tids; timestamps are emitted in (fractional) microseconds.

    Events without a tile or activity ([ev_tile]/[ev_act] = -1) are
    assigned the dedicated {!global_pid} (and tid) instead of being
    clamped onto tile 0, and ["process_name"]/["thread_name"] metadata
    events label every track. *)

(** The pid given to events with [ev_tile = -1] (and the tid for
    [ev_act = -1]), labelled "global" via metadata. *)
val global_pid : int

val to_buffer : Trace.sink -> Buffer.t
val write : out_channel -> Trace.sink -> unit
val write_file : string -> Trace.sink -> unit

(** JSON-escape [s] into the buffer (shared with the metrics exporter). *)
val escape : Buffer.t -> string -> unit
