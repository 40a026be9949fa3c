(* Chrome trace-event JSON (the "trace event format" consumed by
   chrome://tracing and Perfetto).  Timestamps are microseconds; we emit
   fractional microseconds from picosecond simulated time.  Tiles map to
   pids and activities to tids so the viewer groups tracks per tile;
   events without a tile/activity go to a dedicated "global" pid/tid so
   they can never collide with real tile 0 / activity 0. *)

let global_pid = 1_000_000
let global_tid = 1_000_000

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_value b = function
  | Trace.I i -> Buffer.add_string b (string_of_int i)
  | Trace.F f -> Buffer.add_string b (Printf.sprintf "%g" f)
  | Trace.S s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'

let us_of_ps ps = float_of_int ps /. 1e6

let pid_of ev = if ev.Trace.ev_tile < 0 then global_pid else ev.Trace.ev_tile
let tid_of ev = if ev.Trace.ev_act < 0 then global_tid else ev.Trace.ev_act

let add_event b (ev : Trace.event) =
  Buffer.add_string b "{\"name\":\"";
  escape b ev.Trace.ev_name;
  Buffer.add_string b "\",\"cat\":\"";
  escape b ev.Trace.ev_cat;
  Buffer.add_string b "\",\"ph\":\"";
  Buffer.add_string b
    (match ev.Trace.ev_ph with
    | Trace.Complete -> "X"
    | Trace.Instant -> "i"
    | Trace.Counter -> "C"
    | Trace.Flow_start -> "s"
    | Trace.Flow_step -> "t"
    | Trace.Flow_end -> "f");
  Buffer.add_string b "\",\"ts\":";
  Buffer.add_string b (Printf.sprintf "%.6f" (us_of_ps ev.Trace.ev_ts));
  (match ev.Trace.ev_ph with
  | Trace.Complete ->
      Buffer.add_string b
        (Printf.sprintf ",\"dur\":%.6f" (us_of_ps ev.Trace.ev_dur))
  | Trace.Instant -> Buffer.add_string b ",\"s\":\"t\""
  | Trace.Counter -> ()
  | Trace.Flow_start | Trace.Flow_step ->
      Buffer.add_string b (Printf.sprintf ",\"id\":%d" ev.Trace.ev_id)
  | Trace.Flow_end ->
      (* "bp":"e" binds the arrow to the enclosing slice at this point's
         timestamp rather than the next slice, which is what we want for a
         fetch that terminates the flow. *)
      Buffer.add_string b
        (Printf.sprintf ",\"id\":%d,\"bp\":\"e\"" ev.Trace.ev_id));
  Buffer.add_string b (Printf.sprintf ",\"pid\":%d" (pid_of ev));
  Buffer.add_string b (Printf.sprintf ",\"tid\":%d" (tid_of ev));
  (match ev.Trace.ev_args with
  | [] -> ()
  | args ->
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_string b "\":";
          add_value b v)
        args;
      Buffer.add_char b '}');
  Buffer.add_char b '}'

(* Metadata (ph "M") events naming each pid/tid, so Perfetto shows
   "tile 3" / "act 2" instead of bare numbers.  Emitted first, sorted by
   (pid, tid) for deterministic output. *)

let add_meta b ~ph_name ~pid ?tid ~label () =
  Buffer.add_string b "{\"name\":\"";
  Buffer.add_string b ph_name;
  Buffer.add_string b "\",\"ph\":\"M\"";
  Buffer.add_string b (Printf.sprintf ",\"pid\":%d" pid);
  (match tid with
  | Some t -> Buffer.add_string b (Printf.sprintf ",\"tid\":%d" t)
  | None -> ());
  Buffer.add_string b ",\"args\":{\"name\":\"";
  escape b label;
  Buffer.add_string b "\"}}"

let act_label act =
  if act = global_tid then "(unattributed)"
  else
    match Trace.reserved_act act with
    | Some label -> label
    | None -> Printf.sprintf "act %d" act

let add_metadata b sink =
  let module IS = Set.Make (Int) in
  let module IPS = Set.Make (struct
    type t = int * int

    let compare = Stdlib.compare
  end) in
  let pids, tids =
    List.fold_left
      (fun (pids, tids) ev ->
        let pid = pid_of ev and tid = tid_of ev in
        (IS.add pid pids, IPS.add (pid, tid) tids))
      (IS.empty, IPS.empty) (Trace.events sink)
  in
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",\n"
  in
  IS.iter
    (fun pid ->
      sep ();
      let label =
        if pid = global_pid then "global" else Printf.sprintf "tile %d" pid
      in
      add_meta b ~ph_name:"process_name" ~pid ~label ())
    pids;
  IPS.iter
    (fun (pid, tid) ->
      sep ();
      add_meta b ~ph_name:"thread_name" ~pid ~tid ~label:(act_label tid) ())
    tids;
  not !first

let to_buffer sink =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let has_meta = add_metadata b sink in
  List.iteri
    (fun i ev ->
      if i > 0 || has_meta then Buffer.add_string b ",\n";
      add_event b ev)
    (Trace.events sink);
  Buffer.add_string b "]}\n";
  b

let write oc sink = Buffer.output_buffer oc (to_buffer sink)

let write_file path sink =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc sink)
