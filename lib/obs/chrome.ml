(* Chrome trace-event JSON (the "trace event format" consumed by
   chrome://tracing and Perfetto).  Timestamps are microseconds; we emit
   fractional microseconds from picosecond simulated time.  Tiles map to
   pids and activities to tids so the viewer groups tracks per tile;
   events without a tile/activity go to a dedicated "global" pid/tid so
   they can never collide with real tile 0 / activity 0.

   Each task of the sink (see [Trace.parts]) that recorded events is a
   block with pids and flow ids of its own, since every task simulates a
   system of its own from time 0 with message uids from 0: block [b]
   maps tile [t] to pid [b * stride + t] (stride: one more than the
   highest tile), its unattributed events to the global pid plus [b],
   and its flow ids past the highest of the blocks before it.  A sink
   with one such task keeps plain tile pids and flow ids. *)

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

type layout = {
  blocks : int; (* tasks that recorded events *)
  stride : int; (* tile pids per block *)
  global_base : int; (* the global pid of block 0 *)
  id_base : int array; (* by block: what its flow ids are shifted by *)
}

(* The parts of the tasks with events, each with its block, and the
   blocks' layout.  Events other than flow points carry id -1, which moves
   no maximum. *)
let layout sink =
  let parts = List.filter (fun (_, evs) -> evs <> []) (Trace.parts sink) in
  let tasks = List.sort_uniq Int.compare (List.map fst parts) in
  let block task = Option.get (List.find_index (( = ) task) tasks) in
  let parts = List.map (fun (task, evs) -> (block task, evs)) parts in
  let blocks = List.length tasks in
  let max_id = Array.make blocks (-1) and max_tile = ref 0 in
  List.iter
    (fun (b, evs) ->
      List.iter
        (fun (ev : Trace.event) ->
          max_tile := max !max_tile ev.ev_tile;
          max_id.(b) <- max max_id.(b) ev.ev_id)
        evs)
    parts;
  let stride = !max_tile + 1 in
  let id_base = Array.make blocks 0 in
  for b = 1 to blocks - 1 do
    id_base.(b) <- id_base.(b - 1) + max_id.(b - 1) + 1
  done;
  ( parts,
    { blocks; stride; global_base = max global_pid (blocks * stride); id_base }
  )

let pid_of l block (ev : Trace.event) =
  if ev.ev_tile < 0 then l.global_base + block
  else (block * l.stride) + ev.ev_tile

let tid_of ev = if ev.Trace.ev_act < 0 then global_tid else ev.Trace.ev_act

let add_event b l block (ev : Trace.event) =
  let id = l.id_base.(block) + ev.ev_id in
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
      Buffer.add_string b (Printf.sprintf ",\"id\":%d" id)
  | Trace.Flow_end ->
      (* "bp":"e" binds the arrow to the enclosing slice at this point's
         timestamp rather than the next slice, which is what we want for a
         fetch that terminates the flow. *)
      Buffer.add_string b (Printf.sprintf ",\"id\":%d,\"bp\":\"e\"" id));
  Buffer.add_string b (Printf.sprintf ",\"pid\":%d" (pid_of l block ev));
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

let pid_label l pid =
  let label, block =
    if pid >= l.global_base then ("global", pid - l.global_base)
    else (Printf.sprintf "tile %d" (pid mod l.stride), pid / l.stride)
  in
  if l.blocks = 1 then label else Printf.sprintf "%s (task %d)" label block

let add_metadata b l parts =
  let module IS = Set.Make (Int) in
  let module IPS = Set.Make (struct
    type t = int * int

    let compare = Stdlib.compare
  end) in
  let pids, tids =
    List.fold_left
      (fun acc (block, evs) ->
        List.fold_left
          (fun (pids, tids) ev ->
            let pid = pid_of l block ev and tid = tid_of ev in
            (IS.add pid pids, IPS.add (pid, tid) tids))
          acc evs)
      (IS.empty, IPS.empty) parts
  in
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string b ",\n"
  in
  IS.iter
    (fun pid ->
      sep ();
      add_meta b ~ph_name:"process_name" ~pid ~label:(pid_label l pid) ())
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
  let parts, l = layout sink in
  let first = ref (not (add_metadata b l parts)) in
  List.iter
    (fun (block, evs) ->
      List.iter
        (fun ev ->
          if !first then first := false else Buffer.add_string b ",\n";
          add_event b l block ev)
        evs)
    parts;
  Buffer.add_string b "]}\n";
  b

let write oc sink = Buffer.output_buffer oc (to_buffer sink)

let write_file path sink =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc sink)
