(* Tests of the observability stack: Chrome-trace and metrics JSON
   well-formedness (property-tested against the bench_io parser, control
   characters included), flow conservation and critical-path segment
   exactness on a traced RPC run, distinct flow ids across a nested
   sink, per-task span nesting in the folded stacks, parallel-metrics
   determinism, the global-pid clamping fix, and the trace report's drop
   warning. *)

open M3v_sim
open M3v_sim.Proc.Syntax
module A = M3v_mux.Act_api
module Msg = M3v_dtu.Msg
module System = M3v.System
module Trace = M3v_obs.Trace
module Chrome = M3v_obs.Chrome
module Metrics = M3v_obs.Metrics
module Profile = M3v_obs.Profile
module Report = M3v_obs.Report
module Par = M3v_par.Par
module J = M3v_bench_io.Bench_io

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let check_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S not found in output" what needle

(* --- JSON well-formedness, arbitrary (control-char) names --- *)

(* QCheck.string draws chars from the full byte range, so quotes,
   backslashes and control characters are all exercised. *)
let prop_chrome_json_parses =
  QCheck.Test.make ~count:100 ~name:"chrome json parses, names roundtrip"
    QCheck.(triple string string small_int)
    (fun (name, cat, id) ->
      let sink = Trace.make () in
      Trace.with_sink sink (fun () ->
          Trace.complete ~cat ~name ~tile:0 ~act:1 ~ts:10 ~dur:5
            ~args:[ ("s", Trace.S name); ("i", Trace.I 3) ]
            ();
          Trace.instant ~cat ~name ~ts:20 ();
          Trace.counter ~cat ~name ~tile:2 ~act:1 ~ts:30 ~value:1.5 ();
          Trace.flow_start ~cat ~name ~id ~tile:0 ~ts:40 ();
          Trace.flow_step ~cat ~name ~id ~tile:1 ~ts:50 ();
          Trace.flow_end ~cat ~name ~id ~tile:1 ~ts:60 ());
      let txt = Buffer.contents (Chrome.to_buffer sink) in
      match J.parse_json txt with
      | J.J_obj fields -> (
          match List.assoc_opt "traceEvents" fields with
          | Some (J.J_arr evs) ->
              (* six real events, plus process/thread metadata *)
              List.length evs >= 6
              && List.exists
                   (function
                     | J.J_obj f -> List.assoc_opt "name" f = Some (J.J_str name)
                     | _ -> false)
                   evs
          | _ -> false)
      | _ -> false)

let prop_metrics_json_parses =
  QCheck.Test.make ~count:100 ~name:"metrics json parses"
    QCheck.(pair string string)
    (fun (name, cat) ->
      let reg = Metrics.create () in
      Metrics.with_registry reg (fun () ->
          Metrics.counter_incr ~name ~tile:0 ~cat ();
          Metrics.gauge_set ~name:(name ^ ".g") ~cat ~ts:5 1.25;
          Metrics.observe ~name:(name ^ ".h") ~cat 3.0;
          Metrics.sample_ambient ~ts:10);
      match J.json_of_string (Metrics.to_json reg) with
      | Ok (J.J_obj fields) ->
          List.mem_assoc "counters" fields
          && List.mem_assoc "gauges" fields
          && List.mem_assoc "histograms" fields
          && List.mem_assoc "series" fields
      | _ -> false)

(* --- Chrome pid clamping fix + flow phases --- *)

let test_chrome_global_pid_and_flows () =
  let sink = Trace.make () in
  Trace.with_sink sink (fun () ->
      (* unattributed (tile = -1) and tile-0 events must not collide *)
      Trace.instant ~cat:"c" ~name:"unattributed" ~ts:0 ();
      Trace.instant ~cat:"c" ~name:"tile0" ~tile:0 ~act:0 ~ts:1 ();
      Trace.flow_start ~cat:"flow" ~name:"msg" ~id:7 ~tile:0 ~act:2 ~ts:10 ();
      Trace.flow_step ~cat:"flow" ~name:"msg" ~id:7 ~tile:1 ~act:0xFFFE ~ts:20 ();
      Trace.flow_end ~cat:"flow" ~name:"msg" ~id:7 ~tile:1 ~act:3 ~ts:30 ());
  let txt = Buffer.contents (Chrome.to_buffer sink) in
  (* still valid JSON *)
  (match J.json_of_string txt with
  | Ok (J.J_obj _) -> ()
  | Ok _ -> Alcotest.fail "trace is not a JSON object"
  | Error e -> Alcotest.failf "trace does not parse: %s" e);
  check_contains "dedicated global pid" txt
    (Printf.sprintf "\"pid\":%d" Chrome.global_pid);
  check_contains "tile 0 keeps pid 0" txt "\"pid\":0";
  check_contains "process metadata" txt "\"process_name\"";
  check_contains "global process label" txt "\"global\"";
  check_contains "tilemux thread label" txt "\"tilemux\"";
  check_contains "flow start" txt "\"ph\":\"s\"";
  check_contains "flow step" txt "\"ph\":\"t\"";
  check_contains "flow end" txt "\"ph\":\"f\"";
  check_contains "flow end binds enclosing" txt "\"bp\":\"e\"";
  check_contains "flow id" txt "\"id\":7"

let test_counter_act_attribution () =
  let sink = Trace.make () in
  Trace.with_sink sink (fun () ->
      Trace.counter ~cat:"c" ~name:"n" ~tile:1 ~act:3 ~ts:0 ~value:2.0 ());
  match Trace.events sink with
  | [ ev ] ->
      check_int "counter carries tile" 1 ev.Trace.ev_tile;
      check_int "counter carries act" 3 ev.Trace.ev_act
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

(* --- report drop warning --- *)

let test_report_dropped_warning () =
  let sink = Trace.make ~max_events:4 () in
  Trace.with_sink sink (fun () ->
      for i = 0 to 9 do
        Trace.instant ~cat:"c" ~name:"n" ~ts:i ()
      done);
  check_int "events kept" 4 (Trace.event_count sink);
  check_int "events dropped" 6 (Trace.dropped sink);
  let b = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer b in
  Report.print fmt sink;
  Format.pp_print_flush fmt ();
  check_contains "drop warning" (Buffer.contents b)
    "6 events dropped (cap 4)"

(* --- flow conservation + segment exactness on a real RPC run --- *)

type Msg.data += Ping of int | Pong of int

let run_rpc ~rounds =
  let sys = System.create ~variant:System.M3v () in
  let rgate = ref (-1) in
  let chan = ref (-1, -1) in
  let server, _ =
    System.spawn sys ~tile:1 ~name:"server" (fun _ ->
        Proc.repeat rounds (fun _ ->
            let* _ep, msg = A.recv ~eps:[ !rgate ] in
            let* () = A.compute 500 in
            A.reply ~recv_ep:!rgate ~msg ~size:8 (Pong 0)))
  in
  let client, _ =
    System.spawn sys ~tile:2 ~name:"client" (fun _ ->
        Proc.repeat rounds (fun i ->
            let* _reply =
              A.call ~sgate:(fst !chan) ~reply_ep:(snd !chan) ~size:8
                (Ping i)
            in
            Proc.return ()))
  in
  let ch = System.channel sys ~src:client ~dst:server () in
  rgate := ch.System.rgate;
  chan := (ch.System.sgate, ch.System.reply_ep);
  System.boot sys;
  ignore (System.run sys)

let run_rpc_traced ~rounds =
  let sink = Trace.make () in
  Trace.with_sink sink (fun () -> run_rpc ~rounds);
  sink

let flow_points sink =
  List.filter_map
    (fun ev ->
      match ev.Trace.ev_ph with
      | Trace.Flow_start -> Some (`S, ev.Trace.ev_id)
      | Trace.Flow_end -> Some (`F, ev.Trace.ev_id)
      | _ -> None)
    (Trace.events sink)

let test_flow_conservation () =
  let rounds = 6 in
  let sink = run_rpc_traced ~rounds in
  let points = flow_points sink in
  let starts = List.filter (fun (k, _) -> k = `S) points in
  let ends = List.filter (fun (k, _) -> k = `F) points in
  let ids l = List.sort_uniq compare (List.map snd l) in
  (* message uids are unique: no id starts or finishes twice *)
  check_int "unique flow starts" (List.length starts)
    (List.length (ids starts));
  check_int "unique flow ends" (List.length ends) (List.length (ids ends));
  (* every finished flow was started *)
  List.iter
    (fun (_, id) ->
      check_bool
        (Printf.sprintf "flow %d end has a start" id)
        true
        (List.mem id (List.map snd starts)))
    ends;
  (* conservation: starts = ends + issued-but-never-fetched, and the
     application's 2*rounds messages (requests + replies) all complete *)
  let rep = Profile.analyze sink in
  check_int "starts - ends = incomplete"
    (List.length starts - List.length ends)
    rep.Profile.incomplete;
  check_bool "app flows all complete" true (List.length ends >= 2 * rounds)

(* A sink installed inside another keeps the message-uid count going,
   so the outer trace never holds one flow id twice. *)
let test_nested_sink_keeps_flow_ids () =
  let outer = Trace.make () in
  Trace.with_sink outer (fun () ->
      run_rpc ~rounds:3;
      ignore (run_rpc_traced ~rounds:1);
      run_rpc ~rounds:3);
  let starts =
    List.filter_map
      (fun (k, id) -> if k = `S then Some id else None)
      (flow_points outer)
  in
  check_bool "outer trace has flows" true (List.length starts >= 12);
  check_int "outer flow ids are distinct" (List.length starts)
    (List.length (List.sort_uniq compare starts))

let test_segments_sum_exact () =
  let sink = run_rpc_traced ~rounds:6 in
  let rep = Profile.analyze sink in
  check_bool "found rpc flows" true (List.length rep.Profile.rpcs >= 6);
  let check_flow segs fp =
    check_string
      (Printf.sprintf "flow %d segment order" fp.Profile.fp_id)
      (String.concat "," segs)
      (String.concat "," (List.map fst fp.Profile.fp_segments));
    List.iter
      (fun (s, v) ->
        check_bool
          (Printf.sprintf "flow %d segment %s >= 0" fp.Profile.fp_id s)
          true (v >= 0))
      fp.Profile.fp_segments;
    let sum = List.fold_left (fun a (_, v) -> a + v) 0 fp.Profile.fp_segments in
    check_int
      (Printf.sprintf "flow %d segments sum exactly to e2e" fp.Profile.fp_id)
      fp.Profile.fp_e2e sum
  in
  List.iter (check_flow Profile.rpc_segments) rep.Profile.rpcs;
  List.iter (check_flow Profile.oneway_segments) rep.Profile.oneways;
  (* the folded-stack export is non-trivial and well-formed *)
  let folded = Buffer.contents (Profile.folded sink) in
  check_bool "folded stacks non-empty" true (String.length folded > 0);
  String.split_on_char '\n' folded
  |> List.iter (fun line ->
         if line <> "" then
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "folded line has no weight: %S" line
           | Some i ->
               let w = String.sub line (i + 1) (String.length line - i - 1) in
               check_bool
                 (Printf.sprintf "folded weight positive: %S" line)
                 true
                 (match int_of_string_opt w with
                 | Some n -> n > 0
                 | None -> false))

(* Two tasks simulate two systems on the same tiles from time 0.  Their
   spans nest per task, so no TileMux run span of one system lands inside
   a run span of the other, and the trace is the same at every width. *)
let test_folded_stacks_per_task () =
  let traced pool =
    let sink = Trace.make () in
    Trace.with_sink sink (fun () ->
        ignore (Par.map pool (fun rounds -> run_rpc ~rounds) [ 3; 4 ]));
    sink
  in
  let seq = traced Par.Pool.sequential in
  let folded = Buffer.contents (Profile.folded seq) in
  check_bool "folded stacks non-empty" true (String.length folded > 0);
  check_bool "no mux/run frame under another" false
    (contains folded "mux/run;mux/run");
  check_int "one part per task" 2 (List.length (Trace.parts seq));
  let par = Par.Pool.with_pool ~jobs:2 traced in
  check_string "same trace on a 2-wide pool"
    (Buffer.contents (Chrome.to_buffer seq))
    (Buffer.contents (Chrome.to_buffer par))

(* --- metrics: typed registry + parallel determinism --- *)

let test_metrics_type_mismatch () =
  let reg = Metrics.create () in
  Metrics.with_registry reg (fun () ->
      Metrics.counter_incr ~name:"x" ~tile:1 ();
      match Metrics.observe ~name:"x" ~tile:1 2.0 with
      | () -> Alcotest.fail "type mismatch not rejected"
      | exception Invalid_argument _ -> ())

let run_fig6_metrics ~jobs =
  let reg = Metrics.create () in
  Par.Pool.with_pool ~jobs (fun pool ->
      Metrics.with_registry reg (fun () ->
          ignore (M3v.Exp_fig6.run ~pool ~rounds:40 ())));
  Metrics.to_json reg

let test_metrics_jobs_identity () =
  let seq = run_fig6_metrics ~jobs:1 in
  let par = run_fig6_metrics ~jobs:4 in
  check_bool "metrics registry non-trivial" true (String.length seq > 500);
  check_string "jobs=4 metrics byte-identical to jobs=1" seq par

let suite =
  [
    ("chrome global pid + flow phases", `Quick, test_chrome_global_pid_and_flows);
    ("counter act attribution", `Quick, test_counter_act_attribution);
    ("report prints drop warning", `Quick, test_report_dropped_warning);
    ("flow conservation (rpc run)", `Quick, test_flow_conservation);
    ("nested sink keeps flow ids", `Quick, test_nested_sink_keeps_flow_ids);
    ("profile segments sum exactly", `Quick, test_segments_sum_exact);
    ("folded stacks nest per task", `Quick, test_folded_stacks_per_task);
    ("metrics type mismatch rejected", `Quick, test_metrics_type_mismatch);
    ("metrics identical across jobs", `Slow, test_metrics_jobs_identity);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_chrome_json_parses; prop_metrics_json_parses ]
