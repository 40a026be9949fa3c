(* Tests for the parallel execution layer (lib/par), the SoA event queue
   rewrite, the Engine clock rule, the JSON reader, the experiment
   registry — and the headline determinism contract: experiments produce
   identical results however many domains run them. *)

module Par = M3v_par.Par
module Event_queue = M3v_sim.Event_queue
module Engine = M3v_sim.Engine
module Bench_io = M3v_bench_io.Bench_io
module Exp_runner = M3v.Exp_runner
module Trace = M3v_obs.Trace
module Metrics = M3v_obs.Metrics
module Fault = M3v_fault.Fault

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- Par: futures, ordering, exceptions --- *)

let test_par_results_in_order () =
  Par.Pool.with_pool ~jobs:4 (fun pool ->
      let results = Par.map pool (fun i -> i * i) (List.init 50 Fun.id) in
      Alcotest.(check (list int))
        "squares in submission order"
        (List.init 50 (fun i -> i * i))
        results)

let test_par_sequential_pool_inline () =
  (* The sequential pool runs tasks at submission on the calling domain:
     side effects happen in submission order, before await. *)
  let log = ref [] in
  let fs =
    List.map
      (fun i -> Par.submit Par.Pool.sequential (fun () -> log := i :: !log; i))
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "ran at submission" [ 3; 2; 1 ] !log;
  Alcotest.(check (list int)) "await returns values" [ 1; 2; 3 ]
    (List.map Par.await fs)

exception Boom of int

let test_par_exception_propagates () =
  Par.Pool.with_pool ~jobs:3 (fun pool ->
      let f_ok = Par.submit pool (fun () -> 41) in
      let f_bad = Par.submit pool (fun () -> raise (Boom 7)) in
      check_int "good future unaffected" 41 (Par.await f_ok);
      Alcotest.check_raises "await re-raises" (Boom 7) (fun () ->
          ignore (Par.await f_bad));
      (* A failed future stays failed on every await. *)
      Alcotest.check_raises "await re-raises again" (Boom 7) (fun () ->
          ignore (Par.await f_bad)))

let test_par_nested_fanout () =
  (* A task that itself fans out through the same pool must not deadlock
     (awaiting domains help with queued tasks). *)
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      let outer =
        Par.map pool
          (fun i ->
            List.fold_left ( + ) 0 (Par.map pool (fun j -> (10 * i) + j) [ 1; 2; 3 ]))
          [ 1; 2; 3; 4 ]
      in
      Alcotest.(check (list int))
        "nested sums" [ 36; 66; 96; 126 ] outer)

let test_par_jobs_clamped () =
  check_int "sequential pool is 1 wide" 1 (Par.Pool.jobs Par.Pool.sequential);
  Par.Pool.with_pool ~jobs:0 (fun pool ->
      check_int "jobs <= 1 degenerates to sequential" 1 (Par.Pool.jobs pool));
  Par.Pool.with_pool ~jobs:3 (fun pool ->
      check_int "requested width" 3 (Par.Pool.jobs pool))

(* [Exp_common.grid] submits one task per (x, y) pair, x-major, and hands
   each x its results in y order.  fig9's fault schedule and every
   --metrics merge follow this order. *)
let test_grid_order () =
  let xs = [ 1; 2; 3 ] and ys = [ "a"; "b" ] in
  let expected =
    [ (1, [ "1a"; "1b" ]); (2, [ "2a"; "2b" ]); (3, [ "3a"; "3b" ]) ]
  in
  let check = Alcotest.(check (list (pair int (list string)))) in
  let calls = ref [] in
  let seq =
    M3v.Exp_common.grid Par.Pool.sequential
      (fun x y ->
        calls := (x, y) :: !calls;
        string_of_int x ^ y)
      xs ys
  in
  Alcotest.(check (list (pair int string)))
    "f called x-major"
    [ (1, "a"); (1, "b"); (2, "a"); (2, "b"); (3, "a"); (3, "b") ]
    (List.rev !calls);
  check "each x with its results in y order" expected seq;
  Par.Pool.with_pool ~jobs:3 (fun pool ->
      check "the same on a 3-wide pool" expected
        (M3v.Exp_common.grid pool (fun x y -> string_of_int x ^ y) xs ys))

let test_runner_width () =
  (* Every run setting follows tasks onto any domain, so [Exp_runner.run]
     hands its body the pool [jobs] asks for, with or without a trace
     sink or fault plan. *)
  let width o =
    let w = ref 0 in
    Exp_runner.run o (fun pool -> w := Par.Pool.jobs pool);
    !w
  in
  let o = { Exp_runner.default with jobs = Some 4 } in
  let file = Filename.temp_file "m3v_runner" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      check_int "trace => 4 wide" 4 (width { o with trace = Some file });
      check_int "faults => 4 wide" 4
        (width { o with faults = Some "drop=0.01" });
      check_int "jobs 4 => 4 wide" 4 (width o))

(* --- experiment determinism: parallel == sequential --- *)

(* Plain, and under a fault plan: each task draws from a child plan of
   its own, so a fault run is the same at every width, tallies included. *)
let test_fig9_parallel_equals_sequential () =
  let fig9 pool =
    M3v.Exp_fig9.run ~pool ~runs:1 ~warmup:0 ~tile_counts:[ 1; 2 ] ()
  in
  let seq = fig9 Par.Pool.sequential in
  let par = Par.Pool.with_pool ~jobs:4 fig9 in
  check_bool "fig9 results identical" true (seq = par);
  let faulty pool =
    let plan = Fault.create ~seed:7 { Fault.none with drop = 0.01 } in
    let r = Fault.with_plan plan (fun () -> fig9 pool) in
    (r, Format.asprintf "%a" Fault.pp_stats (Fault.stats plan))
  in
  let seq, seq_tally = faulty Par.Pool.sequential in
  let par, par_tally = Par.Pool.with_pool ~jobs:4 faulty in
  check_bool "fig9 results identical under faults" true (seq = par);
  check_string "fault tallies identical" seq_tally par_tally;
  check_bool "faults were injected" false
    (String.starts_with ~prefix:"0 dropped" seq_tally)

let test_fanin_parallel_equals_sequential () =
  let run pool = M3v.Exp_fanin.run ~pool ~msgs:5 ~sender_counts:[ 2; 4 ] () in
  let seq = run Par.Pool.sequential in
  let par = Par.Pool.with_pool ~jobs:4 run in
  check_bool "fan-in results identical" true (seq = par)

let test_chaos_sweep_parallel_equals_sequential () =
  let sweep pool =
    M3v.Exp_chaos.run_sweep ~pool ~seeds:3 ~fs_rounds:2 ~kv_ops:30 ()
  in
  let seq = sweep Par.Pool.sequential in
  let par = Par.Pool.with_pool ~jobs:3 sweep in
  check_int "three seeds" 3 (List.length seq);
  check_bool "chaos sweep results identical" true (seq = par)

(* --- Event_queue: SoA heap properties --- *)

let drain q =
  let rec loop acc =
    match Event_queue.pop q with
    | None -> List.rev acc
    | Some (t, v) -> loop ((t, v) :: acc)
  in
  loop []

(* Reference model: a stable sort by time of the pushed (time, value)
   list is exactly the FIFO-on-ties heap order. *)
let prop_heap_matches_stable_sort =
  QCheck.Test.make ~name:"heap order = stable sort by time" ~count:200
    QCheck.(list (pair (int_bound 50) small_int))
    (fun entries ->
      let q = Event_queue.create () in
      List.iter (fun (time, v) -> Event_queue.push q ~time v) entries;
      let expected = List.stable_sort (fun (a, _) (b, _) -> compare a b) entries in
      drain q = expected)

(* Interleaved pushes and pops against the same model: a (time, value)
   list in stable time order.  A new entry goes after every entry whose
   time is <= its own, which is the (time, push order) order. *)
let prop_heap_interleaved =
  QCheck.Test.make ~name:"FIFO ties survive interleaved push/pop" ~count:200
    QCheck.(list (pair (option (int_bound 20)) small_int))
    (fun script ->
      let q = Event_queue.create ~capacity:1 () in
      let rec insert ((time, _) as e) = function
        | ((t, _) as x) :: rest when t <= time -> x :: insert e rest
        | later -> e :: later
      in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun (op, v) ->
          match op with
          | Some time ->
              Event_queue.push q ~time v;
              model := insert (time, v) !model
          | None -> (
              match (Event_queue.pop q, !model) with
              | None, [] -> ()
              | Some (t, v'), (mt, mv) :: rest ->
                  if t <> mt || v' <> mv then ok := false;
                  model := rest
              | Some _, [] | None, _ :: _ -> ok := false))
        script;
      !ok && drain q = !model)

let test_queue_clear_reuse () =
  let q = Event_queue.create ~capacity:4 () in
  for i = 1 to 100 do
    Event_queue.push q ~time:i i
  done;
  Event_queue.clear q;
  check_bool "empty after clear" true (Event_queue.is_empty q);
  check_int "length 0" 0 (Event_queue.length q);
  (* Reuse after clear: order and contents still correct, including ties. *)
  Event_queue.push q ~time:5 1;
  Event_queue.push q ~time:3 2;
  Event_queue.push q ~time:5 3;
  Alcotest.(check (list (pair int int)))
    "reused queue drains in order"
    [ (3, 2); (5, 1); (5, 3) ]
    (drain q)

let test_queue_two_payloads () =
  let q = Event_queue.create2 ~capacity:2 () in
  Event_queue.push2 q ~time:20 "b" 2;
  Event_queue.push2 q ~time:10 "a" 1;
  Event_queue.push2 q ~time:20 "c" 3;
  let order = ref [] in
  while not (Event_queue.is_empty q) do
    let t = Event_queue.next_time q in
    let x = Event_queue.top_fst q in
    let y = Event_queue.top_snd q in
    Event_queue.drop_min q;
    order := (t, x, y) :: !order
  done;
  Alcotest.(check (list (triple int string int)))
    "both payloads travel together"
    [ (10, "a", 1); (20, "b", 2); (20, "c", 3) ]
    (List.rev !order);
  Alcotest.check_raises "next_time on empty"
    (Invalid_argument "Event_queue.next_time: empty queue") (fun () ->
      ignore (Event_queue.next_time q))

(* The non-allocating accessors must agree with [pop] on every state. *)
let prop_fast_path_matches_pop =
  QCheck.Test.make ~name:"top_fst/drop_min agree with pop" ~count:200
    QCheck.(list (pair (int_bound 30) small_int))
    (fun entries ->
      let q1 = Event_queue.create () in
      let q2 = Event_queue.create () in
      List.iter
        (fun (time, v) ->
          Event_queue.push q1 ~time v;
          Event_queue.push q2 ~time v)
        entries;
      let ok = ref true in
      while not (Event_queue.is_empty q1) do
        let t = Event_queue.next_time q1 in
        let v = Event_queue.pop_min q1 in
        (match Event_queue.pop q2 with
        | Some (t', v') -> if t <> t' || v <> v' then ok := false
        | None -> ok := false)
      done;
      !ok && Event_queue.is_empty q2)

(* The queue against a reference list under every operation that
   changes it.  Each pushed entry's payloads name it uniquely, so after
   each step the earliest entry read through the accessors must be the
   head of the model: a list in (time, push order), where a new entry
   goes after every entry whose time is <= its own.  The queue starts at
   capacity 1, so every growth step runs. *)
type qop = Push of int | Drop | Clear

let qop_print = function
  | Push t -> Printf.sprintf "push %d" t
  | Drop -> "drop"
  | Clear -> "clear"

let queue_follows_script script =
  let q = Event_queue.create2 ~capacity:1 () in
  let rec insert ((time, _, _) as e) = function
    | ((t, _, _) as x) :: rest when t <= time -> x :: insert e rest
    | later -> e :: later
  in
  (* (time, fst, snd), in (time, push order) *)
  let model = ref [] and pushed = ref 0 in
  let agrees () =
    Event_queue.length q = List.length !model
    &&
    match !model with
    | [] -> Event_queue.is_empty q
    | (t, x, y) :: _ ->
        Event_queue.next_time q = t
        && Event_queue.top_fst q = x
        && Event_queue.top_snd q = y
  in
  List.for_all
    (fun op ->
      (match op with
      | Push t ->
          let x = Printf.sprintf "e%d" !pushed and y = [ !pushed ] in
          incr pushed;
          Event_queue.push2 q ~time:t x y;
          model := insert (t, x, y) !model
      | Drop -> (
          match !model with
          | [] -> ()
          | _ :: rest ->
              Event_queue.drop_min q;
              model := rest)
      | Clear ->
          Event_queue.clear q;
          model := []);
      agrees ())
    script

let qop_gen =
  QCheck.Gen.(
    frequency
      [ (6, map (fun t -> Push t) (int_bound 7)); (4, return Drop); (1, return Clear) ])

let prop_slot_heap_script =
  QCheck.Test.make ~name:"slot heap = stable (time, seq) sort of a reference"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list qop_print)
       QCheck.Gen.(list_size (int_bound 120) qop_gen))
    queue_follows_script

(* The queue is sorted up to 32 entries and a heap above, until a pop
   leaves 16.  Each script fills the queue past 32 and drains it below 16
   two to four times, pushing now and then while it drains and popping
   while it fills, with times from 0-7 so ties are common. *)
let mode_switch_script st =
  let int n = Random.State.int st n in
  let ops = ref [] and depth = ref 0 in
  let push () =
    ops := Push (int 8) :: !ops;
    incr depth
  and drop () =
    ops := Drop :: !ops;
    decr depth
  in
  for _ = 1 to 2 + int 3 do
    let high = 33 + int 40 and low = int 16 in
    while !depth < high do
      if !depth > 0 && int 4 = 0 then drop () else push ()
    done;
    while !depth > low do
      if int 4 = 0 then push () else drop ()
    done
  done;
  List.rev !ops

let prop_queue_mode_switch =
  QCheck.Test.make ~name:"queue order holds across the sorted/heap switch"
    ~count:200
    (QCheck.make ~print:QCheck.Print.(list qop_print) mode_switch_script)
    queue_follows_script

(* A dropped payload is not kept reachable by the slot it leaves while
   the other entries stay queued. *)
let push_tracked q w ~time =
  let b = Bytes.make 64 'p' in
  Weak.set w 0 (Some b);
  Event_queue.push2 q ~time b 0
[@@inline never]

let test_slot_heap_releases_dropped () =
  (* At depth 3 the queue is sorted; at depth 100 it is a heap. *)
  List.iter
    (fun depth ->
      let q = Event_queue.create2 ~capacity:1 () in
      let w = Weak.create 1 in
      push_tracked q w ~time:1;
      for time = 2 to depth do
        Event_queue.push2 q ~time (Bytes.make 64 'o') time
      done;
      Event_queue.drop_min q;
      Gc.full_major ();
      let at = Printf.sprintf " at depth %d" depth in
      check_bool ("dropped payload collected" ^ at) false (Weak.check w 0);
      check_int ("the others still queued" ^ at) (depth - 1) (Event_queue.length q);
      Alcotest.(check (list (pair int int)))
        ("the others drain in order" ^ at)
        (List.init (depth - 1) (fun i -> (i + 2, i + 2)))
        (List.init (depth - 1) (fun _ ->
             let t = Event_queue.next_time q and v = Event_queue.top_snd q in
             Event_queue.drop_min q;
             (t, v))))
    [ 3; 100 ]

(* --- ambient switches: exact on every domain --- *)

let switches () = (Trace.on (), Metrics.on (), Fault.on ())
let installed () =
  (Trace.installed_domains (), Metrics.installed_domains (),
   Fault.installed_domains ())

let all_off = (false, false, false)
let check_switches = Alcotest.(check (triple bool bool bool))
let check_counts = Alcotest.(check (triple int int int))

let with_all f =
  Trace.with_sink (Trace.make ()) (fun () ->
      Metrics.with_registry (Metrics.create ()) (fun () ->
          Fault.with_plan (Fault.create Fault.none) f))

(* Run [f] as a pool task that the submitter cannot help run: it awaits
   only once the task has finished, so the pool's worker ran it. *)
let on_worker pool f =
  let finished = Atomic.make false in
  let fut =
    Par.submit pool (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set finished true) f)
  in
  while not (Atomic.get finished) do
    Domain.cpu_relax ()
  done;
  Par.await fut

let test_switches_exact_across_domains () =
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      let inside = Atomic.make false and checked = Atomic.make false in
      let held =
        Par.submit pool (fun () ->
            with_all (fun () ->
                let seen = switches () in
                Atomic.set inside true;
                while not (Atomic.get checked) do
                  Domain.cpu_relax ()
                done;
                seen))
      in
      while not (Atomic.get inside) do
        Domain.cpu_relax ()
      done;
      (* The worker holds all three, so the counts are up and this
         domain's check takes the slow path, and must still read false.
         Read before releasing the task, check after: a failed check
         must not leave the worker spinning. *)
      let counts = installed () and here = switches () in
      Atomic.set checked true;
      check_counts "one domain holds each" (1, 1, 1) counts;
      check_switches "submitter while the worker holds all three" all_off here;
      check_switches "inside the task" (true, true, true) (Par.await held);
      check_switches "submitter after the task" all_off (switches ());
      check_switches "worker after the task" all_off (on_worker pool switches);
      (match on_worker pool (fun () -> with_all (fun () -> failwith "boom")) with
      | () -> Alcotest.fail "the task's exception was lost"
      | exception Failure _ -> ());
      check_switches "worker after a raise" all_off (on_worker pool switches);
      check_switches "submitter after a raise" all_off (switches ());
      check_counts "nothing left installed" (0, 0, 0) (installed ());
      (* With metrics on, a task runs under its own shard, which the
         pool installs on the worker and then removes. *)
      let seen =
        Metrics.with_registry (Metrics.create ()) (fun () ->
            on_worker pool (fun () ->
                Metrics.counter_incr ~name:"task" ();
                Metrics.on ()))
      in
      check_bool "metrics on in the worker's task" true seen;
      check_int "no registry left installed" 0 (Metrics.installed_domains ());
      check_switches "all off after the metrics run" all_off (switches ()))

(* A domain that holds a sink and a plan helps, while awaiting, with a
   task submitted without them: the task runs under neither, and the
   helper's come back after it. *)
let test_helper_runs_task_under_its_own_settings () =
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      (* Keep the one worker busy so that only the awaiting domain can run
         the next task. *)
      let started = Atomic.make false and release = Atomic.make false in
      let blocker =
        Par.submit pool (fun () ->
            Atomic.set started true;
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done)
      in
      while not (Atomic.get started) do
        Domain.cpu_relax ()
      done;
      let helped =
        Par.submit pool (fun () ->
            let seen = (Trace.on (), Fault.on ()) in
            Trace.instant ~cat:"c" ~name:"helped" ~ts:0 ();
            seen)
      in
      let sink = Trace.make () in
      let seen, after =
        Fun.protect
          ~finally:(fun () -> Atomic.set release true)
          (fun () ->
            Trace.with_sink sink (fun () ->
                Fault.with_plan (Fault.create Fault.none) (fun () ->
                    let seen = Par.await helped in
                    (seen, (Trace.on (), Fault.on ())))))
      in
      Par.await blocker;
      Alcotest.(check (pair bool bool))
        "no sink or plan inside the helped task" (false, false) seen;
      Alcotest.(check (pair bool bool))
        "the helper's sink and plan are back" (true, true) after;
      check_int "the helper's sink got none of the task's events" 0
        (Trace.event_count sink))

(* One run's sinks keep at most the first sink's cap between them, and the
   same events at every width. *)
let test_sink_cap_across_tasks () =
  let cap = 100 in
  let traced pool =
    let sink = Trace.make ~max_events:cap () in
    Trace.with_sink sink (fun () ->
        ignore
          (Par.map pool
             (fun task ->
               for i = 1 to 40 do
                 Trace.instant ~cat:"c" ~name:"n" ~tile:task ~ts:i ()
               done)
             (List.init 6 Fun.id)));
    sink
  in
  let seq = traced Par.Pool.sequential in
  let par = Par.Pool.with_pool ~jobs:4 traced in
  List.iter
    (fun (what, sink) ->
      check_bool (what ^ ": at most the cap") true
        (Trace.event_count sink <= cap);
      check_int (what ^ ": every event kept or dropped") 240
        (Trace.event_count sink + Trace.dropped sink))
    [ ("sequential", seq); ("4 wide", par) ];
  check_bool "same events at both widths" true
    (Trace.events seq = Trace.events par)

(* An install inside another puts back the outer sink, registry and
   plan, not none. *)
let test_nested_installs_restore_outer () =
  let outer = Trace.make () in
  let after =
    Trace.with_sink outer (fun () ->
        Metrics.with_registry (Metrics.create ()) (fun () ->
            Fault.with_plan (Fault.create Fault.none) (fun () ->
                with_all (fun () -> ());
                Trace.instant ~cat:"c" ~name:"after" ~ts:0 ();
                switches ())))
  in
  check_switches "outer settings back after the inner installs"
    (true, true, true) after;
  check_int "the outer sink got the later event" 1 (Trace.event_count outer);
  check_switches "all off after the outer installs" all_off (switches ());
  check_counts "nothing left installed" (0, 0, 0) (installed ())

(* --- Engine: clock rule and apply fast path --- *)

let test_engine_until_advances_when_drained () =
  let eng = Engine.create () in
  Engine.at eng ~time:10 (fun () -> ());
  ignore (Engine.run ~until:100 eng);
  check_int "clock reaches the horizon" 100 (Engine.now eng)

let test_engine_max_events_keeps_clock () =
  let eng = Engine.create () in
  for i = 1 to 5 do
    Engine.at eng ~time:(10 * i) (fun () -> ())
  done;
  let n = Engine.run ~until:100 ~max_events:2 eng in
  check_int "stopped after 2 events" 2 n;
  (* Events at 30/40/50 are still pending at or before the horizon: the
     clock must NOT jump to 100. *)
  check_int "clock stays at last processed event" 20 (Engine.now eng)

let test_engine_max_events_at_drain_advances () =
  let eng = Engine.create () in
  Engine.at eng ~time:10 (fun () -> ());
  Engine.at eng ~time:20 (fun () -> ());
  let n = Engine.run ~until:100 ~max_events:2 eng in
  check_int "both events ran" 2 n;
  (* max_events stopped the loop exactly as the queue drained: nothing is
     pending before the horizon, so the clock advances to it. *)
  check_int "clock advances to horizon" 100 (Engine.now eng)

let test_engine_event_beyond_horizon () =
  let eng = Engine.create () in
  Engine.at eng ~time:250 (fun () -> ());
  ignore (Engine.run ~until:100 eng);
  check_int "clock stops at horizon" 100 (Engine.now eng);
  check_int "event still pending" 1 (Engine.pending eng);
  ignore (Engine.run eng);
  check_int "pending event runs on the next call" 250 (Engine.now eng)

let test_engine_apply_fast_path () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.at_apply eng ~time:20 (fun x -> log := x :: !log) 2;
  Engine.at eng ~time:10 (fun () -> log := 1 :: !log);
  Engine.after_apply eng ~delay:30 (fun x -> log := x :: !log) 3;
  ignore (Engine.run eng);
  Alcotest.(check (list int)) "apply events interleave with closures"
    [ 3; 2; 1 ] !log;
  check_int "clock at last event" 30 (Engine.now eng)

(* --- Bench_io: the JSON reader perfbench parses its reports with --- *)

let test_json_rejects_garbage () =
  let rejected text =
    Result.is_error (Bench_io.json_of_string text)
    && match Bench_io.parse_json text with
       | _ -> false
       | exception Bench_io.Parse_error _ -> true
  in
  check_bool "accepts an empty object" true
    (Bench_io.json_of_string "{ }" = Ok (Bench_io.J_obj []));
  check_bool "not json" true (rejected "pas du json");
  check_bool "trailing garbage" true (rejected "{ } }");
  check_bool "unterminated string" true (rejected "{ \"a\": \"b }");
  check_bool "missing value" true (rejected "[1, ]")

(* --- Exp_runner: the experiment registry --- *)

let test_registry () =
  let names = List.map (fun e -> e.Exp_runner.name) Exp_runner.experiments in
  Alcotest.(check (list string))
    "the paper's evaluation order"
    [
      "table1"; "complexity"; "fig6"; "fig7"; "fig8"; "fig9"; "voice";
      "fig10"; "ablations"; "fanin"; "migrate";
    ]
    names;
  check_int "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun name ->
      match Exp_runner.find name with
      | Some e -> check_string "find returns the named entry" name e.name
      | None -> Alcotest.failf "find %S failed" name)
    names;
  check_bool "fig11 is not an experiment" true
    (Option.is_none (Exp_runner.find "fig11"))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    Alcotest.test_case "par: map keeps submission order" `Quick
      test_par_results_in_order;
    Alcotest.test_case "par: sequential pool runs inline" `Quick
      test_par_sequential_pool_inline;
    Alcotest.test_case "par: task exception re-raised by await" `Quick
      test_par_exception_propagates;
    Alcotest.test_case "par: nested fan-out does not deadlock" `Quick
      test_par_nested_fanout;
    Alcotest.test_case "par: pool width" `Quick test_par_jobs_clamped;
    Alcotest.test_case "par: grid submits x-major, groups by x" `Quick
      test_grid_order;
    Alcotest.test_case "par: trace/faults keep the jobs width" `Quick
      test_runner_width;
    Alcotest.test_case "fig9: parallel == sequential" `Slow
      test_fig9_parallel_equals_sequential;
    Alcotest.test_case "chaos sweep: parallel == sequential" `Slow
      test_chaos_sweep_parallel_equals_sequential;
    Alcotest.test_case "fan-in ablation: parallel == sequential" `Slow
      test_fanin_parallel_equals_sequential;
    Alcotest.test_case "event queue: clear then reuse" `Quick
      test_queue_clear_reuse;
    Alcotest.test_case "event queue: two payloads + empty accessors" `Quick
      test_queue_two_payloads;
    Alcotest.test_case "event queue: a dropped payload is released" `Quick
      test_slot_heap_releases_dropped;
    Alcotest.test_case "switches: exact across domains" `Quick
      test_switches_exact_across_domains;
    Alcotest.test_case "switches: nested installs restore the outer" `Quick
      test_nested_installs_restore_outer;
    Alcotest.test_case "switches: a helped task runs under its own" `Quick
      test_helper_runs_task_under_its_own_settings;
    Alcotest.test_case "trace: one cap across a run's tasks" `Quick
      test_sink_cap_across_tasks;
    Alcotest.test_case "engine: until advances a drained clock" `Quick
      test_engine_until_advances_when_drained;
    Alcotest.test_case "engine: max_events keeps clock on pending work" `Quick
      test_engine_max_events_keeps_clock;
    Alcotest.test_case "engine: max_events at drain advances clock" `Quick
      test_engine_max_events_at_drain_advances;
    Alcotest.test_case "engine: event beyond horizon stays queued" `Quick
      test_engine_event_beyond_horizon;
    Alcotest.test_case "engine: at_apply/after_apply fast path" `Quick
      test_engine_apply_fast_path;
    Alcotest.test_case "bench_io: bad input rejected" `Quick
      test_json_rejects_garbage;
    Alcotest.test_case "runner: experiment registry" `Quick test_registry;
  ]
  @ qsuite
      [
        prop_heap_matches_stable_sort;
        prop_heap_interleaved;
        prop_fast_path_matches_pop;
        prop_slot_heap_script;
        prop_queue_mode_switch;
      ]
