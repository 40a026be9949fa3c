(* The partitioned-parallel scheduler (lib/par/shard.ml) and everything
   it leans on: the event queue's horizon accessors, the engine's
   single-source event accounting, and the end-to-end identity contract —
   sharded output equals sequential output, byte for byte, for the
   partitioned Exp_shard workload, with checkpoints slicing a run
   between windows. *)

module Engine = M3v_sim.Engine
module Event_queue = M3v_sim.Event_queue
module Shard = M3v_par.Shard
module Par = M3v_par.Par
module Exp_shard = M3v.Exp_shard

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Event_queue horizon accessors vs a stable-sort oracle --- *)

(* Operations: push a (time, tag) or pop-min; after replaying them on the
   heap and on a sorted-list oracle, min_time_since/occupancy_below must
   agree with the oracle at every probe time. *)
let ops_gen =
  QCheck.(
    list_of_size (Gen.int_range 1 80)
      (pair (int_bound 3) (int_bound 500) (* 0 = pop, else push at t *)))

let prop_horizon_accessors_match_oracle =
  QCheck.Test.make ~name:"min_time_since/occupancy_below match oracle"
    ~count:200 ops_gen (fun ops ->
      let q : int Event_queue.t = Event_queue.create () in
      let oracle = ref [] (* (time, seq) sorted stably on demand *) in
      let seq = ref 0 in
      List.iter
        (fun (kind, t) ->
          if kind = 0 then begin
            (* pop-min; both sides, when non-empty *)
            match Event_queue.pop q with
            | None ->
                if !oracle <> [] then
                  QCheck.Test.fail_report "heap empty, oracle non-empty"
            | Some (tm, _) ->
                (* FIFO pop = minimal time, then minimal seq at that time. *)
                let ot =
                  List.fold_left (fun acc (t, _) -> min acc t) max_int !oracle
                in
                if ot <> tm then
                  QCheck.Test.fail_reportf "pop time %d <> oracle %d" tm ot;
                let os =
                  List.fold_left
                    (fun acc (t, s) -> if t = ot then min acc s else acc)
                    max_int !oracle
                in
                oracle :=
                  List.filter (fun (t, s) -> not (t = ot && s = os)) !oracle
          end
          else begin
            Event_queue.push q ~time:t !seq;
            oracle := (t, !seq) :: !oracle;
            incr seq
          end)
        ops;
      (* Probe at every time in range plus the extremes. *)
      let probes = [ 0; 1; 100; 250; 499; 500; 501 ] in
      List.for_all
        (fun p ->
          let expect_min =
            List.fold_left
              (fun acc (t, _) ->
                if t >= p then
                  match acc with
                  | None -> Some t
                  | Some m -> Some (min m t)
                else acc)
              None !oracle
          in
          let expect_occ =
            List.length (List.filter (fun (t, _) -> t <= p) !oracle)
          in
          Event_queue.min_time_since q ~time:p = expect_min
          && Event_queue.occupancy_below q ~time:p = expect_occ)
        probes)

let test_horizon_accessors_empty () =
  let q : unit Event_queue.t = Event_queue.create () in
  check_bool "min_time_since on empty" true
    (Event_queue.min_time_since q ~time:0 = None);
  check_int "occupancy_below on empty" 0 (Event_queue.occupancy_below q ~time:max_int)

(* --- Engine.run single-source accounting (observer-enqueue-at-until) --- *)

let test_engine_counts_mid_run_enqueues_once () =
  (* A handler that fires at exactly [until] and enqueues more work at
     [until]: the run must process it in the same call and count it
     exactly once (the return value is the delta of events_processed). *)
  let e = Engine.create () in
  let fired = ref 0 in
  let rec chain depth () =
    incr fired;
    if depth > 0 then Engine.at e ~time:100 (chain (depth - 1))
  in
  Engine.at e ~time:50 (fun () -> incr fired);
  Engine.at e ~time:100 (chain 3);
  let n = Engine.run ~until:100 e in
  check_int "all events fired" 5 !fired;
  check_int "return counts chained work exactly once" 5 n;
  check_int "nothing pending" 0 (Engine.pending e);
  check_int "clock at until" 100 (Engine.now e)

let test_engine_observer_enqueue_at_until () =
  (* The dispatch-loop observer fires every 1024 processed events; have it
     enqueue one extra event at exactly [until].  Total counted over the
     run must equal total handler firings — no double count, no loss. *)
  let e = Engine.create () in
  let fired = ref 0 in
  let extras = ref 0 in
  for i = 1 to 1500 do
    Engine.at e ~time:i (fun () -> incr fired)
  done;
  Engine.set_observer e
    (Some
       (fun _now _pending ->
         if !extras < 2 then begin
           incr extras;
           Engine.at e ~time:2000 (fun () -> incr fired)
         end));
  let n = Engine.run ~until:2000 e in
  Engine.set_observer e None;
  check_bool "observer fired" true (!extras >= 1);
  check_int "every handler fired" (1500 + !extras) !fired;
  check_int "return = firings" (1500 + !extras) n;
  check_int "nothing pending" 0 (Engine.pending e);
  check_int "clock at until" 2000 (Engine.now e)

let test_engine_counts_across_max_events_cuts () =
  (* Slicing one logical run with max_events must conserve the count:
     the per-call returns sum to the total processed. *)
  let e = Engine.create () in
  let fired = ref 0 in
  for i = 1 to 100 do
    Engine.at e ~time:i (fun () -> incr fired)
  done;
  let total = ref 0 in
  let rec drain () =
    let n = Engine.run ~until:100 ~max_events:7 e in
    total := !total + n;
    if n > 0 then drain ()
  in
  drain ();
  check_int "all fired" 100 !fired;
  check_int "slice counts sum to total" 100 !total;
  check_int "processed ledger agrees" 100 (Engine.events_processed e)

(* --- Shard scheduler unit tests --- *)

let test_shard_create_validates () =
  Alcotest.check_raises "shards < 1"
    (Invalid_argument "Shard.create: shards < 1") (fun () ->
      ignore (Shard.create ~lookahead:10 ~shards:0 ()));
  Alcotest.check_raises "lookahead < 1"
    (Invalid_argument "Shard.create: lookahead < 1") (fun () ->
      ignore (Shard.create ~lookahead:0 ~shards:2 ()))

let test_shard_send_validates_lookahead () =
  let g : unit Shard.t = Shard.create ~lookahead:100 ~shards:2 () in
  Shard.set_handler g (fun ~dst:_ ~time:_ () -> ());
  (* Delivery closer than [lookahead] from the source clock (0) violates
     the conservative contract and must be rejected loudly. *)
  check_bool "undercutting send raises" true
    (match Shard.send g ~src:0 ~dst:1 ~time:99 () with
    | () -> false
    | exception Invalid_argument _ -> true);
  (* At exactly now + lookahead it is legal. *)
  Shard.send g ~src:0 ~dst:1 ~time:100 ()

let test_shard_same_shard_send_synchronous () =
  let g : int Shard.t = Shard.create ~lookahead:1_000 ~shards:2 () in
  let got = ref [] in
  Shard.set_handler g (fun ~dst ~time m -> got := (dst, time, m) :: !got);
  (* Same-shard: synchronous, no lookahead constraint, no buffering. *)
  Shard.send g ~src:1 ~dst:1 ~time:5 42;
  check_bool "delivered synchronously" true (!got = [ (1, 5, 42) ])

let test_shard_k1_equals_plain_engine () =
  (* A K=1 group is a plain engine with window bookkeeping: same event
     order, same count, same clock. *)
  let plain = Engine.create () in
  let g : unit Shard.t = Shard.create ~lookahead:10 ~shards:1 () in
  let order_p = ref [] and order_s = ref [] in
  let schedule eng order =
    List.iter
      (fun (t, tag) -> Engine.at eng ~time:t (fun () -> order := tag :: !order))
      [ (30, 'c'); (10, 'a'); (20, 'b'); (10, 'd'); (40, 'e') ]
  in
  schedule plain order_p;
  schedule (Shard.engine g 0) order_s;
  let np = Engine.run ~until:35 plain in
  let ns = Shard.run ~until:35 g in
  check_int "same count" np ns;
  check_bool "same order" true (!order_p = !order_s);
  check_int "same clock" (Engine.now plain) (Engine.now (Shard.engine g 0));
  check_int "same pending" (Engine.pending plain)
    (Engine.pending (Shard.engine g 0))

let test_shard_until_jumps_all_clocks () =
  let g : unit Shard.t = Shard.create ~lookahead:10 ~shards:3 () in
  Engine.at (Shard.engine g 1) ~time:50 (fun () -> ());
  let n = Shard.run ~until:200 g in
  check_int "one event ran" 1 n;
  for i = 0 to 2 do
    check_int
      (Printf.sprintf "shard %d clock at until" i)
      200
      (Engine.now (Shard.engine g i))
  done

let test_shard_all_empty_terminates () =
  let g : unit Shard.t = Shard.create ~lookahead:10 ~shards:4 () in
  check_int "empty run returns 0" 0 (Shard.run g);
  check_int "empty bounded run returns 0" 0 (Shard.run ~until:100 g)

let test_shard_cross_shard_flush_order () =
  (* Messages with equal delivery time flush in (birth, src, seq) order,
     regardless of send order across shards. *)
  let g : string Shard.t = Shard.create ~lookahead:100 ~shards:3 () in
  let got = ref [] in
  Shard.set_handler g (fun ~dst:_ ~time:_ m -> got := m :: !got);
  (* All born at time 0, all delivered at 100. Send in scrambled shard
     order; expect src-then-seq order after the flush. *)
  Shard.send g ~src:2 ~dst:0 ~time:100 "s2a";
  Shard.send g ~src:0 ~dst:1 ~time:100 "s0a";
  Shard.send g ~src:1 ~dst:2 ~time:100 "s1a";
  Shard.send g ~src:0 ~dst:2 ~time:100 "s0b";
  ignore (Shard.run ~until:100 g);
  check_bool "flush sorted by (src, seq)" true
    (List.rev !got = [ "s0a"; "s0b"; "s1a"; "s2a" ])

let test_shard_ping_pong_deterministic () =
  (* Two shards ping-ponging a counter: run once monolithically, once in
     single-window steps, and once sliced by a checkpoint — four windows,
     a Marshal-with-closures round trip of the group together with its
     log, then a run to the end.  All three see the same deliveries. *)
  let build () =
    let g : int Shard.t = Shard.create ~lookahead:10 ~shards:2 () in
    let log = ref [] in
    Shard.set_handler g (fun ~dst ~time m ->
        Engine.at (Shard.engine g dst) ~time (fun () ->
            log := (dst, time, m) :: !log;
            if m < 20 then
              Shard.send g ~src:dst ~dst:(1 - dst) ~time:(time + 10) (m + 1)));
    Shard.send g ~src:0 ~dst:1 ~time:10 0;
    (g, log)
  in
  let g1, log1 = build () in
  let n1 = Shard.run g1 in
  let g2, log2 = build () in
  let total = ref 0 in
  let rec stepper () =
    match Shard.step g2 with
    | `Events n ->
        total := !total + n;
        stepper ()
    | `Idle -> ()
  in
  stepper ();
  check_int "21 deliveries" 21 (List.length !log1);
  check_bool "stepped == monolithic" true (!log1 = !log2);
  check_int "same event count" n1 !total;
  let g3, log3 = build () in
  let before = ref 0 in
  for _ = 1 to 4 do
    match Shard.step g3 with
    | `Events n -> before := !before + n
    | `Idle -> Alcotest.fail "drained before the checkpoint"
  done;
  let bytes = Marshal.to_bytes (g3, log3) [ Marshal.Closures ] in
  let (g3', log3') : int Shard.t * _ = Marshal.from_bytes bytes 0 in
  let after = Shard.run g3' in
  check_bool "checkpointed == monolithic" true (!log1 = !log3');
  check_int "checkpointed event count" n1 (!before + after)

(* --- Exp_shard: sharded == sequential across K, seeds and jobs --- *)

let test_exp_shard_identity_small () =
  List.iter
    (fun shards ->
      List.iter
        (fun seed ->
          let p =
            Exp_shard.run_point ~progress:false ~pool:Par.Pool.sequential
              ~tiles:32 ~shards ~chains_per_tile:2 ~hops:12 ~weight:16 ~seed ()
          in
          check_bool
            (Printf.sprintf "identical (shards=%d seed=%d)" shards seed)
            true p.Exp_shard.p_match)
        [ 1; 2 ])
    [ 1; 2; 4 ]

let test_exp_shard_identity_jobs () =
  (* The same point under a real 4-domain pool must also match — and
     match the sequential-pool run's checksum. *)
  let point pool =
    Exp_shard.run_point ~progress:false ~pool ~tiles:64 ~shards:4
      ~chains_per_tile:2 ~hops:16 ~weight:32 ~seed:3 ()
  in
  let seq = point Par.Pool.sequential in
  let par =
    Par.Pool.with_pool ~jobs:4 (fun pool -> point pool)
  in
  check_bool "jobs=1 identical" true seq.Exp_shard.p_match;
  check_bool "jobs=4 identical" true par.Exp_shard.p_match;
  check_int "checksum invariant across pools" seq.Exp_shard.p_checksum
    par.Exp_shard.p_checksum;
  check_int "event count invariant across pools" seq.Exp_shard.p_events
    par.Exp_shard.p_events

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    Alcotest.test_case "event queue: horizon accessors on empty" `Quick
      test_horizon_accessors_empty;
    Alcotest.test_case "engine: mid-run enqueue at until counted once" `Quick
      test_engine_counts_mid_run_enqueues_once;
    Alcotest.test_case "engine: observer enqueue at until counted once" `Quick
      test_engine_observer_enqueue_at_until;
    Alcotest.test_case "engine: counts conserved across max_events cuts" `Quick
      test_engine_counts_across_max_events_cuts;
    Alcotest.test_case "shard: create validates arguments" `Quick
      test_shard_create_validates;
    Alcotest.test_case "shard: send enforces lookahead" `Quick
      test_shard_send_validates_lookahead;
    Alcotest.test_case "shard: same-shard send is synchronous" `Quick
      test_shard_same_shard_send_synchronous;
    Alcotest.test_case "shard: K=1 equals a plain engine" `Quick
      test_shard_k1_equals_plain_engine;
    Alcotest.test_case "shard: until jumps every shard clock" `Quick
      test_shard_until_jumps_all_clocks;
    Alcotest.test_case "shard: all-empty group terminates" `Quick
      test_shard_all_empty_terminates;
    Alcotest.test_case "shard: flush orders by (time, birth, src, seq)" `Quick
      test_shard_cross_shard_flush_order;
    Alcotest.test_case "shard: stepped run == monolithic run" `Quick
      test_shard_ping_pong_deterministic;
    Alcotest.test_case "exp_shard: sharded == sequential (K x seeds)" `Quick
      test_exp_shard_identity_small;
    Alcotest.test_case "exp_shard: identity holds on a 4-domain pool" `Slow
      test_exp_shard_identity_jobs;
  ]
  @ qsuite [ prop_horizon_accessors_match_oracle ]
