(* Fault-injection and recovery tests: the chaos layer's own API (parse,
   gating, budgets), DTU retransmit/dedup under lossy NoC plans, credit
   conservation with faults enabled, controller crash handling (exit
   codes, teardown, watchdog-driven restarts), and end-to-end determinism
   of the chaos-soak experiment. *)

open M3v_sim
open M3v_sim.Proc.Syntax
module Dtu = M3v_dtu.Dtu
module Dtu_types = M3v_dtu.Dtu_types
module Ep = M3v_dtu.Ep
module Msg = M3v_dtu.Msg
module Fault = M3v_fault.Fault
module A = M3v_mux.Act_api
module Controller = M3v_kernel.Controller
module System = M3v.System
module Exp_chaos = M3v.Exp_chaos
module Trace = M3v_obs.Trace

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_opt_int = Alcotest.(check (option int))

type Msg.data += P of int

(* --- Rng: bounded ints are in range and roughly uniform --- *)

let test_rng_bounds_uniform () =
  let rng = Rng.create ~seed:42 in
  let n = 5 in
  let draws = 50_000 in
  let buckets = Array.make n 0 in
  for _ = 1 to draws do
    let v = Rng.int rng n in
    check_bool "in range" true (v >= 0 && v < n);
    buckets.(v) <- buckets.(v) + 1
  done;
  (* A modulo-biased generator over a power-of-two state skews the small
     residues; with rejection sampling every bucket sits near draws/n. *)
  let expect = draws / n in
  Array.iteri
    (fun i c ->
      check_bool
        (Printf.sprintf "bucket %d near uniform (%d)" i c)
        true
        (abs (c - expect) < expect / 5))
    buckets;
  for _ = 1 to 1_000 do
    let v = Rng.int_in rng 10 20 in
    check_bool "int_in range" true (v >= 10 && v <= 20)
  done

(* --- fault spec parsing --- *)

let test_parse_spec () =
  (match Fault.parse "drop=0.01,dup=0.005,crash=2" with
  | Ok s ->
      check_bool "drop" true (s.Fault.drop = 0.01);
      check_bool "dup" true (s.Fault.dup = 0.005);
      check_int "crash" 2 s.Fault.crash;
      check_int "hang" 0 s.Fault.hang
  | Error e -> Alcotest.fail e);
  (match Fault.parse "" with
  | Ok s -> check_bool "empty spec is none" true (s = Fault.none)
  | Error e -> Alcotest.fail e);
  let bad s =
    match Fault.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "spec %S must be rejected" s
  in
  bad "drop=abc";
  bad "bogus=1";
  bad "drop";
  bad "drop=-0.5";
  bad "crash=1.5"

(* Every one of the eleven fields is drawn, each probability sometimes at
   its default: [spec_to_string] must print whatever [parse] needs to
   rebuild the spec. *)
let prop_spec_roundtrip =
  let prob = QCheck.int_bound 100 and count = QCheck.int_bound 4 in
  QCheck.Test.make ~name:"fault spec survives print/parse round trip"
    ~count:500
    QCheck.(
      triple
        (quad prob prob prob prob)
        (quad (int_bound 400_000) count count count)
        (quad (int_bound 10) (int_bound 10) (int_bound 100) (int_bound 9)))
    (fun ((d, u, dl, cf), (dps, c, h, ma), (cp, hp, map, odd)) ->
      let spec =
        {
          Fault.drop = float_of_int d /. 100.;
          dup = float_of_int u /. 100.;
          delay = float_of_int dl /. 100.;
          delay_ps = dps;
          cmd_fail = float_of_int cf /. 100.;
          crash = c;
          crash_p = float_of_int cp /. 1000.;
          hang = h;
          hang_p = float_of_int hp /. 1000.;
          mig_abort = ma;
          (* An odd fraction that %g alone would round. *)
          mig_abort_p =
            (if odd = 0 then 1. /. 3. else float_of_int map /. 100.);
        }
      in
      match Fault.parse (Fault.spec_to_string spec) with
      | Ok s -> s = spec
      | Error _ -> false)

(* --- gating: without a plan every hook is inert --- *)

let test_no_plan_is_inert () =
  check_bool "off" false (Fault.on ());
  check_bool "deliver" true (Fault.noc_fate ~now:0 ~src:0 ~dst:1 = Fault.Deliver);
  check_bool "no cmd glitch" false (Fault.cmd_fails ~now:0 ~tile:1);
  check_bool "no act fate" true (Fault.act_fate ~now:0 ~tile:1 ~act:5 = None)

(* --- crash/hang budgets and protection --- *)

let test_protect_and_budget () =
  let plan =
    Fault.create ~seed:3
      { Fault.none with crash = 1; crash_p = 1.0; hang = 1; hang_p = 1.0 }
  in
  Fault.protect plan ~act:5;
  Fault.with_plan plan (fun () ->
      check_bool "protected act exempt" true
        (Fault.act_fate ~now:0 ~tile:1 ~act:5 = None);
      check_bool "first fate is crash" true
        (Fault.act_fate ~now:0 ~tile:1 ~act:6 = Some Fault.Crash);
      check_bool "then hang" true
        (Fault.act_fate ~now:0 ~tile:1 ~act:6 = Some Fault.Hang);
      check_bool "budgets exhausted" true
        (Fault.act_fate ~now:0 ~tile:1 ~act:6 = None);
      let s = Fault.stats plan in
      check_int "one crash counted" 1 s.Fault.crashes_injected;
      check_int "one hang counted" 1 s.Fault.hangs_injected)

(* --- two-DTU harness (as in test_props) --- *)

let make_link ~credits =
  let eng = Engine.create () in
  let topo = M3v_noc.Topology.star_mesh_2x2 ~tiles:2 in
  let noc = M3v_noc.Noc.create eng topo in
  let d0 = Dtu.create ~virtualized:true ~tile:0 eng noc in
  let d1 = Dtu.create ~virtualized:true ~tile:1 eng noc in
  let lookup_dtu = function 0 -> Some d0 | 1 -> Some d1 | _ -> None in
  let lookup_mem = fun _ -> None in
  Dtu.connect d0 ~lookup_dtu ~lookup_mem;
  Dtu.connect d1 ~lookup_dtu ~lookup_mem;
  Dtu.ext_config d1 ~ep:1 ~owner:7
    (Ep.recv_config ~slots:credits ~slot_size:128 ());
  Dtu.ext_config d0 ~ep:1 ~owner:5
    (Ep.send_config ~dst_tile:1 ~dst_ep:1 ~max_msg_size:64 ~credits ());
  ignore (Dtu.switch_act d0 ~next:5);
  ignore (Dtu.switch_act d1 ~next:7);
  (eng, d0, d1)

(* A reply gate on [d0] (endpoint 2, act 5) for the replies of
   [make_link]'s receiver. *)
let add_reply_gate d0 =
  Dtu.ext_config d0 ~ep:2 ~owner:5 (Ep.recv_config ~slots:64 ~slot_size:128 ())

let send_credits d =
  match (Dtu.ext_read_ep d ~ep:1).Ep.cfg with
  | Ep.Send s -> s.Ep.credits
  | _ -> -1

let recv_occupied d =
  match (Dtu.ext_read_ep d ~ep:1).Ep.cfg with
  | Ep.Recv r -> r.Ep.occupied
  | _ -> -1

(* A message facing certain loss exhausts its retransmit budget, reports
   [Timeout] and refunds the credit (the control sideband is lossless, so
   an unacknowledged send was provably never consumed). *)
let test_drop_timeout_refunds_credit () =
  let plan = Fault.create ~seed:1 { Fault.none with drop = 1.0 } in
  Fault.with_plan plan (fun () ->
      let eng, d0, d1 = make_link ~credits:3 in
      let result = ref None in
      Dtu.send d0 ~ep:1 ~msg_size:16 (P 0) ~k:(fun r -> result := Some r);
      ignore (Engine.run eng);
      (match !result with
      | Some (Error Dtu_types.Timeout) -> ()
      | Some (Ok ()) -> Alcotest.fail "send succeeded under drop=1.0"
      | Some (Error e) ->
          Alcotest.failf "wrong error: %s" (Dtu_types.error_to_string e)
      | None -> Alcotest.fail "send never completed");
      let s = Dtu.stats d0 in
      check_int "one final timeout" 1 s.Dtu.timeouts;
      check_bool "retransmits attempted" true (s.Dtu.retries > 0);
      check_int "credit refunded" 3 (send_credits d0);
      check_int "no slot occupied" 0 (recv_occupied d1))

(* A reply that fails for good under [spec] settles its credit: it freed
   the request's slot, so the requester's send endpoint gets the credit
   back over the sideband, once.  With a second request outstanding, the
   endpoint goes from 1 credit to 2.  [gate_gone] invalidates the
   requester's reply gate first.  Returns the plan and the replier's DTU
   for further checks. *)
let reply_fails_granting_credit_once ~spec ~gate_gone ~error =
  let eng, d0, d1 = make_link ~credits:3 in
  add_reply_gate d0;
  for i = 0 to 1 do
    Dtu.send d0 ~ep:1 ~reply_ep:2 ~msg_size:16 (P i) ~k:(fun _ -> ())
  done;
  ignore (Engine.run eng);
  let msg =
    match Dtu.fetch d1 ~ep:1 with
    | Ok (Some msg) -> msg
    | _ -> Alcotest.fail "request not delivered"
  in
  check_int "two credits spent" 1 (send_credits d0);
  if gate_gone then
    Dtu.ext_config d0 ~ep:2 ~owner:Dtu_types.invalid_act Ep.Invalid;
  let plan = Fault.create ~seed:1 spec in
  let result = ref None in
  Fault.with_plan plan (fun () ->
      Dtu.reply d1 ~recv_ep:1 ~to_msg:msg ~msg_size:16 (P 9) ~k:(fun r ->
          result := Some r);
      ignore (Engine.run eng));
  (match !result with
  | Some (Error e) when e = error -> ()
  | Some (Ok ()) -> Alcotest.fail "reply succeeded"
  | Some (Error e) ->
      Alcotest.failf "wrong error: %s" (Dtu_types.error_to_string e)
  | None -> Alcotest.fail "reply never completed");
  check_int "the reply's credit granted once" 2 (send_credits d0);
  check_int "the other request still holds its slot" 1 (recv_occupied d1);
  (plan, d0, d1)

(* Certain loss: the reply exhausts its retransmit budget and reports
   [Timeout]. *)
let test_reply_timeout_grants_credit_once () =
  let _, d0, d1 =
    reply_fails_granting_credit_once
      ~spec:{ Fault.none with drop = 1.0 }
      ~gate_gone:false ~error:Dtu_types.Timeout
  in
  check_int "one final timeout" 1 (Dtu.stats d1).Dtu.timeouts;
  check_bool "no reply arrived" true (Dtu.fetch d0 ~ep:2 = Ok None)

(* Both copies of a duplicated reply fail at the invalid gate: each
   failed copy and the failed command settle the same credit. *)
let test_failed_reply_copies_grant_credit_once () =
  let plan, _, _ =
    reply_fails_granting_credit_once
      ~spec:{ Fault.none with dup = 1.0 }
      ~gate_gone:true ~error:Dtu_types.Recv_gone
  in
  check_int "the reply was duplicated" 1 (Fault.stats plan).Fault.duplicated

(* Under partial loss and duplication every payload the sender saw
   acknowledged arrives exactly once: retransmission recovers drops and
   receive-side dedup swallows duplicate copies. *)
let test_retransmit_exactly_once () =
  let plan = Fault.create ~seed:42 { Fault.none with drop = 0.25; dup = 0.25 } in
  Fault.with_plan plan (fun () ->
      let eng, d0, d1 = make_link ~credits:3 in
      let sent_ok = ref [] and received = ref [] in
      for i = 0 to 29 do
        Dtu.send d0 ~ep:1 ~msg_size:16 (P i) ~k:(fun r ->
            if r = Ok () then sent_ok := i :: !sent_ok);
        ignore (Engine.run eng);
        let rec drain () =
          match Dtu.fetch d1 ~ep:1 with
          | Ok (Some msg) ->
              (match msg.Msg.data with
              | P j -> received := j :: !received
              | _ -> Alcotest.fail "unexpected payload");
              ignore (Dtu.ack d1 ~ep:1 msg);
              drain ()
          | Ok None | Error _ -> ()
        in
        drain ();
        ignore (Engine.run eng)
      done;
      let sent_ok = List.sort compare !sent_ok in
      let received = List.sort compare !received in
      check_bool "each acked payload delivered exactly once" true
        (sent_ok = received);
      check_int "credits conserved at quiescence" 3
        (send_credits d0 + recv_occupied d1);
      let s0 = Dtu.stats d0 and s1 = Dtu.stats d1 in
      check_bool "drops forced retransmissions" true (s0.Dtu.retries > 0);
      check_bool "duplicates were deduplicated" true (s1.Dtu.dup_drops > 0))

(* Credit conservation (test_props invariant) must survive arbitrary
   fault plans: drops refund on final timeout, duplicates never mint a
   second slot, delays only move deliveries.  A fetched request is acked
   or replied to; a reply's credit is granted once, piggybacked or, after
   a timeout, over the sideband. *)
let prop_faulty_credit_conservation =
  QCheck.Test.make ~name:"credits conserved under random fault plans"
    ~count:30
    QCheck.(
      pair
        (pair small_int (pair (int_bound 30) (int_bound 30)))
        (list_of_size (Gen.int_range 1 50) (int_bound 3)))
    (fun ((seed, (drop100, dup100)), script) ->
      let spec =
        {
          Fault.none with
          drop = float_of_int drop100 /. 100.;
          dup = float_of_int dup100 /. 100.;
          delay = 0.05;
          cmd_fail = 0.02;
        }
      in
      let plan = Fault.create ~seed:(seed + 1) spec in
      Fault.with_plan plan (fun () ->
          let credits = 3 in
          let eng, d0, d1 = make_link ~credits in
          add_reply_gate d0;
          let fetched = Queue.create () in
          let ok = ref true in
          let rec drain_replies () =
            match Dtu.fetch d0 ~ep:2 with
            | Ok (Some msg) ->
                ignore (Dtu.ack d0 ~ep:2 msg);
                drain_replies ()
            | Ok None | Error _ -> ()
          in
          List.iter
            (fun op ->
              (match op with
              | 0 ->
                  Dtu.send d0 ~ep:1 ~reply_ep:2 ~msg_size:16 (P 0)
                    ~k:(fun _ -> ())
              | 1 -> (
                  match Dtu.fetch d1 ~ep:1 with
                  | Ok (Some msg) -> Queue.add msg fetched
                  | Ok None | Error _ -> ())
              | 2 -> (
                  match Queue.take_opt fetched with
                  | Some msg -> ignore (Dtu.ack d1 ~ep:1 msg)
                  | None -> ())
              | _ -> (
                  match Queue.take_opt fetched with
                  | Some msg ->
                      Dtu.reply d1 ~recv_ep:1 ~to_msg:msg ~msg_size:16 (P 1)
                        ~k:(fun _ -> ())
                  | None -> ()));
              ignore (Engine.run eng);
              drain_replies ();
              if send_credits d0 + recv_occupied d1 <> credits then ok := false)
            script;
          !ok))

(* --- controller: exit codes, crash teardown, watchdog restarts --- *)

let test_exit_code_propagation () =
  let sys = System.create ~variant:System.M3v () in
  let ctrl = System.controller sys in
  let aid, _ =
    System.spawn sys ~tile:1 ~name:"fails" (fun _ ->
        let* () = A.compute 1_000 in
        A.exit_with 3)
  in
  System.boot sys;
  ignore (System.run sys);
  check_opt_int "exit code propagated" (Some 3) (Controller.exit_code ctrl aid);
  check_int "nonzero exit counted as crash" 1
    (Controller.stats ctrl).Controller.crashes

let test_crash_teardown_clears_ep_owners () =
  let sys = System.create ~variant:System.M3v () in
  let ctrl = System.controller sys in
  let peer, _ = System.spawn sys ~tile:2 ~name:"peer" (fun _ -> Proc.return ()) in
  let victim, _ =
    System.spawn sys ~tile:1 ~name:"victim" (fun _ ->
        let* () = A.compute 1_000 in
        A.exit_with 5)
  in
  let ch = System.channel sys ~src:victim ~dst:peer () in
  check_opt_int "victim owns its reply ep" (Some victim)
    (Controller.ep_owner ctrl ~tile:1 ~ep:ch.System.reply_ep);
  System.boot sys;
  ignore (System.run sys);
  check_opt_int "crash exit recorded" (Some 5) (Controller.exit_code ctrl victim);
  check_opt_int "reply ep no longer owned after teardown" None
    (Controller.ep_owner ctrl ~tile:1 ~ep:ch.System.reply_ep);
  check_opt_int "peer's receive ep untouched" (Some peer)
    (Controller.ep_owner ctrl ~tile:2 ~ep:ch.System.rgate)

(* An injected hang freezes the activity mid-run; the TileMux watchdog
   must kill it (code 137) and the controller restart it in place, after
   which the fresh incarnation runs to completion. *)
let test_watchdog_kills_and_restarts_hung_act () =
  let plan = Fault.create ~seed:5 { Fault.none with hang = 1; hang_p = 1.0 } in
  Fault.with_plan plan (fun () ->
      let sys = System.create ~variant:System.M3v () in
      let ctrl = System.controller sys in
      let finished = ref 0 in
      let victim, _ =
        System.spawn sys ~tile:1 ~name:"victim" (fun _ ->
            let* () = A.compute 10_000 in
            let* () = A.compute 10_000 in
            incr finished;
            Proc.return ())
      in
      Controller.set_restartable ctrl ~act:victim ~max_restarts:2;
      System.boot sys;
      ignore (System.run sys);
      check_int "hang injected" 1 (Fault.stats plan).Fault.hangs_injected;
      check_int "watchdog triggered one restart" 1
        (Controller.restarts ctrl victim);
      check_int "restarted incarnation completed" 1 !finished)

(* --- end-to-end determinism: same spec + seed => identical runs --- *)

let run_chaos_traced () =
  let sink = Trace.make () in
  let r =
    Trace.with_sink sink (fun () ->
        Exp_chaos.run ~seed:11 ~fs_rounds:2 ~kv_ops:25 ())
  in
  (r, Buffer.contents (M3v_obs.Chrome.to_buffer sink))

let test_chaos_deterministic () =
  let r1, t1 = run_chaos_traced () in
  let r2, t2 = run_chaos_traced () in
  check_bool "same results" true (r1 = r2);
  check_bool "byte-identical Chrome traces" true (String.equal t1 t2);
  check_bool "trace is non-trivial" true (String.length t1 > 1_000);
  check_bool "fs workload made progress" true (r1.Exp_chaos.fs_rounds > 0);
  check_bool "kv workload made progress" true (r1.Exp_chaos.kv_ok > 0)

(* Rerunning the fan-in ablation under the same fault plan must produce
   the identical result: MPMC dedup, batched refunds and doorbell
   coalescing are all deterministic. *)
let test_fanin_rerun_identical_under_faults () =
  let run () =
    let plan =
      Fault.create ~seed:11
        { Fault.none with drop = 0.02; dup = 0.01; delay = 0.02 }
    in
    Fault.with_plan plan (fun () ->
        M3v.Exp_fanin.throughput ~mode:M3v.Exp_fanin.Mpmc ~senders:4 ~msgs:5 ())
  in
  let r1 = run () in
  check_bool "fan-in made progress under faults" true (r1 > 0.0);
  check_bool "fan-in rerun identical under faults" true (r1 = run ())

let suite =
  [
    ("rng bounds and uniformity", `Quick, test_rng_bounds_uniform);
    ("fault spec parsing", `Quick, test_parse_spec);
    ("no plan is inert", `Quick, test_no_plan_is_inert);
    ("crash/hang budgets and protect", `Quick, test_protect_and_budget);
    ("drop exhausts retries, refunds credit", `Quick,
     test_drop_timeout_refunds_credit);
    ("reply timeout grants its credit once", `Quick,
     test_reply_timeout_grants_credit_once);
    ("failed reply copies grant its credit once", `Quick,
     test_failed_reply_copies_grant_credit_once);
    ("retransmit + dedup deliver exactly once", `Quick,
     test_retransmit_exactly_once);
    ("exit code propagation", `Quick, test_exit_code_propagation);
    ("crash teardown clears ep owners", `Quick,
     test_crash_teardown_clears_ep_owners);
    ("watchdog kills and restarts hung act", `Quick,
     test_watchdog_kills_and_restarts_hung_act);
    ("chaos run is deterministic", `Slow, test_chaos_deterministic);
    ("fan-in rerun identical under faults", `Quick,
     test_fanin_rerun_identical_under_faults);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_spec_roundtrip; prop_faulty_credit_conservation ]
