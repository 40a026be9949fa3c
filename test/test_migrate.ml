(* Live migration and checkpoint/restore.

   The migration tests drive a sequence-numbered RPC stream through a
   server that is migrated (or fails to migrate, under injected aborts)
   mid-run: a blocking-call client on a recoverable fault plan means any
   duplicated or lost message surfaces as a sequence mismatch, a missing
   reply or a hung run.  Credit conservation is checked two ways — the
   controller asserts the global inventory at every flip instant, and the
   tests compare the inventory before boot against quiescence at the end.

   The checkpoint tests round-trip the chaos soak through
   suspend-to-file/resume and require the resumed result to equal the
   uninterrupted run's, sequentially and fanned out over a 4-worker
   pool. *)

module Time = M3v_sim.Time
module Engine = M3v_sim.Engine
module Proc = M3v_sim.Proc
module Checkpoint = M3v_sim.Checkpoint
module A = M3v_mux.Act_api
module Msg = M3v_dtu.Msg
module Dtu = M3v_dtu.Dtu
module Fault = M3v_fault.Fault
module Controller = M3v_kernel.Controller
module Platform = M3v_tile.Platform
module System = M3v.System
module Exp_chaos = M3v.Exp_chaos
module Par = M3v_par.Par
module Runtime = M3v_mux.Runtime
module Stats = M3v_sim.Stats

open M3v_sim.Proc.Syntax

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type Msg.data += Req of int | Resp of int

let src_tile = 1
let alt_tile = 2
let client_tile = 3

type outcome = {
  o_replies : int;
  o_mismatches : int;
  o_served : int;
  o_completed : bool;
  o_inv_start : int;
  o_inv_end : int;
  o_drained : bool;  (** event queue empty at the end (true quiescence) *)
  o_stats : Controller.stats;
  o_sys : System.t;
  o_server : int;
}

(* One run: a [rounds]-call echo stream, with a migration attempt
   (retried up to twice on abort) scheduled at each time in [mig_at],
   bouncing the server between [src_tile] and [alt_tile]. *)
let scenario ?(rounds = 60) ?(gap_cycles = 300) ~mig_at () =
  let sys = System.create ~variant:System.M3v () in
  let ctrl = System.controller sys in
  let engine = System.engine sys in
  let rgate = ref (-1) in
  let chan = ref (-1, -1) in
  let served = ref 0 in
  let replies = ref 0 in
  let mismatches = ref 0 in
  let client_done = ref false in
  let server_done = ref false in
  let server, _ =
    System.spawn sys ~tile:src_tile ~name:"echo" (fun _ ->
        let rec serve n =
          if n = rounds then begin
            server_done := true;
            Proc.return ()
          end
          else
            let* _ep, msg = A.recv ~eps:[ !rgate ] in
            let seq = match msg.Msg.data with Req i -> i | _ -> -1 in
            let* () = A.reply ~recv_ep:!rgate ~msg ~size:32 (Resp seq) in
            incr served;
            serve (n + 1)
        in
        serve 0)
  in
  let client, _ =
    System.spawn sys ~tile:client_tile ~name:"caller" (fun _ ->
        let rec go i =
          if i = rounds then begin
            client_done := true;
            Proc.return ()
          end
          else
            let* () = A.compute gap_cycles in
            let* resp =
              A.call ~sgate:(fst !chan) ~reply_ep:(snd !chan) ~size:32 (Req i)
            in
            (match resp.Msg.data with
            | Resp j when j = i -> incr replies
            | _ -> incr mismatches);
            go (i + 1)
        in
        go 0)
  in
  let ch = System.channel sys ~src:client ~dst:server () in
  rgate := ch.System.rgate;
  chan := (ch.System.sgate, ch.System.reply_ep);
  List.iteri
    (fun hop at ->
      let dst = if hop mod 2 = 0 then alt_tile else src_tile in
      let rec attempt n () =
        Controller.migrate ctrl ~act:server ~dst_tile:dst ~k:(function
          | Ok () -> ()
          | Error _ when n < 2 ->
              Engine.after engine ~delay:(Time.us 300) (attempt (n + 1))
          | Error _ -> ())
      in
      Engine.at engine ~time:at (attempt 0))
    mig_at;
  System.boot sys;
  let inventory () =
    let platform = System.platform sys in
    let total = ref 0 in
    for tile = 0 to Platform.tile_count platform - 1 do
      total := !total + Dtu.ext_credit_inventory (Platform.dtu platform tile)
    done;
    !total
  in
  let inv_start = inventory () in
  ignore (System.run ~until:(Time.s 4) sys);
  {
    o_replies = !replies;
    o_mismatches = !mismatches;
    o_served = !served;
    o_completed = !client_done && !server_done;
    o_inv_start = inv_start;
    o_inv_end = inventory ();
    o_drained = Engine.pending engine = 0;
    o_stats = Controller.stats ctrl;
    o_sys = sys;
    o_server = server;
  }

(* --- clean migration: the client never notices the move --- *)

let test_migrate_moves_server () =
  (* The 60-round stream lasts ~600us; both hops must land inside it. *)
  let o = scenario ~mig_at:[ Time.us 150; Time.us 350 ] () in
  check_bool "both sides finished" true o.o_completed;
  check_int "every reply verified in sequence" 60 o.o_replies;
  check_int "no mismatches" 0 o.o_mismatches;
  check_int "server handled each request once" 60 o.o_served;
  check_int "both hops completed" 2 o.o_stats.Controller.migrations;
  check_int "no aborts without a fault plan" 0 o.o_stats.Controller.mig_aborts;
  check_bool "downtime accounted" true (o.o_stats.Controller.mig_downtime_ps > 0);
  check_int "credit inventory conserved" o.o_inv_start o.o_inv_end

(* After a move, the server's time charges land in the target runtime's
   accounting bucket: the migration install resolves the bucket's counter
   cell in the runtime that now owns the activity.  The server is the
   only "user" activity on either tile, so the two tiles' buckets add up
   to its whole busy time, which the image carries across. *)
let test_migrate_charges_target_runtime () =
  let o = scenario ~mig_at:[ Time.us 150 ] () in
  check_bool "both sides finished" true o.o_completed;
  check_int "one hop completed" 1 o.o_stats.Controller.migrations;
  let busy tile = Runtime.busy_of_bucket (System.runtime o.o_sys ~tile) "user" in
  check_bool "the target's bucket grew" true (busy alt_tile > 0.0);
  Alcotest.(check (float 0.0))
    "source + target buckets = the server's busy time"
    (float_of_int (Runtime.busy_of (System.runtime o.o_sys ~tile:alt_tile) o.o_server))
    (busy src_tile +. busy alt_tile)

(* Three hops make the server revisit a tile it already vacated once:
   the forwarding pointer installed when it left must be cleared when its
   endpoints are restored there, or stale entries on the two tiles chase
   each other until the hop budget runs out and the message is delivered
   wherever the ping-pong happens to stop (regression: lost replies /
   Recv_gone on the third hop). *)
let test_migrate_revisits_tile () =
  let o = scenario ~mig_at:[ Time.us 0; Time.us 341; Time.us 600 ] () in
  check_bool "both sides finished" true o.o_completed;
  check_int "every reply verified in sequence" 60 o.o_replies;
  check_int "no mismatches" 0 o.o_mismatches;
  check_int "all three hops completed" 3 o.o_stats.Controller.migrations;
  check_int "credit inventory conserved" o.o_inv_start o.o_inv_end

(* Migrating to the tile the activity is already on must be refused. *)
let test_migrate_rejects_same_tile () =
  let sys = System.create ~variant:System.M3v () in
  let server, _ =
    System.spawn sys ~tile:src_tile ~name:"idle" (fun _ -> A.compute 10_000)
  in
  System.boot sys;
  let refused = ref None in
  Controller.migrate (System.controller sys) ~act:server ~dst_tile:src_tile
    ~k:(fun r -> refused := Some r);
  check_bool "same-tile migrate refused synchronously" true
    (match !refused with Some (Error _) -> true | _ -> false)

(* --- exactly-once under random fault plans and migration points ---

   Random mig_abort budgets (killing the protocol at random phases),
   plus data-plane drop/dup/delay and DTU command glitches, plus 1-3
   migration attempts at random times.  Whatever the interleaving: every
   request answered exactly once, in order, and the credit total at
   quiescence is what it was before boot. *)

let prop_migrate_exactly_once =
  QCheck.Test.make ~name:"migration: exactly-once + credit conservation"
    ~count:15
    QCheck.(
      quad (int_bound 999) (int_range 1 3) (int_bound 4)
        (list_of_size (Gen.int_range 1 3) (int_range 50 500)))
    (fun (seed, hops, abort_budget, times_us) ->
      let spec =
        {
          Fault.none with
          Fault.drop = 0.005;
          dup = 0.005;
          delay = 0.01;
          cmd_fail = 0.002;
          mig_abort = abort_budget;
        }
      in
      let plan = Fault.create ~seed spec in
      let mig_at =
        List.filteri (fun i _ -> i < hops) (times_us @ [ 300; 800; 1_400 ])
        |> List.map Time.us
      in
      let o = Fault.with_plan plan (fun () -> scenario ~mig_at ()) in
      if not o.o_completed then
        QCheck.Test.fail_reportf
          "run did not complete: %d/60 replies, %d served (seed %d)"
          o.o_replies o.o_served seed;
      if o.o_replies <> 60 || o.o_mismatches <> 0 || o.o_served <> 60 then
        QCheck.Test.fail_reportf
          "delivery violated: replies=%d mismatches=%d served=%d (seed %d)"
          o.o_replies o.o_mismatches o.o_served seed;
      if o.o_drained && o.o_inv_start <> o.o_inv_end then
        QCheck.Test.fail_reportf "credits not conserved: %d -> %d (seed %d)"
          o.o_inv_start o.o_inv_end seed;
      true)

(* --- checkpoint/restore --- *)

(* Suspend the soak at its first checkpoint, resume it (same process,
   fresh object graph from the file), and return the resumed result; if
   the run drains before the first checkpoint instant, the completed
   result is the round trip. *)
let round_trip ~seed () =
  let file = Filename.temp_file "m3v_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      match
        Exp_chaos.run_checkpointed ~seed ~every:(Time.ms 16) ~file
          ~stop_after:1 ()
      with
      | Exp_chaos.Completed r -> r
      | Exp_chaos.Suspended _ -> (
          match Exp_chaos.resume ~file () with
          | Ok (Exp_chaos.Completed r) -> r
          | Ok (Exp_chaos.Suspended _) ->
              Alcotest.fail "resume suspended without stop_after"
          | Error msg -> Alcotest.failf "resume failed: %s" msg))

let test_checkpoint_roundtrip () =
  let uninterrupted = Exp_chaos.run ~seed:7 () in
  let resumed = round_trip ~seed:7 () in
  check_bool "resumed result identical to uninterrupted run" true
    (resumed = uninterrupted)

(* The round trip must commute with the worker pool: 4 independent
   suspend/resume soaks on a 4-worker pool return byte-identical results
   to the same soaks run sequentially (domain-local plan + uid counter
   restored per task). *)
let test_checkpoint_roundtrip_jobs () =
  let seeds = [ 7; 8 ] in
  let sequential = List.map (fun seed -> round_trip ~seed ()) seeds in
  let pool = Par.Pool.create ~jobs:4 () in
  let parallel =
    Fun.protect
      ~finally:(fun () -> Par.Pool.shutdown pool)
      (fun () -> Par.map pool (fun seed -> round_trip ~seed ()) seeds)
  in
  check_bool "--jobs 4 round trip = --jobs 1 round trip" true
    (parallel = sequential);
  List.iter2
    (fun seed (rt : Exp_chaos.result) ->
      check_bool "round trip matches its uninterrupted run" true
        (rt = Exp_chaos.run ~seed ()))
    seeds sequential

(* A checkpoint marshals each runtime with the counter cells it keeps
   beside its table; the restored runtime's bumps must land in the
   restored table, not in orphaned copies of the cells. *)
let test_checkpoint_keeps_counter_cells () =
  let sys = System.create ~variant:System.M3v () in
  let spin _ = Proc.repeat 200 (fun _ -> A.compute 5_000) in
  ignore (System.spawn sys ~tile:src_tile ~name:"a" spin);
  ignore (System.spawn sys ~tile:src_tile ~name:"b" spin);
  System.boot sys;
  ignore (System.run ~until:(Time.us 100) sys);
  let file = Filename.temp_file "m3v_ckpt" ".bin" in
  let restored : System.t =
    Fun.protect
      ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
      (fun () ->
        Checkpoint.save ~path:file sys;
        match Checkpoint.load ~path:file with
        | Ok s -> s
        | Error msg -> Alcotest.failf "load failed: %s" msg)
  in
  let counters () = Runtime.counters (System.runtime restored ~tile:src_tile) in
  let read () =
    ( Stats.Counter.get (counters ()) "bucket/user",
      Stats.Counter.get (counters ()) "bucket/mux",
      Stats.Counter.get (counters ()) "ctx_switch" )
  in
  let user0, mux0, switches0 = read () in
  check_bool "charged before the checkpoint" true (user0 > 0.0 && mux0 > 0.0);
  ignore (System.run restored);
  let user1, mux1, switches1 = read () in
  check_bool "user charges after the restore" true (user1 > user0);
  check_bool "mux charges after the restore" true (mux1 > mux0);
  check_bool "switches after the restore" true (switches1 > switches0)

let test_checkpoint_codec_rejects () =
  (match Checkpoint.load ~path:"/nonexistent/m3v.ckpt" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "loaded a nonexistent file");
  let file = Filename.temp_file "m3v_ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin file in
      output_string oc "NOTACKPT and then some";
      close_out oc;
      let contains ~sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      (match Checkpoint.load ~path:file with
      | Error msg -> check_bool "bad magic diagnosed" true (contains ~sub:"magic" msg)
      | Ok () -> Alcotest.fail "loaded garbage");
      Checkpoint.save ~path:file (42, "ok");
      match Checkpoint.load ~path:file with
      | Ok (42, "ok") -> ()
      | Ok _ -> Alcotest.fail "value did not round-trip"
      | Error msg -> Alcotest.failf "round trip failed: %s" msg)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    Alcotest.test_case "migration: server moves, client unaffected" `Quick
      test_migrate_moves_server;
    Alcotest.test_case "migration: charges land on the target runtime" `Quick
      test_migrate_charges_target_runtime;
    Alcotest.test_case "checkpoint: restored runtime bumps its own cells" `Quick
      test_checkpoint_keeps_counter_cells;
    Alcotest.test_case "migration: same-tile destination refused" `Quick
      test_migrate_rejects_same_tile;
    Alcotest.test_case "migration: revisiting a tile clears stale forwards"
      `Quick test_migrate_revisits_tile;
    Alcotest.test_case "checkpoint: suspend/resume = uninterrupted" `Quick
      test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint: round trip commutes with --jobs 4" `Slow
      test_checkpoint_roundtrip_jobs;
    Alcotest.test_case "checkpoint: codec rejects bad files" `Quick
      test_checkpoint_codec_rejects;
  ]
  @ qsuite [ prop_migrate_exactly_once ]
