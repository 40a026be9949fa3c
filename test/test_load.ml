(* Load-harness tests: sampler determinism and shape (chi-square), fleet
   schedule invariants, knee detection over synthetic sweeps, the
   [A.sleep] primitive, and end-to-end [Exp_load] determinism across
   [--jobs] settings and with a trace sink installed. *)

open M3v_sim
module Sampler = M3v_load.Sampler
module Fleet = M3v_load.Fleet
module Knee = M3v_load.Knee
module Slo = M3v_load.Slo
module Par = M3v_par.Par
module A = M3v_mux.Act_api
module System = M3v.System

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- samplers: equal seeds give byte-identical streams --- *)

let zipf_stream ~seed ~n ~theta k =
  let rng = Rng.create ~seed in
  let z = Sampler.Zipf.create ~theta ~n rng in
  List.init k (fun _ -> Sampler.Zipf.sample z)

let poisson_stream ~seed ~rate k =
  let rng = Rng.create ~seed in
  let p = Sampler.Poisson.create ~rate_per_s:rate ~start_ps:0 rng in
  List.init k (fun _ -> Sampler.Poisson.next p)

let prop_equal_seed_streams =
  QCheck.Test.make ~name:"equal seeds give byte-identical sampler streams"
    ~count:50
    QCheck.(small_nat)
    (fun seed ->
      zipf_stream ~seed ~n:128 ~theta:0.99 200
      = zipf_stream ~seed ~n:128 ~theta:0.99 200
      && poisson_stream ~seed ~rate:1.0e5 200
         = poisson_stream ~seed ~rate:1.0e5 200)

(* The determinism bar of the load harness: a sampler stream computed on
   a worker domain ([--jobs 4]) is byte-identical to the sequential one. *)
let test_streams_identical_under_jobs () =
  let job seed () = zipf_stream ~seed ~n:512 ~theta:0.9 1_000 in
  let seeds = List.init 8 (fun i -> 17 * (i + 1)) in
  let seq = List.map (fun s -> job s ()) seeds in
  let par =
    Par.Pool.with_pool ~jobs:4 (fun pool -> Par.map pool (fun s -> job s ()) seeds)
  in
  check_bool "jobs=4 streams equal sequential" true (seq = par)

(* --- Zipf shape: chi-square against the analytic pmf --- *)

let test_zipf_chi_square () =
  let n = 64 and theta = 0.99 and draws = 50_000 in
  let rng = Rng.create ~seed:4242 in
  let z = Sampler.Zipf.create ~theta ~n rng in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let k = Sampler.Zipf.sample z in
    counts.(k) <- counts.(k) + 1
  done;
  (* Expected cell counts from p_i = (1/(i+1)^theta) / H_n(theta). *)
  let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) theta) in
  let h = Array.fold_left ( +. ) 0.0 w in
  let chi2 = ref 0.0 in
  for i = 0 to n - 1 do
    let expected = float_of_int draws *. w.(i) /. h in
    let d = float_of_int counts.(i) -. expected in
    chi2 := !chi2 +. (d *. d /. expected)
  done;
  (* Gray's quick sampler is an approximation, so it fails a strict
     chi-square test (the 99.9th percentile of chi2(63) is ~103) by a
     small constant factor.  A broken sampler (uniform, off-by-one rank,
     wrong exponent) lands in the thousands, so a loose bound still
     catches shape bugs. *)
  check_bool
    (Printf.sprintf "chi-square %.1f within bound" !chi2)
    true (!chi2 < 400.0);
  (* Head monotonicity: rank 0 must dominate the mid-rank key. *)
  check_bool "rank 0 beats mid rank" true (counts.(0) > counts.(n / 2))

let test_zipf_validation () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "theta >= 1 rejected"
    (Invalid_argument "Zipf.create: theta must be in [0, 1)")
    (fun () -> ignore (Sampler.Zipf.create ~theta:1.0 ~n:8 rng))

(* --- mix: draw discipline and proportions --- *)

let test_mix_proportions () =
  let rng = Rng.create ~seed:99 in
  let m = Sampler.Mix.create [ ("a", 1); ("b", 3) ] rng in
  let draws = 40_000 in
  let b = ref 0 in
  for _ = 1 to draws do
    if Sampler.Mix.sample m = "b" then incr b
  done;
  let frac = float_of_int !b /. float_of_int draws in
  check_bool
    (Printf.sprintf "b fraction %.3f near 0.75" frac)
    true
    (Float.abs (frac -. 0.75) < 0.02)

let test_mix_validation () =
  let rng = Rng.create ~seed:1 in
  check_bool "empty rejected" true
    (try
       ignore (Sampler.Mix.create [] rng);
       false
     with Invalid_argument _ -> true);
  check_bool "zero sum rejected" true
    (try
       ignore (Sampler.Mix.create [ ("a", 0) ] rng);
       false
     with Invalid_argument _ -> true)

(* --- arrival processes --- *)

let test_poisson_gaps () =
  let rate = 1.0e6 in
  let ts = poisson_stream ~seed:7 ~rate 20_000 in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  check_bool "strictly increasing" true (strictly_increasing ts);
  let last = List.nth ts (List.length ts - 1) in
  let mean_gap = float_of_int last /. float_of_int (List.length ts) in
  (* Nominal mean gap at 1e6 req/s is 1e6 ps. *)
  check_bool
    (Printf.sprintf "mean gap %.0f ps near 1e6" mean_gap)
    true
    (Float.abs (mean_gap -. 1.0e6) /. 1.0e6 < 0.05)

let test_mmpp_rate_and_validation () =
  let rng = Rng.create ~seed:11 in
  let m = Sampler.Mmpp.create ~rate_per_s:1.0e5 ~start_ps:0 rng in
  let k = 200_000 in
  let last = ref 0 in
  let ok = ref true in
  for _ = 1 to k do
    let t = Sampler.Mmpp.next m in
    if t <= !last then ok := false;
    last := t
  done;
  check_bool "strictly increasing" true !ok;
  (* 2 s of simulated arrivals averages over ~80 state dwells, which
     still leaves visible modulation variance; the long-run rate must
     stay within a generous band of the nominal one (a wrong calm/burst
     rate split is off by 2x or more). *)
  let rate = float_of_int k /. (float_of_int !last /. 1.0e12) in
  check_bool
    (Printf.sprintf "long-run rate %.0f near 1e5" rate)
    true
    (Float.abs (rate -. 1.0e5) /. 1.0e5 < 0.25);
  check_bool "burst too high rejected" true
    (try
       ignore (Sampler.Mmpp.create ~burst:6.0 ~rate_per_s:1.0 ~start_ps:0 rng);
       false
     with Invalid_argument _ -> true);
  check_bool "burst <= 1 rejected" true
    (try
       ignore (Sampler.Mmpp.create ~burst:0.5 ~rate_per_s:1.0 ~start_ps:0 rng);
       false
     with Invalid_argument _ -> true)

(* --- fleet: mix parsing --- *)

let test_parse_mix () =
  (match Fleet.parse_mix (Fleet.mix_to_string Fleet.default_mix) with
  | Ok m -> check_bool "round-trips" true (m = Fleet.default_mix)
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  let is_err = function Error _ -> true | Ok _ -> false in
  check_bool "unknown class" true (is_err (Fleet.parse_mix "bogus=1"));
  check_bool "bad weight" true (is_err (Fleet.parse_mix "get=x"));
  check_bool "bad entry" true (is_err (Fleet.parse_mix "get"));
  check_bool "zero sum" true (is_err (Fleet.parse_mix "get=0,put=0"))

(* --- fleet: schedule invariants --- *)

let fleet_cfg ~loop =
  {
    Fleet.clients = 100;
    drivers = 3;
    rate_per_s = 5_000.0;
    loop;
    arrivals = Fleet.Poisson;
    mix = Fleet.default_mix;
    skew = 0.99;
    keys = 256;
    warmup_ps = 1_000_000_000 (* 1 ms *);
    duration_ps = 10_000_000_000 (* 10 ms *);
    seed = 7;
  }

let drain d =
  let rec go acc =
    match Fleet.next d with None -> List.rev acc | Some x -> go (x :: acc)
  in
  go []

let test_open_schedule_invariants () =
  let cfg = fleet_cfg ~loop:Fleet.Open_loop in
  let total = ref 0 in
  let scheduled = ref 0 in
  for i = 0 to cfg.Fleet.drivers - 1 do
    let d = Fleet.make_driver cfg i in
    total := !total + Fleet.driver_clients d;
    let ops = drain d in
    scheduled := !scheduled + List.length ops;
    let base =
      List.fold_left (fun m (_, op) -> min m op.Fleet.op_client) max_int ops
    in
    List.iter
      (fun (ts, op) ->
        check_bool "ts after warmup" true (ts > cfg.Fleet.warmup_ps);
        check_bool "ts within window" true
          (ts <= cfg.Fleet.warmup_ps + cfg.Fleet.duration_ps);
        check_bool "client in slice" true
          (op.Fleet.op_client >= base
          && op.Fleet.op_client < base + Fleet.driver_clients d);
        check_bool "key in range" true
          (op.Fleet.op_key >= 0 && op.Fleet.op_key < cfg.Fleet.keys))
      ops;
    let rec monotone = function
      | (a, _) :: ((b, _) :: _ as rest) -> a <= b && monotone rest
      | _ -> true
    in
    check_bool "timestamps monotone" true (monotone ops);
    check_bool "exhausted stays exhausted" true (Fleet.next d = None)
  done;
  check_int "client slices partition the fleet" cfg.Fleet.clients !total;
  (* ~5000 req/s over 10 ms is ~50 arrivals; Poisson noise stays well
     inside [20, 100]. *)
  check_bool
    (Printf.sprintf "plausible arrival count %d" !scheduled)
    true
    (!scheduled > 20 && !scheduled < 100)

let test_closed_schedule_rearms () =
  let think_ps = 1_000_000_000 in
  let cfg = fleet_cfg ~loop:(Fleet.Closed_loop { think_ps }) in
  let d = Fleet.make_driver cfg 0 in
  let n = Fleet.driver_clients d in
  (* Without completions every client fires exactly once (its staggered
     initial wake). *)
  let first = drain d in
  check_int "one initial wake per client" n (List.length first);
  let clients =
    List.sort_uniq Stdlib.compare (List.map (fun (_, op) -> op.Fleet.op_client) first)
  in
  check_int "all clients distinct" n (List.length clients);
  (* A completion re-arms that client after its think time. *)
  let c = List.hd clients in
  Fleet.complete d ~client:c ~done_ps:(cfg.Fleet.warmup_ps + think_ps);
  (match Fleet.next d with
  | Some (_, op) -> check_int "re-armed client fires again" c op.Fleet.op_client
  | None -> Alcotest.fail "completion did not re-arm the client")

let test_equal_seed_schedules () =
  let cfg = fleet_cfg ~loop:Fleet.Open_loop in
  let s1 = drain (Fleet.make_driver cfg 1) in
  let s2 = drain (Fleet.make_driver cfg 1) in
  check_bool "equal-seed schedules identical" true (s1 = s2)

(* --- knee detection over synthetic sweeps --- *)

let step k_offered k_goodput k_p99_us = { Knee.k_offered; k_goodput; k_p99_us }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_knee_empty () =
  let v = Knee.detect [] in
  check_bool "no knee" true (v.Knee.knee = None)

let test_knee_flat () =
  (* Goodput tracks offered load, p99 flat: never saturates. *)
  let steps =
    List.map (fun f -> step (1000.0 *. f) (990.0 *. f) 120.0) [ 0.5; 1.0; 1.5; 2.0 ]
  in
  let v = Knee.detect ~slo_p99_us:5000.0 steps in
  check_bool "no knee" true (v.Knee.knee = None);
  check_string "reason" "no knee within the sweep" v.Knee.reason

let test_knee_cliff () =
  (* p99 explodes past the SLO at step 2. *)
  let steps =
    [
      step 500.0 495.0 100.0;
      step 1000.0 990.0 150.0;
      step 1500.0 1100.0 9_000.0;
      step 2000.0 1100.0 50_000.0;
    ]
  in
  let v = Knee.detect ~slo_p99_us:5000.0 steps in
  check_bool "knee at the cliff" true (v.Knee.knee = Some 2);
  check_bool "reason cites the SLO" true (contains ~sub:"SLO" v.Knee.reason)

let test_knee_gradual () =
  (* p99 stays under the SLO but marginal goodput collapses at step 2. *)
  let steps =
    [ step 500.0 495.0 100.0; step 1000.0 990.0 200.0; step 1500.0 1090.0 900.0 ]
  in
  let v = Knee.detect ~slo_p99_us:5000.0 steps in
  check_bool "knee where goodput stops scaling" true (v.Knee.knee = Some 2);
  check_bool "reason cites efficiency" true
    (contains ~sub:"goodput" v.Knee.reason)

let test_knee_all_saturated () =
  let steps = [ step 500.0 100.0 90_000.0; step 1000.0 100.0 95_000.0 ] in
  let v = Knee.detect ~slo_p99_us:5000.0 steps in
  check_bool "knees at step 0" true (v.Knee.knee = Some 0)

let test_knee_slo_disabled () =
  (* Default SLO is infinity: only the efficiency criterion can fire. *)
  let steps = [ step 500.0 495.0 90_000.0; step 1000.0 990.0 95_000.0 ] in
  let v = Knee.detect steps in
  check_bool "no knee with SLO disabled" true (v.Knee.knee = None)

(* --- SLO rows --- *)

let test_slo_row () =
  check_bool "empty sample has no row" true
    (Slo.row_of_latencies ~label:"x" [] = None);
  let lats = List.init 1000 (fun i -> float_of_int (i + 1)) in
  match Slo.row_of_latencies ~label:"x" lats with
  | None -> Alcotest.fail "row expected"
  | Some r ->
      check_int "n" 1000 r.Slo.n;
      check_bool "p50 near middle" true (Float.abs (r.Slo.p50_us -. 500.0) <= 1.0);
      check_bool "p99 near tail" true (Float.abs (r.Slo.p99_us -. 990.0) <= 1.0);
      check_bool "max is max" true (r.Slo.max_us = 1000.0)

(* --- the sleep primitive --- *)

let test_sleep_wakes_on_time () =
  let sys = System.create ~variant:System.M3v () in
  let elapsed = ref Time.zero in
  let open M3v_sim.Proc.Syntax in
  let _aid, _ =
    System.spawn sys ~tile:1 ~name:"sleeper" (fun _env ->
        let* t0 = A.now in
        let* () = A.sleep (Time.us 50) in
        let* t1 = A.now in
        elapsed := Time.sub t1 t0;
        Proc.return ())
  in
  System.boot sys;
  ignore (System.run sys);
  check_bool "slept at least the delay" true (!elapsed >= Time.us 50);
  (* The wake costs a trap and a dispatch, not another scheduling
     quantum (the TileMux time slice is in the milliseconds). *)
  check_bool
    (Printf.sprintf "woke promptly (%.1f us)" (Time.to_us !elapsed))
    true
    (!elapsed < Time.us 150)

let test_sleep_shares_the_core () =
  (* While one activity sleeps, a sibling on the same tile keeps
     computing: the sleeper must not pin the core. *)
  let sys = System.create ~variant:System.M3v () in
  let worker_done = ref Time.zero and sleeper_done = ref Time.zero in
  let open M3v_sim.Proc.Syntax in
  let _ =
    System.spawn sys ~tile:1 ~name:"sleeper" (fun _env ->
        let* () = A.sleep (Time.ms 2) in
        let* t = A.now in
        sleeper_done := t;
        Proc.return ())
  in
  let _ =
    System.spawn sys ~tile:1 ~name:"worker" (fun _env ->
        (* 80 MHz core: 80_000 cycles = 1 ms of compute. *)
        let* () = A.compute 80_000 in
        let* t = A.now in
        worker_done := t;
        Proc.return ())
  in
  System.boot sys;
  ignore (System.run sys);
  check_bool "worker finished during the sleep" true
    (!worker_done < !sleeper_done)

(* --- end-to-end: tiny sweep, byte-identical across jobs --- *)

let tiny_cfg =
  {
    M3v.Exp_load.default with
    clients = 120;
    drivers = 2;
    rate_per_s = 400.0;
    warmup_ms = 10;
    duration_ms = 40;
    fracs = [ 0.5; 1.0 ];
  }

let render cfg pool =
  Format.asprintf "%a" M3v.Exp_load.pp (M3v.Exp_load.run ~pool ~cfg ())

let test_exp_load_end_to_end () =
  let r = M3v.Exp_load.run ~cfg:tiny_cfg () in
  check_int "one step per fraction" 2 (List.length r.M3v.Exp_load.r_steps);
  List.iter
    (fun st ->
      check_bool "requests completed" true (st.M3v.Exp_load.st_completed > 0);
      check_int "no errors" 0 st.M3v.Exp_load.st_errors;
      let labels = List.map (fun r -> r.Slo.label) st.M3v.Exp_load.st_rows in
      check_bool "has an all row" true (List.mem "all" labels))
    r.M3v.Exp_load.r_steps;
  check_bool "attribution present" true
    (String.length r.M3v.Exp_load.r_attribution > 0)

let test_exp_load_jobs_deterministic () =
  let seq = render tiny_cfg Par.Pool.sequential in
  let par = Par.Pool.with_pool ~jobs:4 (fun pool -> render tiny_cfg pool) in
  check_string "jobs=4 report byte-identical to sequential" seq par

(* Each step profiles a sink of its own, so an installed trace sink
   leaves the bottleneck attribution as it is. *)
let test_exp_load_attribution_traced () =
  let attribution () =
    (M3v.Exp_load.run ~cfg:tiny_cfg ()).M3v.Exp_load.r_attribution
  in
  let plain = attribution () in
  let sink = M3v_obs.Trace.make () in
  let traced = M3v_obs.Trace.with_sink sink attribution in
  check_bool "attribution is not n/a" false
    (String.starts_with ~prefix:"n/a" plain);
  check_string "a trace sink leaves the attribution as it is" plain traced;
  check_bool "the steps' events reach the installed sink" true
    (M3v_obs.Trace.event_count sink > 0)

let test_exp_load_validate () =
  let module L = M3v.Exp_load in
  let ok cfg = Result.is_ok (L.validate cfg) in
  check_bool "default accepted" true (ok L.default);
  List.iter
    (fun (what, cfg) -> check_bool (what ^ " rejected") false (ok cfg))
    [
      ("drivers 9", { L.default with drivers = 9 });
      ("drivers 0", { L.default with drivers = 0 });
      ("drivers > clients", { L.default with clients = 3 });
      ("clients 0", { L.default with clients = 0 });
      ("keys 0", { L.default with keys = 0 });
      ("duration 0", { L.default with duration_ms = 0 });
      ("skew 1.5", { L.default with skew = 1.5 });
      ("skew -0.1", { L.default with skew = -0.1 });
      ("rate 0", { L.default with rate_per_s = 0.0 });
      ("no steps", { L.default with fracs = [] });
      ("step 0", { L.default with fracs = [ 0.5; 0.0 ] });
    ];
  Alcotest.check_raises "run raises the validate message"
    (Invalid_argument "exp_load: keys must be positive (got 0)") (fun () ->
      ignore (L.run ~cfg:{ L.default with keys = 0 } ()))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_equal_seed_streams;
    Alcotest.test_case "streams identical under jobs=4" `Quick
      test_streams_identical_under_jobs;
    Alcotest.test_case "zipf chi-square shape" `Quick test_zipf_chi_square;
    Alcotest.test_case "zipf validation" `Quick test_zipf_validation;
    Alcotest.test_case "mix proportions" `Quick test_mix_proportions;
    Alcotest.test_case "mix validation" `Quick test_mix_validation;
    Alcotest.test_case "poisson gaps" `Quick test_poisson_gaps;
    Alcotest.test_case "mmpp rate and validation" `Quick
      test_mmpp_rate_and_validation;
    Alcotest.test_case "parse_mix" `Quick test_parse_mix;
    Alcotest.test_case "open-loop schedule invariants" `Quick
      test_open_schedule_invariants;
    Alcotest.test_case "closed-loop schedule re-arms" `Quick
      test_closed_schedule_rearms;
    Alcotest.test_case "equal-seed schedules identical" `Quick
      test_equal_seed_schedules;
    Alcotest.test_case "knee: empty sweep" `Quick test_knee_empty;
    Alcotest.test_case "knee: flat sweep" `Quick test_knee_flat;
    Alcotest.test_case "knee: cliff" `Quick test_knee_cliff;
    Alcotest.test_case "knee: gradual saturation" `Quick test_knee_gradual;
    Alcotest.test_case "knee: all saturated" `Quick test_knee_all_saturated;
    Alcotest.test_case "knee: slo disabled" `Quick test_knee_slo_disabled;
    Alcotest.test_case "slo rows" `Quick test_slo_row;
    Alcotest.test_case "sleep wakes on time" `Quick test_sleep_wakes_on_time;
    Alcotest.test_case "sleep shares the core" `Quick
      test_sleep_shares_the_core;
    Alcotest.test_case "exp_load end to end" `Quick test_exp_load_end_to_end;
    Alcotest.test_case "exp_load jobs determinism" `Quick
      test_exp_load_jobs_deterministic;
    Alcotest.test_case "exp_load validate" `Quick test_exp_load_validate;
    Alcotest.test_case "exp_load attribution under a trace sink" `Quick
      test_exp_load_attribution_traced;
  ]
