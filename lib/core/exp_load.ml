(* Internet-scale load harness: client fleets drive the net stack, m3fs
   and the key-value service concurrently, sweeping offered load and
   reporting latency-vs-load SLO curves with knee detection and
   bottleneck attribution.

   The fleet is cheap bookkeeping (see {!M3v_load.Fleet}): thousands to
   millions of simulated clients multiplex onto a handful of driver
   activities, one per driver, each with one outstanding request.  The
   key-value service takes the heavy fan-in over a single shared MPMC
   receive gate; fs and net clients use the services' ordinary
   point-to-point channels, so one run exercises both endpoint shapes.

   Each load step is an independent simulation (own [System]), so steps
   fan out over the pool and merge in submission order — [--jobs N]
   output is byte-identical to sequential.  Every step records into a
   trace sink of its own (a child of the [--trace] sink, if any) and
   feeds it to the critical-path profiler, whose per-segment means drive
   the bottleneck attribution. *)

open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module Time = M3v_sim.Time
module Msg = M3v_dtu.Msg
module Dtu = M3v_dtu.Dtu
module Platform = M3v_tile.Platform
module Controller = M3v_kernel.Controller
module A = M3v_mux.Act_api
module Par = M3v_par.Par
module Trace = M3v_obs.Trace
module Profile = M3v_obs.Profile
module Metrics = M3v_obs.Metrics
module Fleet = M3v_load.Fleet
module Slo = M3v_load.Slo
module Knee = M3v_load.Knee
module Kvserv = M3v_apps.Kvserv
module Fs_client = M3v_os.Fs_client
module Fs_proto = M3v_os.Fs_proto
module Net_client = M3v_os.Net_client
module Nic = M3v_os.Nic

type config = {
  clients : int;
  drivers : int;
  rate_per_s : float;  (** aggregate offered load at step fraction 1.0 *)
  closed : bool;
  think_ms : int;  (** closed-loop mean think time at fraction 1.0 *)
  arrivals : Fleet.arrivals;
  mix : (Fleet.kind * int) list;
  skew : float;
  keys : int;
  duration_ms : int;
  warmup_ms : int;
  fracs : float list;  (** load steps, as fractions of [rate_per_s] *)
  slo_p99_us : float;
  seed : int;
}

let default =
  {
    clients = 100_000;
    drivers = 8;
    rate_per_s = 2_000.0;
    closed = false;
    think_ms = 500;
    arrivals = Fleet.Poisson;
    mix = Fleet.default_mix;
    skew = 0.99;
    keys = 4_096;
    duration_ms = 200;
    warmup_ms = 30;
    fracs = [ 0.25; 0.5; 0.75; 1.0; 1.25; 1.5 ];
    slo_p99_us = 5_000.0;
    seed = 42;
  }

type step = {
  st_frac : float;
  st_offered : float;  (** measured offered rate, req/s *)
  st_scheduled : int;
  st_completed : int;  (** completions inside the measurement window *)
  st_errors : int;
  st_goodput : float;  (** in-window completions/s *)
  st_rows : Slo.row list;  (** per-class + "all", in-window samples *)
  st_p99_us : float;  (** overall p99 (the "all" row) *)
  st_segments : (string * float) list;  (** profiler mean ps per segment *)
  st_credit_stalls : int;
  st_sends : int;
}

type result = {
  r_cfg : config;
  r_steps : step list;
  r_verdict : Knee.verdict;
  r_attribution : string;
}

(* Tile layout: NIC/net on tile 1 (the spec's NIC tile), the key-value
   service on 2, m3fs on 3, drivers packed over 4-7. *)
let kv_tile = Exp_common.boom_tile_b
let fs_tile = Exp_common.boom_tile_c
let driver_tiles = [| 4; 5; 6; 7 |]
let kv_credits = 2
let max_drivers = 8 (* 2 credits each against the net service's 16 slots *)
let file_path = "/load.dat"
let file_len = 65_536
let chunk = 64
let udp_peer = (1, 7000)

let key_name k = Printf.sprintf "k%06d" k
let put_value k = Bytes.init 64 (fun j -> Char.chr ((k + j) land 0xff))

(* One load step: an independent simulation of the full fleet at
   [frac] times the configured load. *)
let run_step cfg ~frac =
  let warmup_ps = Time.ms cfg.warmup_ms in
  let duration_ps = Time.ms cfg.duration_ms in
  let fleet_cfg =
    {
      Fleet.clients = cfg.clients;
      drivers = cfg.drivers;
      rate_per_s = cfg.rate_per_s *. frac;
      loop =
        (if cfg.closed then
           (* A closed loop offers more load by thinking less. *)
           Fleet.Closed_loop
             {
               think_ps =
                 max 1 (int_of_float (float_of_int (Time.ms cfg.think_ms) /. frac));
             }
         else Fleet.Open_loop);
      arrivals = cfg.arrivals;
      mix = cfg.mix;
      skew = cfg.skew;
      keys = cfg.keys;
      warmup_ps;
      duration_ps;
      seed = cfg.seed;
    }
  in
  let nd = cfg.drivers in
  let samples = Array.make nd [] in
  let simulate () =
    let sys = System.create ~variant:System.M3v () in
    let ctrl = System.controller sys in
    let fs = Services.make_fs sys ~tile:fs_tile ~blocks:4096 () in
    let net =
      Services.make_net sys ~host:(Nic.Echo { turnaround = Time.us 40 }) ()
    in
    Services.preload_file sys fs ~path:file_path
      (Bytes.init file_len (fun i -> Char.chr (i land 0xff)));
    (* The key-value server: one activity, one shared MPMC receive gate
       provisioned for every driver's credits in flight. *)
    let kv_vfs = ref None and kv_rgate = ref (-1) in
    let kv_aid, kv_env =
      System.spawn sys ~tile:kv_tile ~name:"kvserv"
        (Kvserv.program ~vfs:kv_vfs ~rgate:kv_rgate ())
    in
    kv_vfs := Some (Fs_client.to_vfs (fs.Services.connect kv_aid kv_env));
    let kv_rsel =
      Controller.host_new_mpmc_rgate ctrl ~act:kv_aid
        ~slots:(kv_credits * nd) ~slot_size:512 ~ack_batch:4 ()
    in
    kv_rgate := Controller.host_activate ctrl ~act:kv_aid ~sel:kv_rsel ();
    for i = 0 to nd - 1 do
      let driver = Fleet.make_driver fleet_cfg i in
      let tile = driver_tiles.(i mod Array.length driver_tiles) in
      let fs_box = ref None and udp_box = ref None in
      let kv_sgate = ref (-1) and kv_reply = ref (-1) in
      let record s =
        samples.(i) <- s :: samples.(i);
        if Metrics.on () then begin
          let cat = Fleet.kind_name s.Fleet.s_kind in
          Metrics.counter_incr ~name:"load/requests" ~cat ();
          Metrics.observe ~name:"load/latency_us" ~cat
            (float_of_int (s.Fleet.s_done - s.Fleet.s_sched) /. 1e6)
        end
      in
      let aid, env =
        System.spawn sys ~tile ~name:(Printf.sprintf "driver%d" i) (fun _ ->
            let fsc = Option.get !fs_box in
            let udp = Option.get !udp_box in
            let* sock = udp.Net_client.u_socket () in
            let* () = udp.Net_client.u_bind sock (6000 + i) in
            let* fd = Fs_client.open_ fsc file_path Fs_proto.rdonly in
            let fd =
              match fd with
              | Ok fd -> fd
              | Error e -> failwith ("exp_load: open " ^ file_path ^ ": " ^ e)
            in
            let kv_call req =
              let* rep =
                A.call ~sgate:!kv_sgate ~reply_ep:!kv_reply
                  ~size:(Kvserv.req_size req) (Kvserv.Kv_req req)
              in
              Proc.return
                (match rep.Msg.data with
                | Kvserv.Kv_rep (Kvserv.Failed _) -> false
                | Kvserv.Kv_rep _ -> true
                | _ -> false)
            in
            let issue op =
              let key = op.Fleet.op_key in
              match op.Fleet.op_kind with
              | Fleet.Kv_get -> kv_call (Kvserv.Get (key_name key))
              | Fleet.Kv_put ->
                  kv_call (Kvserv.Put (key_name key, put_value key))
              | Fleet.Fs_read ->
                  let off = key mod (file_len / chunk) * chunk in
                  let* data = Fs_client.read_inline fsc ~fd ~off ~len:chunk in
                  Proc.return (Bytes.length data = chunk)
              | Fleet.Udp_echo ->
                  let* () =
                    udp.Net_client.u_sendto sock udp_peer
                      (Bytes.make 32 (Char.chr (0x20 + (key land 0x3f))))
                  in
                  let* _src, _data = udp.Net_client.u_recvfrom sock in
                  Proc.return true
            in
            Fleet.driver_program driver ~issue ~record ())
      in
      fs_box := Some (fs.Services.connect aid env);
      udp_box := Some (Net_client.to_udp (net.Services.net_connect aid env));
      let ssel =
        Controller.host_new_sgate ctrl ~owner:aid ~rgate_of:kv_aid
          ~rgate_sel:kv_rsel ~label:i ~credits:kv_credits ()
      in
      kv_sgate := Controller.host_activate ctrl ~act:aid ~sel:ssel ();
      let rsel = Controller.host_new_rgate ctrl ~act:aid ~slots:2 ~slot_size:512 in
      kv_reply := Controller.host_activate ctrl ~act:aid ~sel:rsel ()
    done;
    System.boot sys;
    ignore (System.run sys);
    let stalls, sends =
      List.fold_left
        (fun (st, sd) tile ->
          let s = Dtu.stats (Platform.dtu (System.platform sys) tile) in
          (st + s.Dtu.credit_stalls, sd + s.Dtu.sends))
        (0, 0)
        (Platform.processing_tiles (System.platform sys))
    in
    (stalls, sends)
  in
  let (stalls, sends), sink = Trace.scoped simulate in
  let segments = Profile.segment_means (Profile.analyze sink) in
  let all = List.concat_map List.rev (Array.to_list samples) in
  let window_end = warmup_ps + duration_ps in
  let window_s = float_of_int duration_ps /. 1e12 in
  let in_window =
    List.filter (fun s -> s.Fleet.s_ok && s.Fleet.s_done <= window_end) all
  in
  let lat_us s = float_of_int (s.Fleet.s_done - s.Fleet.s_sched) /. 1e6 in
  let rows =
    List.filter_map
      (fun kind ->
        Slo.row_of_latencies ~label:(Fleet.kind_name kind)
          (List.filter_map
             (fun s ->
               if s.Fleet.s_kind = kind then Some (lat_us s) else None)
             in_window))
      Fleet.all_kinds
    @ Option.to_list
        (Slo.row_of_latencies ~label:"all" (List.map lat_us in_window))
  in
  let p99 =
    match List.rev rows with r :: _ when r.Slo.label = "all" -> r.Slo.p99_us | _ -> 0.0
  in
  let scheduled = List.length all in
  let completed = List.length in_window in
  {
    st_frac = frac;
    st_offered = float_of_int scheduled /. window_s;
    st_scheduled = scheduled;
    st_completed = completed;
    st_errors = List.length (List.filter (fun s -> not s.Fleet.s_ok) all);
    st_goodput = float_of_int completed /. window_s;
    st_rows = rows;
    st_p99_us = p99;
    st_segments = segments;
    st_credit_stalls = stalls;
    st_sends = sends;
  }

(* Which resource the knee step's latency lives in, from the profiler's
   mean critical-path segments: sender command time (dominated by credit
   stalls under backpressure), mux scheduling (sched_wait + activity
   switches), or the server side (service + receive-buffer wait). *)
let attribution ~segments ~credit_stalls =
  let get n = Option.value ~default:0.0 (List.assoc_opt n segments) in
  let credit = get "sender_cmd" in
  let sched = get "sched_wait" +. get "ctx_switch" in
  let server = get "server" +. get "buffer_wait" in
  let total = credit +. sched +. server in
  if total <= 0.0 then "n/a (no complete flows)"
  else
    let name, v =
      if server >= credit && server >= sched then
        ("server service time", server)
      else if sched >= credit then ("TileMux sched_wait", sched)
      else ("credit stalls", credit)
    in
    Printf.sprintf
      "%s (%.0f%% of the attributable critical path; %d credit-stalled sends)"
      name
      (100.0 *. v /. total)
      credit_stalls

let validate cfg =
  let fail fmt = Printf.ksprintf Result.error fmt in
  if cfg.clients <= 0 then fail "clients must be positive (got %d)" cfg.clients
  else if cfg.drivers < 1 || cfg.drivers > max_drivers then
    fail "drivers must be in [1, %d] (got %d)" max_drivers cfg.drivers
  else if cfg.drivers > cfg.clients then
    fail "drivers (%d) must not exceed clients (%d)" cfg.drivers cfg.clients
  else if cfg.keys <= 0 then fail "keys must be positive (got %d)" cfg.keys
  else if cfg.duration_ms <= 0 then
    fail "duration must be positive (got %d ms)" cfg.duration_ms
  else if not (cfg.skew >= 0.0 && cfg.skew < 1.0) then
    fail "skew must be in [0, 1) (got %g)" cfg.skew
  else if not (cfg.rate_per_s > 0.0) then
    fail "rate must be positive (got %g)" cfg.rate_per_s
  else if cfg.fracs = [] then fail "no load steps"
  else
    match List.find_opt (fun f -> not (f > 0.0)) cfg.fracs with
    | Some f -> fail "load steps must be positive (got %g)" f
    | None -> Ok ()

(* The step a report attributes, with its index: the knee, or without a
   knee the heaviest step. *)
let attributed_step verdict steps =
  let i =
    match verdict.Knee.knee with Some i -> i | None -> List.length steps - 1
  in
  (i, List.nth steps i)

let run ?(pool = Par.Pool.sequential) ?(cfg = default) () =
  Result.iter_error (fun msg -> invalid_arg ("exp_load: " ^ msg)) (validate cfg);
  let steps = Par.map pool (fun frac -> run_step cfg ~frac) cfg.fracs in
  let verdict =
    Knee.detect ~slo_p99_us:cfg.slo_p99_us
      (List.map
         (fun s ->
           {
             Knee.k_offered = s.st_offered;
             k_goodput = s.st_goodput;
             k_p99_us = s.st_p99_us;
           })
         steps)
  in
  let _, at = attributed_step verdict steps in
  {
    r_cfg = cfg;
    r_steps = steps;
    r_verdict = verdict;
    r_attribution =
      attribution ~segments:at.st_segments ~credit_stalls:at.st_credit_stalls;
  }

let pp fmt r =
  let cfg = r.r_cfg in
  Format.fprintf fmt
    "@.== Load harness: %s %s, %d clients / %d drivers, mix %s, skew %.2f ==@."
    (if cfg.closed then "closed-loop" else "open-loop")
    (match cfg.arrivals with Fleet.Poisson -> "poisson" | Fleet.Bursty -> "bursty")
    cfg.clients cfg.drivers
    (Fleet.mix_to_string cfg.mix)
    cfg.skew;
  Format.fprintf fmt
    "   window %d ms (+%d ms warmup), %d keys, seed %d, SLO p99 <= %.0f us@."
    cfg.duration_ms cfg.warmup_ms cfg.keys cfg.seed cfg.slo_p99_us;
  Format.fprintf fmt "  %4s %12s %7s %7s %5s %13s %10s@." "step"
    "offered(r/s)" "sched" "done" "err" "goodput(r/s)" "p99(us)";
  List.iteri
    (fun i s ->
      Format.fprintf fmt "  %4d %12.0f %7d %7d %5d %13.0f %10.1f%s@." i
        s.st_offered s.st_scheduled s.st_completed s.st_errors s.st_goodput
        s.st_p99_us
        (if r.r_verdict.Knee.knee = Some i then "  <- knee" else ""))
    r.r_steps;
  (match r.r_verdict.Knee.knee with
  | Some i ->
      Format.fprintf fmt "  knee: step %d (offered %.0f req/s): %s@." i
        (List.nth r.r_steps i).st_offered r.r_verdict.Knee.reason
  | None -> Format.fprintf fmt "  knee: %s@." r.r_verdict.Knee.reason);
  let i, at = attributed_step r.r_verdict r.r_steps in
  Format.fprintf fmt "@.  SLO table at step %d:@." i;
  Slo.pp_table fmt at.st_rows;
  Format.fprintf fmt "  bottleneck: %s@." r.r_attribution

let print r = pp Format.std_formatter r
