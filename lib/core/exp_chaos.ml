(* Chaos soak (robustness): drive an fs streaming workload and a kv-style
   inline-RPC workload through m3fs while a deterministic fault plan
   drops/duplicates/delays NoC packets, glitches DTU commands and
   crashes/hangs activities — and check that the recovery machinery (DTU
   retransmit, TileMux watchdog, controller restarts, client RPC
   deadlines) carries both workloads to completion with intact data. *)

open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module Time = M3v_sim.Time
module Engine = M3v_sim.Engine
module A = M3v_mux.Act_api
module Fs_client = M3v_os.Fs_client
module Fs_proto = M3v_os.Fs_proto
module Fault = M3v_fault.Fault
module Controller = M3v_kernel.Controller
module Platform = M3v_tile.Platform
module Dtu = M3v_dtu.Dtu
module Msg = M3v_dtu.Msg
module Checkpoint = M3v_sim.Checkpoint

type result = {
  spec : Fault.spec;
  seed : int;
  fs_done : bool;  (** the fs client ran all its rounds to the end *)
  kv_done : bool;  (** the kv client ran all its ops to the end *)
  fs_rounds : int;  (** rounds fully completed (restarts repeat rounds) *)
  data_ok : bool;  (** every completed read round returned intact bytes *)
  kv_ok : int;
  kv_errors : int;  (** ops that surfaced [R_err] (e.g. EIO) *)
  fault_stats : Fault.stats;
  dtu_retries : int;
  dtu_timeouts : int;
  dtu_dup_drops : int;
  crashes : int;
  restarts : int;
  credits_reclaimed : int;
  end_time : Time.t;
}

let default_spec =
  {
    Fault.none with
    Fault.drop = 0.01;
    dup = 0.005;
    delay = 0.01;
    cmd_fail = 0.005;
    crash = 2;
    hang = 1;
  }

let file_size = 64 * 1024
let buffer_size = 4096
let write_chunks = 4
let kv_keys = 32
let kv_vsize = 64

(* Stream /chaos.bin end to end, then write a few buffers to /out.bin.
   Faulted RPCs surface as [Error]/short transfers; the round is then not
   counted and the next one starts over. *)
let fs_program ~client_box ~rounds ~completed ~data_ok ~finished _env =
  let client = Option.get !client_box in
  let vfs = Fs_client.to_vfs client in
  let* buf = A.alloc_buf buffer_size in
  let read_round () =
    let* fd = vfs.M3v_os.Vfs.open_ "/chaos.bin" Fs_proto.rdonly in
    match fd with
    | Error _ -> Proc.return false
    | Ok fd ->
        let total = ref 0 in
        let clean = ref true in
        let rec drain () =
          let* n = vfs.M3v_os.Vfs.read fd buf buffer_size in
          if n = 0 then Proc.return ()
          else begin
            for i = 0 to n - 1 do
              if Bytes.get buf.M3v_mux.Act_ops.data i <> 'p' then clean := false
            done;
            total := !total + n;
            drain ()
          end
        in
        let* () = drain () in
        let* () = vfs.M3v_os.Vfs.close fd in
        Proc.return (!total = file_size && !clean)
  in
  let write_round () =
    let* fd = vfs.M3v_os.Vfs.open_ "/out.bin" Fs_proto.wronly in
    match fd with
    | Error _ -> Proc.return false
    | Ok fd ->
        Bytes.fill buf.M3v_mux.Act_ops.data 0 buffer_size 'w';
        let written = ref 0 in
        let* () =
          Proc.repeat write_chunks (fun _ ->
              let* n = vfs.M3v_os.Vfs.write fd buf buffer_size in
              written := !written + n;
              Proc.return ())
        in
        let* () = vfs.M3v_os.Vfs.close fd in
        Proc.return (!written = write_chunks * buffer_size)
  in
  let* () =
    Proc.repeat rounds (fun _ ->
        let* r_ok = read_round () in
        let* w_ok = write_round () in
        if r_ok && w_ok then incr completed;
        if not r_ok then data_ok := false;
        Proc.return ())
  in
  finished := true;
  Proc.return ()

(* Keyed puts and gets over m3fs inline RPCs; every reply is checked.
   [R_err] replies (bounded-retry exhaustion while the server is down)
   are counted, not fatal. *)
let kv_program ~client_box ~ops ~ok ~errors ~finished _env =
  let client = Option.get !client_box in
  let kv_flags =
    (* writable, but neither create nor truncate: the store is preloaded *)
    { Fs_proto.fl_write = true; fl_create = false; fl_trunc = false }
  in
  let* fd = Fs_client.rpc client (Fs_proto.Open { path = "/kv.bin"; flags = kv_flags }) in
  match fd with
  | Fs_proto.R_fd fd ->
      let value key = Bytes.make kv_vsize (Char.chr (Char.code 'a' + (key mod 26))) in
      let* () =
        Proc.repeat ops (fun i ->
            (* Op pairs: put key, then get it back and compare. *)
            let key = i / 2 mod kv_keys in
            let off = key * kv_vsize in
            if i mod 2 = 0 then
              let* rep =
                Fs_client.rpc client
                  (Fs_proto.Write_inline { fd; off; data = value key })
              in
              match rep with
              | Fs_proto.R_ok -> incr ok; Proc.return ()
              | _ -> incr errors; Proc.return ()
            else
              let* rep =
                Fs_client.rpc client
                  (Fs_proto.Read_inline { fd; off; len = kv_vsize })
              in
              match rep with
              | Fs_proto.R_data data when Bytes.equal data (value key) ->
                  incr ok; Proc.return ()
              | _ -> incr errors; Proc.return ())
      in
      let* _ = Fs_client.rpc client (Fs_proto.Close { fd; size = kv_keys * kv_vsize }) in
      finished := true;
      Proc.return ()
  | _ ->
      (* Could not even open the store: give up (counts as not done). *)
      Proc.return ()

(* The full simulation state of one soak, as a checkpointable root.  The
   engine's event heap holds closures over every component, so marshalling
   this record (with closures) captures the entire simulator; the extra
   fields carry what [collect] needs plus the domain-local values Marshal
   cannot see (the fault plan is reinstalled and the message uid counter
   reset on restore). *)
type state = {
  ck_sys : System.t;
  ck_plan : Fault.t;
  ck_spec : Fault.spec;
  ck_seed : int;
  ck_completed : int ref;
  ck_data_ok : bool ref;
  ck_fs_finished : bool ref;
  ck_kv_ok : int ref;
  ck_kv_errors : int ref;
  ck_kv_finished : bool ref;
  ck_until : Time.t;  (** soak horizon (simulated) *)
  ck_every : Time.t;  (** checkpoint interval; [zero] disables *)
  ck_file : string;
  mutable ck_slice : int;  (** next slice index (slice ends at index*every) *)
  mutable ck_msg_uid : int;  (** {!Msg.uid_counter} at save time *)
}

let horizon = Time.s 2

(* Build and boot the whole system; the caller must have the plan
   installed (programs and recovery machinery consult it domain-locally
   while the simulation runs). *)
let setup ~plan ~spec ~seed ~fs_rounds ~kv_ops ~every ~file () =
  let sys = System.create ~variant:System.M3v () in
  let ctrl = System.controller sys in
  let pager = System.with_pager sys ~tile:Exp_common.boom_tile_d in
  (* The pager is a single point of failure for every demand-paged
     activity; a real deployment would run it redundantly. *)
  Fault.protect plan ~act:pager;
  let fs = Services.make_fs sys ~tile:Exp_common.boom_tile_c ~blocks:4096 () in
  Controller.set_restartable ctrl ~act:fs.Services.fs_aid ~max_restarts:16;
  Services.preload_file sys fs ~path:"/chaos.bin" (Bytes.make file_size 'p');
  Services.preload_file sys fs ~path:"/kv.bin"
    (Bytes.make (kv_keys * kv_vsize) 'a');
  let completed = ref 0 and data_ok = ref true and fs_finished = ref false in
  let kv_ok = ref 0 and kv_errors = ref 0 and kv_finished = ref false in
  let fs_box = ref None and kv_box = ref None in
  let fs_aid, fs_env =
    System.spawn sys ~tile:Exp_common.boom_tile_a ~name:"chaos-fs"
      (fs_program ~client_box:fs_box ~rounds:fs_rounds ~completed ~data_ok
         ~finished:fs_finished)
  in
  let kv_aid, kv_env =
    System.spawn sys ~tile:Exp_common.boom_tile_b ~name:"chaos-kv"
      (kv_program ~client_box:kv_box ~ops:kv_ops ~ok:kv_ok ~errors:kv_errors
         ~finished:kv_finished)
  in
  Controller.set_restartable ctrl ~act:fs_aid ~max_restarts:8;
  Controller.set_restartable ctrl ~act:kv_aid ~max_restarts:8;
  fs_box := Some (fs.Services.connect fs_aid fs_env);
  kv_box := Some (fs.Services.connect kv_aid kv_env);
  System.boot sys;
  {
    ck_sys = sys;
    ck_plan = plan;
    ck_spec = spec;
    ck_seed = seed;
    ck_completed = completed;
    ck_data_ok = data_ok;
    ck_fs_finished = fs_finished;
    ck_kv_ok = kv_ok;
    ck_kv_errors = kv_errors;
    ck_kv_finished = kv_finished;
    ck_until = horizon;
    ck_every = every;
    ck_file = file;
    ck_slice = 1;
    ck_msg_uid = 0;
  }

let collect st =
  let sys = st.ck_sys in
  let platform = System.platform sys in
  let tiles =
    Platform.processing_tiles platform @ [ Platform.controller_tile platform ]
  in
  let retries, timeouts, dup_drops =
    List.fold_left
      (fun (r, t, d) tile ->
        let s = Dtu.stats (Platform.dtu platform tile) in
        (r + s.Dtu.retries, t + s.Dtu.timeouts, d + s.Dtu.dup_drops))
      (0, 0, 0) tiles
  in
  let cstats = Controller.stats (System.controller sys) in
  {
    spec = st.ck_spec;
    seed = st.ck_seed;
    fs_done = !(st.ck_fs_finished);
    kv_done = !(st.ck_kv_finished);
    fs_rounds = !(st.ck_completed);
    data_ok = !(st.ck_data_ok);
    kv_ok = !(st.ck_kv_ok);
    kv_errors = !(st.ck_kv_errors);
    fault_stats = Fault.stats st.ck_plan;
    dtu_retries = retries;
    dtu_timeouts = timeouts;
    dtu_dup_drops = dup_drops;
    crashes = cstats.Controller.crashes;
    restarts = cstats.Controller.restarts;
    credits_reclaimed = cstats.Controller.credits_reclaimed;
    end_time = Engine.now (System.engine sys);
  }

let run ?(spec = default_spec) ?(seed = 7) ?(fs_rounds = 5)
    ?(kv_ops = 120) () =
  let plan = Fault.create ~seed spec in
  Fault.with_plan plan (fun () ->
      let st =
        setup ~plan ~spec ~seed ~fs_rounds ~kv_ops ~every:Time.zero
          ~file:"" ()
      in
      ignore (System.run ~until:horizon st.ck_sys);
      collect st)

type ckpt_outcome =
  | Completed of result
  | Suspended of { checkpoints : int; file : string }

let save_state st =
  st.ck_msg_uid <- Msg.uid_counter ();
  Checkpoint.save ~path:st.ck_file st

(* Run in slices ending at absolute multiples of [ck_every] (so checkpoint
   instants do not depend on how far a previous resume got), saving after
   each slice that leaves work pending.  Slicing does not perturb the
   simulation: the engine pops events in (time, seq) order either way, so
   the stepped run processes the identical event sequence as [run]. *)
let drive st ~stop_after =
  let eng = System.engine st.ck_sys in
  let finish () =
    (* Match [run]'s clock exactly: when the queue drains early (or only
       post-horizon events remain), [Engine.run ~until] jumps the clock to
       the horizon — a no-op if a slice already got there. *)
    ignore (System.run ~until:st.ck_until st.ck_sys);
    Completed (collect st)
  in
  let rec go written =
    if Engine.pending eng = 0 then finish ()
    else begin
      let slice_end = Time.min st.ck_until (st.ck_slice * st.ck_every) in
      st.ck_slice <- st.ck_slice + 1;
      ignore (System.run ~until:slice_end st.ck_sys);
      if slice_end >= st.ck_until || Engine.pending eng = 0 then finish ()
      else begin
        save_state st;
        let written = written + 1 in
        match stop_after with
        | Some n when written >= n ->
            Suspended { checkpoints = written; file = st.ck_file }
        | _ -> go written
      end
    end
  in
  go 0

let run_checkpointed ?(spec = default_spec) ?(seed = 7)
    ?(fs_rounds = 5) ?(kv_ops = 120) ~every ~file ?stop_after () =
  if every <= 0 then invalid_arg "Exp_chaos.run_checkpointed: every <= 0";
  let plan = Fault.create ~seed spec in
  Fault.with_plan plan (fun () ->
      let st =
        setup ~plan ~spec ~seed ~fs_rounds ~kv_ops ~every ~file ()
      in
      drive st ~stop_after)

let resume ~file ?stop_after () =
  match Checkpoint.load ~path:file with
  | Error _ as e -> e
  | Ok (st : state) ->
      (* Restore the domain-local state Marshal could not capture: the
         message uid counter and the ambient fault plan (the loaded copy
         carries the original's RNG position, so the fault schedule
         continues exactly where the save left it). *)
      Msg.set_uid_counter st.ck_msg_uid;
      Ok (Fault.with_plan st.ck_plan (fun () -> drive st ~stop_after))

(* Multi-seed soak sweep.  Each seed is an independent task: [run]
   installs its plan domain-locally inside the task, so workers cannot see
   each other's fault schedules.  Results come back in seed order, and
   each seed's liveness line is printed when the caller awaits that seed,
   not when a worker finishes it, so stderr is in seed order too. *)
let run_sweep ?(pool = M3v_par.Par.Pool.sequential) ?(spec = default_spec)
    ?(seed = 7) ?(seeds = 1) ?(fs_rounds = 5) ?(kv_ops = 120) () =
  let n = max 1 seeds in
  List.init n (fun i ->
      M3v_par.Par.submit pool (fun () -> run ~spec ~seed:(seed + i) ~fs_rounds ~kv_ops ()))
  |> List.map (fun f ->
         let r = M3v_par.Par.await f in
         M3v_par.Par.progress
           (Printf.sprintf "chaos: seed %d done (fs %s, kv %s, %d restarts)" r.seed
              (if r.fs_done then "ok" else "FAILED")
              (if r.kv_done then "ok" else "FAILED")
              r.restarts);
         r)

let print r =
  let ff = Format.std_formatter in
  Format.fprintf ff "@.Chaos soak: faults=%s seed=%d@."
    (Fault.spec_to_string r.spec)
    r.seed;
  Format.fprintf ff "  injected: %a@." Fault.pp_stats r.fault_stats;
  Format.fprintf ff
    "  recovery: dtu retries=%d timeouts=%d dup-drops=%d | crashes=%d \
     restarts=%d credits-reclaimed=%d@."
    r.dtu_retries r.dtu_timeouts r.dtu_dup_drops r.crashes r.restarts
    r.credits_reclaimed;
  Format.fprintf ff
    "  fs: %s (%d full rounds, data %s) | kv: %s (%d ok, %d errors)@."
    (if r.fs_done then "completed" else "DID NOT FINISH")
    r.fs_rounds
    (if r.data_ok then "intact" else "CORRUPT")
    (if r.kv_done then "completed" else "DID NOT FINISH")
    r.kv_ok r.kv_errors;
  Format.fprintf ff "  simulated time: %.3f ms@." (Time.to_s r.end_time *. 1e3)
