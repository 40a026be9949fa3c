module Proc = M3v_sim.Proc
module Time = M3v_sim.Time
module Stats = M3v_sim.Stats
module Rng = M3v_sim.Rng
module Ycsb = M3v_apps.Ycsb
module Cloud = M3v_apps.Cloud
module Nic = M3v_os.Nic
module Net_client = M3v_os.Net_client
module Runtime = M3v_mux.Runtime
module Linux_sim = M3v_linux.Linux_sim
module Lx = M3v_linux.Lx_api
module Par = M3v_par.Par

type row = {
  config : string;
  total_s : float;
  total_sd : float;
  user_s : float;
  sys_s : float;
}

type result = { workloads : (string * row list) list }

let peer = (1, 9000)

let workload_bytes ~records ~operations workload =
  let rng = Rng.create ~seed:(77 + Hashtbl.hash (Ycsb.workload_name workload)) in
  let load = Ycsb.load ~records ~value_size:1024 rng in
  let ops = Ycsb.ops workload ~records ~count:operations rng in
  Cloud.encode_workload ~load ~ops

(* Build a row from per-rep (elapsed, sys-time) samples. *)
let make_row config samples ~warmup =
  let measured = List.filteri (fun i _ -> i >= warmup) samples in
  let totals = List.map (fun (e, _) -> Time.to_s e) measured in
  let syss = List.map (fun (_, s) -> Time.to_s s) measured in
  let ts = Stats.summarize totals in
  let mean_sys = Stats.mean syss in
  {
    config;
    total_s = ts.Stats.mean;
    total_sd = ts.Stats.stddev;
    user_s = Float.max 0.0 (ts.Stats.mean -. mean_sys);
    sys_s = mean_sys;
  }

let m3v_samples ~shared ~reps ~requests =
  let sys = System.create ~variant:System.M3v () in
  let nic_tile = Exp_common.boom_tile_a in
  let db_tile = if shared then nic_tile else Exp_common.boom_tile_b in
  let fs_tile = if shared then nic_tile else Exp_common.boom_tile_c in
  let pager_tile = if shared then nic_tile else Exp_common.boom_tile_d in
  ignore (System.with_pager sys ~tile:pager_tile);
  let fs = Services.make_fs sys ~tile:fs_tile ~blocks:8192 () in
  let net = Services.make_net sys ~host:Nic.Sink () in
  Services.preload_file sys fs ~path:"/requests.bin" requests;
  (* System time = fs + net busy time, read from the "sys" accounting
     bucket of the involved runtimes at each rep boundary. *)
  let tiles = List.sort_uniq compare [ nic_tile; db_tile; fs_tile ] in
  let sys_now () =
    List.fold_left
      (fun acc tile ->
        acc +. Runtime.busy_of_bucket (System.runtime sys ~tile) "sys")
      0.0 tiles
  in
  let samples = ref [] in
  let last_sys = ref 0.0 in
  let vfs_box = ref None and udp_box = ref None in
  let db, db_env =
    System.spawn sys ~tile:db_tile ~name:"db" ~premap:false (fun _ ->
        Cloud.db_program
          ~vfs:(Option.get !vfs_box)
          ~udp:(Option.get !udp_box)
          ~requests_path:"/requests.bin" ~db_dir_base:"/db" ~results_to:peer
          ~reps
          ~on_rep:(fun report ->
            let s = sys_now () in
            samples :=
              (report.Cloud.elapsed, int_of_float (s -. !last_sys)) :: !samples;
            last_sys := s))
  in
  vfs_box := Some (M3v_os.Fs_client.to_vfs (fs.Services.connect db db_env));
  udp_box := Some (Net_client.to_udp (net.Services.net_connect db db_env));
  System.boot sys;
  ignore (System.run sys);
  List.rev !samples

let linux_samples ~reps ~requests =
  let engine = M3v_sim.Engine.create () in
  let lx = Linux_sim.create ~tmpfs_blocks:32768 engine () in
  let nic = Nic.create ~engine ~host:Nic.Sink () in
  Linux_sim.attach_nic lx nic;
  Linux_sim.preload_file lx ~path:"/requests.bin" requests;
  let samples = ref [] in
  let pid_box = ref (-1) in
  let last_sys = ref Time.zero in
  let pid =
    Linux_sim.spawn lx ~name:"db"
      (Cloud.db_program ~vfs:Lx.vfs ~udp:Lx.udp ~requests_path:"/requests.bin"
         ~db_dir_base:"/db" ~results_to:peer ~reps
         ~on_rep:(fun report ->
           let _u, s = Linux_sim.rusage lx !pid_box in
           samples := (report.Cloud.elapsed, Time.sub s !last_sys) :: !samples;
           last_sys := s))
  in
  pid_box := pid;
  Linux_sim.boot lx;
  ignore (M3v_sim.Engine.run engine);
  List.rev !samples

let run ?(pool = Par.Pool.sequential) ?(runs = 8) ?(warmup = 2) ?(records = 200)
    ?(operations = 200) () =
  let reps = runs + warmup in
  (* One task per (workload, config) cell.  [workload_bytes] is
     deterministic per workload (seeded by its name), so recomputing it
     inside each task costs a little redundant work but keeps the tasks
     fully independent. *)
  let configs =
    [
      ("M3v (isolated)", m3v_samples ~shared:false);
      ("M3v (shared)", m3v_samples ~shared:true);
      ("Linux", linux_samples);
    ]
  in
  {
    workloads =
      Exp_common.grid pool
        (fun workload (label, samples) ->
          let requests = workload_bytes ~records ~operations workload in
          make_row label (samples ~reps ~requests) ~warmup)
        Ycsb.all_workloads configs
      |> List.map (fun (w, rows) -> (Ycsb.workload_name w, rows));
  }

let print r =
  Format.printf "@.== Figure 10: cloud service (YCSB, 200 records / 200 ops) ==@.";
  Format.printf "  %-8s %-16s %10s %10s %10s %10s@." "workload" "config"
    "total[s]" "sd" "user[s]" "sys[s]";
  List.iter
    (fun (name, rows) ->
      List.iter
        (fun row ->
          Format.printf "  %-8s %-16s %10.3f %10.3f %10.3f %10.3f@." name
            row.config row.total_s row.total_sd row.user_s row.sys_s)
        rows)
    r.workloads;
  Format.printf
    "  (paper shapes: M3v shared competitive with Linux for reads/inserts/@.";
  Format.printf
    "   updates; Linux worst on scans; isolated fastest but not comparable.)@."
