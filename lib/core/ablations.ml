open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module Time = M3v_sim.Time
module A = M3v_mux.Act_api
module Msg = M3v_dtu.Msg
module Topology = M3v_noc.Topology
module Controller = M3v_kernel.Controller
module Fs_client = M3v_os.Fs_client
module Fs_proto = M3v_os.Fs_proto
module Trace = M3v_apps.Trace

type row = { knob : string; value : float; metric : string }
type result = { study : string; rows : row list }

(* --- extent size: sequential read throughput vs the extent cap --- *)

let read_throughput ~max_extent_blocks =
  let sys = System.create ~variant:System.M3v () in
  let file_size = 1024 * 1024 in
  let fs =
    Services.make_fs sys ~tile:3 ~blocks:1024 ~max_extent_blocks ()
  in
  Services.preload_file sys fs ~path:"/f" (Bytes.make file_size 'x');
  let elapsed = ref Time.zero in
  let client_box = ref None in
  let aid, env =
    System.spawn sys ~tile:2 ~name:"reader" (fun _ ->
        let client = Option.get !client_box in
        let* fd = Fs_client.open_ client "/f" Fs_proto.rdonly in
        let fd = match fd with Ok fd -> fd | Error e -> failwith e in
        let* buf = A.alloc_buf 4096 in
        let* t0 = A.now in
        let rec drain () =
          let* n = Fs_client.read client ~fd ~buf ~len:4096 in
          if n = 0 then Proc.return () else drain ()
        in
        let* () = drain () in
        let* t1 = A.now in
        elapsed := Time.sub t1 t0;
        Proc.return ())
  in
  client_box := Some (fs.Services.connect aid env);
  System.boot sys;
  ignore (System.run sys);
  float_of_int file_size /. 1024.0 /. 1024.0 /. Time.to_s !elapsed

let extent_size ?(caps = [ 1; 4; 16; 64 ]) () =
  {
    study = "extent cap vs sequential read throughput (MiB/s)";
    rows =
      List.map
        (fun cap ->
          {
            knob = Printf.sprintf "%d blocks/extent" cap;
            value = read_throughput ~max_extent_blocks:cap;
            metric = "MiB/s";
          })
        caps;
  }

(* --- vDTU TLB capacity: fault rate under a wide buffer working set --- *)

type Msg.data += Ab_ping

let () = M3v_sim.Checkpoint.register_exts [ [%extension_constructor Ab_ping] ]

let tlb_run ~pages =
  let sys = System.create ~variant:System.M3v () in
  let rgate = ref (-1) in
  let chan = ref (-1, -1) in
  let elapsed = ref Time.zero in
  let sink, _ =
    System.spawn sys ~tile:3 ~name:"sink" (fun _ ->
        let rec loop () =
          let* _ep, msg = A.recv ~eps:[ !rgate ] in
          let* () = A.ack ~ep:!rgate msg in
          loop ()
        in
        loop ())
  in
  let src, _ =
    System.spawn sys ~tile:2 ~name:"source" (fun _ ->
        (* One buffer page per message, round robin over a working set
           wider than (or within) the vDTU TLB. *)
        let* buf = A.alloc_buf (pages * 4096) in
        let* t0 = A.now in
        let* () =
          Proc.repeat 600 (fun i ->
              let vaddr = buf.M3v_mux.Act_ops.vaddr + (i mod pages * 4096) in
              A.send ~ep:(fst !chan) ~vaddr ~size:64 Ab_ping)
        in
        let* t1 = A.now in
        elapsed := Time.sub t1 t0;
        Proc.return ())
  in
  let ch = System.channel sys ~src ~dst:sink ~credits:8 ~slots:16 () in
  rgate := ch.System.rgate;
  chan := (ch.System.sgate, ch.System.reply_ep);
  System.boot sys;
  ignore (System.run sys);
  let tlb = M3v_dtu.Dtu.tlb (M3v_tile.Platform.dtu (System.platform sys) 2) in
  let stats = M3v_dtu.Tlb.stats tlb in
  (Time.to_us !elapsed /. 600.0, stats.M3v_dtu.Tlb.misses)

(* Cyclic page access under FIFO replacement thrashes completely once the
   working set exceeds the capacity, so we sweep the working set against
   the paper-sized 32-entry TLB: within capacity, one cold miss per page;
   beyond it, every send pays the TMCall translate path. *)
let tlb_capacity () =
  {
    study = "sender working set vs vDTU TLB (32 entries): per-send us / misses";
    rows =
      List.concat_map
        (fun pages ->
          let us, misses = tlb_run ~pages in
          [
            { knob = Printf.sprintf "%d pages" pages; value = us; metric = "us/send" };
            {
              knob = Printf.sprintf "%d pages" pages;
              value = float_of_int misses;
              metric = "TLB misses";
            };
          ])
        [ 8; 24; 48; 96 ];
  }

(* --- NoC topology: remote RPC latency across placements --- *)

let topo_rpc ~make_topo =
  let spec = M3v_tile.Platform.fpga_spec () in
  let topology = make_topo ~tiles:(List.length spec) in
  Time.to_us
    (Exp_fig6.rpc_duration ~topology ~variant:System.M3v ~spec ~client_tile:2
       ~server_tile:7 ~rounds:150 ~warmup:0 ())

let topology () =
  {
    study = "NoC topology vs remote RPC latency (tiles 2 -> 7)";
    rows =
      [
        {
          knob = "2x2 star-mesh (paper)";
          value = topo_rpc ~make_topo:(fun ~tiles -> Topology.star_mesh_2x2 ~tiles);
          metric = "us/RPC";
        };
        {
          knob = "single crossbar router";
          value = topo_rpc ~make_topo:(fun ~tiles -> Topology.single_router ~tiles);
          metric = "us/RPC";
        };
        {
          knob = "4-router ring";
          value = topo_rpc ~make_topo:(fun ~tiles -> Topology.ring ~routers:4 ~tiles);
          metric = "us/RPC";
        };
      ];
  }

(* --- M3x endpoint-state size: slow-path throughput vs per-activity
   endpoint count (what the controller must save/restore remotely) --- *)

let mx_throughput ~extra_eps =
  let trace = Trace.find_trace ~dirs:4 ~files_per_dir:10 () in
  let spec = M3v_tile.Platform.gem5_spec ~user_tiles:1 () in
  let sys = System.create ~spec ~variant:System.M3x () in
  let fs = Services.make_fs sys ~tile:1 ~blocks:512 () in
  M3v_apps.Traceplayer.setup_fs (M3v_os.M3fs.core fs.Services.fs_handle) trace;
  let res = M3v_apps.Traceplayer.make_results () in
  let client_box = ref None in
  let aid, env =
    System.spawn sys ~tile:1 ~name:"player"
      (M3v_apps.Traceplayer.program res
         ~client:(lazy (Option.get !client_box))
         ~trace ~runs:2 ~warmup:1)
  in
  client_box := Some (fs.Services.connect aid env);
  (* Inflate the endpoint state the controller must move on each remote
     context switch. *)
  let ctrl = System.controller sys in
  (* Two activities share the tile's 128 endpoints; stay within range. *)
  for _ = 1 to min extra_eps 48 do
    ignore (Controller.host_alloc_ep ctrl ~tile:1 ~act:aid);
    ignore (Controller.host_alloc_ep ctrl ~tile:1 ~act:fs.Services.fs_aid)
  done;
  System.boot sys;
  ignore (System.run sys);
  M3v_apps.Traceplayer.rate res

let mx_ep_state () =
  {
    study = "M3x: per-activity endpoints vs slow-path throughput (runs/s)";
    rows =
      List.map
        (fun extra ->
          {
            knob = Printf.sprintf "+%d endpoints/activity" extra;
            value = mx_throughput ~extra_eps:extra;
            metric = "runs/s";
          })
        [ 0; 16; 32; 48 ];
  }

let run_all ?(pool = M3v_par.Par.Pool.sequential) () =
  M3v_par.Par.all pool
    [
      (fun () -> extent_size ());
      (fun () -> tlb_capacity ());
      (fun () -> topology ());
      (fun () -> mx_ep_state ());
    ]

let print r =
  Format.printf "@.== Ablation: %s ==@." r.study;
  List.iter
    (fun row ->
      Format.printf "  %-26s %12.2f %s@." row.knob row.value row.metric)
    r.rows
