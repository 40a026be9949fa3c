open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module Time = M3v_sim.Time
module A = M3v_mux.Act_api
module Vfs = M3v_os.Vfs
module Fs_proto = M3v_os.Fs_proto
module Lx = M3v_linux.Lx_api
module Linux_sim = M3v_linux.Linux_sim
module Par = M3v_par.Par

type result = { bars : Exp_common.bar list }

let buffer_size = 4096

(* The benchmark's passes over the file; conses each timed pass's
   duration onto [times]. *)
let bench_program ~(vfs : Vfs.t) ~path ~file_size ~write ~runs ~warmup ~times =
  let* buf = A.alloc_buf buffer_size in
  Bytes.fill buf.M3v_mux.Act_ops.data 0 buffer_size 'd';
  let one_run () =
    if write then begin
      let* fd = vfs.Vfs.open_ path Fs_proto.wronly in
      let fd = match fd with Ok fd -> fd | Error e -> failwith e in
      let* () =
        Proc.repeat (file_size / buffer_size) (fun _ ->
            let* n = vfs.Vfs.write fd buf buffer_size in
            if n <> buffer_size then failwith "short write";
            Proc.return ())
      in
      vfs.Vfs.close fd
    end
    else begin
      let* fd = vfs.Vfs.open_ path Fs_proto.rdonly in
      let fd = match fd with Ok fd -> fd | Error e -> failwith e in
      let rec drain () =
        let* n = vfs.Vfs.read fd buf buffer_size in
        if n = 0 then Proc.return () else drain ()
      in
      let* () = drain () in
      vfs.Vfs.close fd
    end
  in
  Exp_common.timed_runs ~warmup ~runs times one_run

let m3v_times ~shared ~write ~runs ~warmup ~file_size =
  let sys = System.create ~variant:System.M3v () in
  let app_tile = Exp_common.boom_tile_b in
  let fs_tile = if shared then app_tile else Exp_common.boom_tile_c in
  let pager_tile = if shared then app_tile else Exp_common.boom_tile_d in
  ignore (System.with_pager sys ~tile:pager_tile);
  let fs = Services.make_fs sys ~tile:fs_tile ~blocks:2048 () in
  if not write then
    Services.preload_file sys fs ~path:"/bench.bin" (Bytes.make file_size 'x');
  let times = ref [] in
  let client_box = ref None in
  let aid, env =
    System.spawn sys ~tile:app_tile ~name:"fsbench" ~premap:false (fun _ ->
        let vfs = M3v_os.Fs_client.to_vfs (Option.get !client_box) in
        bench_program ~vfs ~path:"/bench.bin" ~file_size ~write ~runs ~warmup
          ~times)
  in
  client_box := Some (fs.Services.connect aid env);
  System.boot sys;
  ignore (System.run sys);
  !times

let linux_times ~write ~runs ~warmup ~file_size =
  let engine = M3v_sim.Engine.create () in
  let lx = Linux_sim.create engine () in
  if not write then
    Linux_sim.preload_file lx ~path:"/bench.bin" (Bytes.make file_size 'x');
  let times = ref [] in
  let _ =
    Linux_sim.spawn lx ~name:"fsbench"
      (bench_program ~vfs:Lx.vfs ~path:"/bench.bin" ~file_size ~write ~runs
         ~warmup ~times)
  in
  Linux_sim.boot lx;
  ignore (M3v_sim.Engine.run engine);
  !times

let run ?(pool = Par.Pool.sequential) ?(runs = 10) ?(warmup = 4)
    ?(file_size = 2 * 1024 * 1024) () =
  let bar (label, times) =
    Exp_common.bar_of_times label times ~to_unit:(fun t ->
        float_of_int file_size /. 1024.0 /. 1024.0 /. Time.to_s t)
  in
  (* Each bar is its own simulated system: fan the six out as tasks. *)
  let bars =
    Par.all pool
      [
        (fun () -> ("Linux write", linux_times ~write:true ~runs ~warmup ~file_size));
        (fun () -> ("Linux read", linux_times ~write:false ~runs ~warmup ~file_size));
        (fun () ->
          ("M3v write (shared)", m3v_times ~shared:true ~write:true ~runs ~warmup ~file_size));
        (fun () ->
          ("M3v write (isolated)", m3v_times ~shared:false ~write:true ~runs ~warmup ~file_size));
        (fun () ->
          ("M3v read (shared)", m3v_times ~shared:true ~write:false ~runs ~warmup ~file_size));
        (fun () ->
          ("M3v read (isolated)", m3v_times ~shared:false ~write:false ~runs ~warmup ~file_size));
      ]
    |> List.map bar
  in
  { bars }

let print r =
  Exp_common.print_bars
    ~title:"Figure 7: file read/write throughput (2 MiB files, 4 KiB buffers)"
    ~unit_label:"MiB/s" r.bars
