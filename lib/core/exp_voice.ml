open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module Time = M3v_sim.Time
module Rng = M3v_sim.Rng
module A = M3v_mux.Act_api
module Msg = M3v_dtu.Msg
module Audio = M3v_apps.Audio
module Flac = M3v_apps.Flac
module Net_client = M3v_os.Net_client
module Nic = M3v_os.Nic
module Controller = M3v_kernel.Controller

type result = {
  isolated_ms : Exp_common.bar;
  shared_ms : Exp_common.bar;
  overhead_percent : float;
  compression_ratio : float;
  windows_per_rep : int;
}

type Msg.data +=
  | Audio_window of { slot : int; nsamples : int }
  | Rep_end

let () =
  M3v_sim.Checkpoint.register_exts
    [ [%extension_constructor Audio_window]; [%extension_constructor Rep_end] ]

(* Scanner parameters. *)
let frame = 256
let window_samples = 8000
let scan_cycles_per_sample = 6
let energy_threshold = 2000.0
let slot_bytes = 2 * window_samples
let slots = 4
let cloud = (1, 9000)
let mtu_payload = 1400

(* [chunks ~size total f] runs [f off len] over [0, total) in order, in
   pieces of at most [size] bytes. *)
let chunks ~size total f =
  let rec go off =
    if off >= total then Proc.return ()
    else
      let len = min size (total - off) in
      let* () = f off len in
      go (off + len)
  in
  go 0

(* Continuously scan room audio; on trigger, ship the window to the
   compressor through the delegated memory region (paper, 6.5.1: "the
   scanner delegates a memory capability to the data in memory to the
   compressor"). *)
let scanner_program ~audio ~reps ~mem_ep ~chan () _env =
  let samples = audio.Audio.samples in
  let n = Array.length samples in
  let sgate = fst !chan in
  let* pcm_buf = A.alloc_buf slot_bytes in
  let send_window ~slot ~window_off ~nsamples =
    (* Write the PCM into the shared region (page-sized DMA commands). *)
    let pcm = Audio.to_pcm_bytes (Array.sub samples window_off nsamples) in
    Bytes.blit pcm 0 pcm_buf.M3v_mux.Act_ops.data 0 (Bytes.length pcm);
    let* () =
      chunks ~size:4096 (Bytes.length pcm) (fun off len ->
          A.mem_write ~ep:!mem_ep ~off:((slot * slot_bytes) + off) ~len
            ~src:pcm_buf.M3v_mux.Act_ops.data ~src_off:off ())
    in
    A.send ~ep:sgate ~size:16 (Audio_window { slot; nsamples })
  in
  let one_rep () =
    let slot = ref 0 in
    let window_start = ref (-1) in
    let rec scan off =
      if off >= n then Proc.return ()
      else begin
        let len = min frame (n - off) in
        let* () = A.compute (scan_cycles_per_sample * len) in
        let energy = Audio.window_energy audio ~off ~len in
        let* () =
          if energy > energy_threshold then begin
            if !window_start < 0 then window_start := off;
            if off + len - !window_start >= window_samples then begin
              let start = !window_start in
              window_start := -1;
              let s = !slot in
              slot := (s + 1) mod slots;
              send_window ~slot:s ~window_off:start ~nsamples:window_samples
            end
            else Proc.return ()
          end
          else if !window_start >= 0 then begin
            (* Burst ended early: ship what we have. *)
            let start = !window_start in
            let nsamples = off + len - start in
            window_start := -1;
            let s = !slot in
            slot := (s + 1) mod slots;
            send_window ~slot:s ~window_off:start ~nsamples
          end
          else Proc.return ()
        in
        scan (off + len)
      end
    in
    let* () = scan 0 in
    A.send ~ep:sgate ~size:8 Rep_end
  in
  Proc.repeat reps (fun _ -> one_rep ())

let compressor_program ~reps ~mem_ep ~rgate ~udp_box ~on_rep ~ratio_box ~windows_box
    () _env =
  let udp : Net_client.udp = Lazy.force udp_box in
  let* sock = udp.Net_client.u_socket () in
  let* () = udp.Net_client.u_bind sock 6100 in
  let* window_buf = A.alloc_buf slot_bytes in
  let* () = A.touch ~write:true window_buf in
  let reps_done = ref 0 in
  let windows = ref 0 in
  let rec serve () =
    let* _ep, msg = A.recv ~eps:[ !rgate ] in
    match msg.Msg.data with
    | Audio_window { slot; nsamples } ->
        let bytes = 2 * nsamples in
        (* Pull the PCM out of the delegated region. *)
        let* () =
          chunks ~size:4096 bytes (fun off len ->
              A.mem_read ~ep:!mem_ep ~off:((slot * slot_bytes) + off) ~len
                ~dst:window_buf.M3v_mux.Act_ops.data ~dst_off:off ())
        in
        let samples =
          Audio.of_pcm_bytes (Bytes.sub window_buf.M3v_mux.Act_ops.data 0 bytes)
        in
        let* () = A.compute (Flac.compress_cycles_per_sample * nsamples) in
        let compressed = Flac.compress samples in
        ratio_box :=
          float_of_int bytes /. float_of_int (Bytes.length compressed);
        incr windows;
        (* Ship the compressed audio to the cloud in MTU-sized packets. *)
        let* () =
          chunks ~size:mtu_payload (Bytes.length compressed) (fun off len ->
              udp.Net_client.u_sendto sock cloud (Bytes.sub compressed off len))
        in
        let* () = A.ack ~ep:!rgate msg in
        serve ()
    | Rep_end ->
        let* () = A.ack ~ep:!rgate msg in
        let* t = A.now in
        incr reps_done;
        windows_box := !windows;
        windows := 0;
        on_rep t;
        if !reps_done >= reps then udp.Net_client.u_close sock else serve ()
    | _ ->
        let* () = A.ack ~ep:!rgate msg in
        serve ()
  in
  serve ()

let pipeline_times ~shared ~runs ~warmup ~audio =
  let sys = System.create ~variant:System.M3v () in
  let reps = runs + warmup in
  let nic_tile = Exp_common.boom_tile_a in
  let comp_tile = if shared then nic_tile else Exp_common.boom_tile_b in
  let pager_tile = if shared then nic_tile else Exp_common.boom_tile_c in
  ignore (System.with_pager sys ~tile:pager_tile);
  let net = Services.make_net sys ~host:Nic.Sink () in
  let rep_ends = ref [] in
  let ratio_box = ref 0.0 in
  let windows_box = ref 0 in
  let rgate = ref (-1) in
  let udp_lazy_box = ref None in
  let comp_mem_ep = ref (-1) in
  let scan_mem_ep = ref (-1) in
  let scan_chan = ref (-1, -1) in
  let compressor, comp_env =
    System.spawn sys ~tile:comp_tile ~name:"compressor" ~premap:false
      (compressor_program ~reps ~mem_ep:comp_mem_ep ~rgate
         ~udp_box:(lazy (Option.get !udp_lazy_box))
         ~on_rep:(fun t -> rep_ends := t :: !rep_ends)
         ~ratio_box ~windows_box ())
  in
  let scanner, _ =
    System.spawn sys ~tile:Exp_common.rocket_tile ~name:"scanner" ~premap:true
      (scanner_program ~audio ~reps ~mem_ep:scan_mem_ep ~chan:scan_chan ())
  in
  udp_lazy_box := Some (Net_client.to_udp (net.Services.net_connect compressor comp_env));
  (* The shared audio region: owned by the scanner, delegated read-only to
     the compressor. *)
  let ctrl = System.controller sys in
  let mem_tile, base = Controller.host_alloc_mem ctrl ~size:(slots * slot_bytes) in
  let ssel =
    Controller.host_new_mgate ctrl ~act:scanner ~mem_tile ~base
      ~size:(slots * slot_bytes) ~perm:M3v_dtu.Dtu_types.RW
  in
  scan_mem_ep := Controller.host_activate ctrl ~act:scanner ~sel:ssel ();
  let csel =
    Controller.host_new_mgate ctrl ~act:compressor ~mem_tile ~base
      ~size:(slots * slot_bytes) ~perm:M3v_dtu.Dtu_types.R
  in
  comp_mem_ep := Controller.host_activate ctrl ~act:compressor ~sel:csel ();
  let ch = System.channel sys ~src:scanner ~dst:compressor ~credits:slots () in
  rgate := ch.System.rgate;
  scan_chan := (ch.System.sgate, ch.System.reply_ep);
  System.boot sys;
  ignore (System.run sys);
  (* Per-rep durations from consecutive completion timestamps. *)
  let ends = List.rev !rep_ends in
  let durations =
    let rec diffs prev = function
      | [] -> []
      | t :: rest -> Time.sub t prev :: diffs t rest
    in
    diffs Time.zero ends
  in
  let measured =
    List.filteri (fun i _ -> i >= warmup) durations
  in
  (measured, !ratio_box, !windows_box)

let run ?(pool = M3v_par.Par.Pool.sequential) ?(runs = 16) ?(warmup = 1)
    ?(audio_seconds = 41.0) () =
  let audio =
    Audio.room_audio (Rng.create ~seed:1234) ~seconds:audio_seconds ()
  in
  (* The two pipeline configurations are independent systems; the audio is
     shared read-only. *)
  let f_iso =
    M3v_par.Par.submit pool (fun () ->
        pipeline_times ~shared:false ~runs ~warmup ~audio)
  in
  let f_sh =
    M3v_par.Par.submit pool (fun () ->
        pipeline_times ~shared:true ~runs ~warmup ~audio)
  in
  let iso_times, ratio, windows = M3v_par.Par.await f_iso in
  let sh_times, _, _ = M3v_par.Par.await f_sh in
  let isolated_ms = Exp_common.bar_of_times "without sharing" iso_times ~to_unit:Time.to_ms in
  let shared_ms = Exp_common.bar_of_times "with sharing" sh_times ~to_unit:Time.to_ms in
  {
    isolated_ms;
    shared_ms;
    overhead_percent =
      (shared_ms.Exp_common.mean -. isolated_ms.Exp_common.mean)
      /. isolated_ms.Exp_common.mean *. 100.0;
    compression_ratio = ratio;
    windows_per_rep = windows;
  }

let print r =
  Exp_common.print_bars ~title:"Section 6.5.1: voice assistant (per repetition)"
    ~unit_label:"ms" [ r.isolated_ms; r.shared_ms ];
  Exp_common.print_kv ~title:"Voice assistant details"
    [
      ( "sharing overhead (paper: 3.6%, 384 -> 398 ms)",
        Printf.sprintf "%.1f%%" r.overhead_percent );
      ("FLAC compression ratio", Printf.sprintf "%.2fx" r.compression_ratio);
      ("trigger windows per repetition", string_of_int r.windows_per_rep);
    ]
