open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module Time = M3v_sim.Time
module A = M3v_mux.Act_api
module Fs_client = M3v_os.Fs_client
module Fs_proto = M3v_os.Fs_proto
module Fs_core = M3v_os.Fs_core

type results = {
  mutable runs_completed : int;
  mutable run_times : Time.t list;
}

let make_results () = { runs_completed = 0; run_times = [] }

let rate r =
  if r.run_times = [] then 0.0
  else
    let total = List.fold_left Time.add Time.zero r.run_times in
    float_of_int (List.length r.run_times) /. Time.to_s total

type state = { mutable fd : int option; mutable pos : int }

let play_op client st op =
  match op with
  | Trace.T_compute cycles -> A.compute cycles
  | Trace.T_seek pos ->
      st.pos <- pos;
      Proc.return ()
  | Trace.T_open { path; write } ->
      let flags =
        if write then { Fs_proto.fl_write = true; fl_create = true; fl_trunc = false }
        else Fs_proto.rdonly
      in
      let* r = Fs_client.open_ client path flags in
      (match r with
      | Ok fd ->
          st.fd <- Some fd;
          st.pos <- 0
      | Error e -> failwith ("traceplayer: open failed: " ^ e));
      Proc.return ()
  | Trace.T_close -> (
      match st.fd with
      | None -> Proc.return ()
      | Some fd ->
          st.fd <- None;
          Fs_client.close client ~fd)
  | Trace.T_stat path ->
      let* _ = Fs_client.stat client path in
      Proc.return ()
  | Trace.T_readdir path ->
      let* _ = Fs_client.readdir client path in
      Proc.return ()
  | Trace.T_read len -> (
      match st.fd with
      | None -> Proc.return ()
      | Some fd ->
          let* _ = Fs_client.read_inline client ~fd ~off:st.pos ~len in
          st.pos <- st.pos + len;
          Proc.return ())
  | Trace.T_write len -> (
      match st.fd with
      | None -> Proc.return ()
      | Some fd ->
          let data = Bytes.make len 'w' in
          let* () = Fs_client.write_inline client ~fd ~off:st.pos ~data in
          st.pos <- st.pos + len;
          Proc.return ())

let play_once client trace =
  let st = { fd = None; pos = 0 } in
  Proc.iter_list (play_op client st) trace.Trace.ops

let program results ~client ~trace ~runs ~warmup _env =
  let client = Lazy.force client in
  let* () = Proc.repeat warmup (fun _ -> play_once client trace) in
  Proc.repeat runs (fun _ ->
      let* t0 = A.now in
      let* () = play_once client trace in
      let* t1 = A.now in
      results.runs_completed <- results.runs_completed + 1;
      results.run_times <- Time.sub t1 t0 :: results.run_times;
      Proc.return ())

let setup_fs core trace =
  List.iter
    (fun dir ->
      match Fs_core.mkdir core dir with
      | Ok _ -> ()
      | Error "exists" -> ()
      | Error e -> invalid_arg ("traceplayer setup: " ^ e))
    trace.Trace.setup_dirs;
  List.iter
    (fun (path, size) ->
      match Fs_core.create_file core path with
      | Ok ino ->
          if size > 0 then begin
            Fs_core.preallocate core ino
              ~blocks:((size + Fs_core.block_size - 1) / Fs_core.block_size);
            Fs_core.set_size core ino size
          end
      | Error e -> invalid_arg ("traceplayer setup: " ^ e))
    trace.Trace.setup_files
